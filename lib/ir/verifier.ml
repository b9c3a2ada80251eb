(** IR verification: structural SSA invariants (dominance, terminators,
    successor wiring, use-def consistency) plus per-op verifiers registered
    in the {!Context}. *)

open Ircore

let diag op fmt =
  Fmt.kstr
    (fun m -> Diag.error ~loc:op.op_loc "'%s': %s" op.op_name m)
    fmt

let verify_op_structure ctx op errors =
  (* registration *)
  (match Context.lookup ctx op.op_name with
  | Some def -> (
    match def.Context.d_verify op with
    | Ok () -> ()
    | Error msg -> errors := diag op "%s" msg :: !errors)
  | None ->
    if not (Context.allows_unregistered ctx) then
      errors :=
        diag op "unregistered operation in a context that requires registration"
        :: !errors);
  (* trait checks *)
  if Context.op_has_trait ctx op Context.Same_operands_and_result_type then begin
    let tys =
      List.map value_typ (operands op) @ List.map value_typ (results op)
    in
    match tys with
    | [] -> ()
    | t :: rest ->
      if not (List.for_all (Typ.equal t) rest) then
        errors :=
          diag op "requires the same type for all operands and results"
          :: !errors
  end;
  if Context.op_has_trait ctx op Context.Terminator then begin
    match op.op_parent with
    | Some b when (match block_last_op b with Some l -> l == op | None -> false)
      ->
      ()
    | _ -> errors := diag op "terminator must be the last op in its block" :: !errors
  end;
  if Array.length op.successors > 0
     && not (Context.op_has_trait ctx op Context.Terminator)
     && Context.is_registered ctx op.op_name
  then errors := diag op "only terminators may have successors" :: !errors

let verify_block_terminator ctx ~parent b errors =
  let graph_region = Context.op_has_trait ctx parent Context.No_terminator in
  if not graph_region then
    match block_last_op b with
    | None -> errors := diag parent "block has no terminator" :: !errors
    | Some last ->
      if
        Context.is_registered ctx last.op_name
        && not (Context.op_has_trait ctx last Context.Terminator)
      then
        errors :=
          diag last "block must end with a terminator operation" :: !errors

(** Same-block order in O(1) per query, worked out once per block: by op
    id when ids increase along the block, as they do in freshly parsed IR,
    else by a table of positions. *)
let block_order b =
  let rec ids_increase prev = function
    | None -> true
    | Some o -> prev < o.op_id && ids_increase o.op_id o.op_next
  in
  if ids_increase min_int b.b_first then fun x y -> x.op_id < y.op_id
  else begin
    let pos = Util.Itbl.create (block_num_ops b) in
    let rec number i = function
      | None -> ()
      | Some o ->
        Util.Itbl.replace pos o.op_id i;
        number (i + 1) o.op_next
    in
    number 0 b.b_first;
    fun x y -> Util.Itbl.find pos x.op_id < Util.Itbl.find pos y.op_id
  end

(** Verify dominance of operand defs over their users in [region]. Uses in
    blocks unreachable from the entry are not checked: dominance is only
    meaningful inside reachable blocks. *)
let verify_region_dominance r errors =
  let doms = Dominance.compute r in
  (* only values defined within this same region are checked; outer
     values are checked at the outer region *)
  let in_region b = match b.b_parent with Some rr -> rr == r | None -> false in
  let defined_here v =
    match v.v_def with
    | Block_arg (db, _) -> in_region db
    | Op_result (dop, _) -> (
      match dop.op_parent with Some db -> in_region db | None -> false)
  in
  List.iter
    (fun b ->
      if Dominance.reachable doms b then begin
        (* every use checked below hoists to an op of [b], so same-block
           queries all order ops of [b] *)
        let order = lazy (block_order b) in
        let before x y = Lazy.force order x y in
        walk_block b ~post:ignore ~pre:(fun user ->
            Array.iteri
              (fun i v ->
                if
                  defined_here v
                  && not (Dominance.value_dominates_op ~before doms v user)
                then
                  errors :=
                    diag user "operand #%d does not dominate this use" i
                    :: !errors)
              user.operands)
      end)
    (region_blocks r)

(** Every operand slot must be recorded in its value's use list: O(1) per
    slot, since the slot's own use record names the list it is linked
    into. A slot written in place, bypassing {!Ircore.set_operand}, is
    caught here. *)
let verify_use_def_consistency op errors =
  walk_op op ~pre:(fun o ->
      Array.iteri
        (fun i v ->
          if not (i < Array.length o.op_uses && o.op_uses.(i).u_value == v) then
            errors :=
              diag o "operand #%d missing from the use list of its value" i
              :: !errors)
        o.operands)

(** Verify symbol uniqueness within symbol-table ops. *)
let verify_symbols ctx op errors =
  if Context.op_has_trait ctx op Context.Symbol_table then begin
    let seen = Hashtbl.create 8 in
    List.iter
      (fun r ->
        List.iter
          (fun b ->
            List.iter
              (fun nested ->
                match attr nested "sym_name" with
                | Some (Attr.String name) ->
                  if Hashtbl.mem seen name then
                    errors :=
                      diag nested "redefinition of symbol @%s" name :: !errors
                  else Hashtbl.replace seen name ()
                | _ -> ())
              (block_ops b))
          (region_blocks r))
      op.regions
  end

let verify ctx top : (unit, Diag.t list) result =
  let errors = ref [] in
  verify_use_def_consistency top errors;
  walk_op top ~pre:(fun op ->
      verify_op_structure ctx op errors;
      verify_symbols ctx op errors;
      List.iter
        (fun r ->
          List.iter
            (fun b -> verify_block_terminator ctx ~parent:op b errors)
            (region_blocks r);
          verify_region_dominance r errors)
        op.regions);
  match List.rev !errors with [] -> Ok () | errs -> Error errs

let verify_or_fail ctx top =
  match verify ctx top with
  | Ok () -> ()
  | Error errs ->
    let msg =
      Fmt.str "@[<v>verification failed:@,%a@]"
        (Fmt.list ~sep:Fmt.cut Diag.pp)
        errs
    in
    failwith msg

(** Verify and report failures through the context's diagnostic handler;
    returns [true] when the IR is valid. *)
let verify_and_emit ctx top =
  match verify ctx top with
  | Ok () -> true
  | Error errs ->
    List.iter (Context.emit_diag ctx) errs;
    false

(* ------------------------------------------------------------------ *)
(* Reusable per-op verification helpers for dialect definitions        *)
(* ------------------------------------------------------------------ *)

let expect_operands n op =
  if num_operands op = n then Ok ()
  else Error (Fmt.str "expected %d operands, got %d" n (num_operands op))

let expect_min_operands n op =
  if num_operands op >= n then Ok ()
  else Error (Fmt.str "expected at least %d operands, got %d" n (num_operands op))

let expect_results n op =
  if num_results op = n then Ok ()
  else Error (Fmt.str "expected %d results, got %d" n (num_results op))

let expect_regions n op =
  if List.length op.regions = n then Ok ()
  else
    Error (Fmt.str "expected %d regions, got %d" n (List.length op.regions))

let expect_attr name op =
  match attr op name with
  | Some _ -> Ok ()
  | None -> Error (Fmt.str "missing required attribute '%s'" name)

let ( let* ) = Result.bind

let all checks op =
  List.fold_left
    (fun acc check -> match acc with Error _ -> acc | Ok () -> check op)
    (Ok ()) checks
