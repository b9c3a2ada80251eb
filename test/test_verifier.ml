(* Verifier: structural invariants, dominance, terminators, symbols. *)

open Ir
open Dialects

let ctx = Transform.Register.full_context ()

let expect_ok m =
  match Verifier.verify ctx m with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "unexpected diagnostics: %a"
      (Fmt.list ~sep:Fmt.comma Diag.pp)
      ds

let expect_error ~containing m =
  match Verifier.verify ctx m with
  | Ok () -> Alcotest.failf "expected error containing %S" containing
  | Error ds ->
    let all = Fmt.str "%a" (Fmt.list ~sep:Fmt.comma Diag.pp) ds in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    in
    if not (contains all containing) then
      Alcotest.failf "diagnostics %S do not mention %S" all containing

let parse src =
  match Parser.parse_module src with
  | Ok m -> m
  | Error e -> Alcotest.failf "parse: %s" e

let test_valid_module () =
  expect_ok
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a, %a) : (i32, i32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|})

let test_missing_terminator () =
  expect_error ~containing:"terminator"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a, %a) : (i32, i32) -> i32
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|})

let test_terminator_in_middle () =
  (* build directly: return before another op *)
  let f, entry = Func.create ~name:"f" ~arg_types:[] ~result_types:[] () in
  let rw = Dutil.rw_at_end entry in
  Func.return rw ();
  ignore (Dutil.const_int rw 1);
  let md = Builtin.create_module () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  expect_error ~containing:"terminator" md

let test_wrong_operand_count () =
  expect_error ~containing:"expected 2 operands"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.addi"(%a) : (i32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32) -> i32} : () -> ()|})

let test_same_type_trait () =
  expect_error ~containing:"same type"
    (parse
       {|"func.func"() ({
^bb0(%a: i32, %b: f32):
  %0 = "arith.addi"(%a, %b) : (i32, f32) -> i32
  "func.return"(%0) : (i32) -> ()
}) {sym_name = "f", function_type = (i32, f32) -> i32} : () -> ()|})

let test_missing_attr () =
  expect_error ~containing:"missing required attribute"
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  %0 = "arith.cmpi"(%a, %a) : (i32, i32) -> i1
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i32) -> ()} : () -> ()|})

let test_unregistered_rejected () =
  let strict = Dialects.Registry.context () in
  let m = parse {|"nosuch.op"() : () -> ()|} in
  (match Verifier.verify strict m with
  | Ok () -> Alcotest.fail "expected unregistered error"
  | Error _ -> ());
  let lax = Dialects.Registry.context ~allow_unregistered:true () in
  match Verifier.verify lax m with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "lax context rejected: %a"
      (Fmt.list ~sep:Fmt.comma Diag.pp)
      ds

let test_dominance_straightline () =
  (* use before def in the same block *)
  let b = Ircore.create_block () in
  let def = Ircore.create ~result_types:[ Typ.i32 ] "arith.constant" in
  Ircore.set_attr def "value" (Attr.int 1);
  let use =
    Ircore.create ~operands:[ Ircore.result def ] ~result_types:[ Typ.i32 ]
      "arith.addi"
  in
  Ircore.set_operands use [ Ircore.result def; Ircore.result def ];
  Ircore.insert_at_end b use;
  Ircore.insert_at_end b def;
  Ircore.insert_at_end b (Ircore.create "func.return");
  let f =
    Ircore.create
      ~regions:[ Ircore.region_with_block b ]
      ~attrs:
        [
          ("sym_name", Attr.str "f");
          ("function_type", Attr.typ (Typ.Func ([], [])));
        ]
      "func.func"
  in
  let md = Builtin.create_module () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  expect_error ~containing:"dominate" md

let test_dominance_cfg () =
  (* value defined in one successor used in the sibling branch *)
  expect_error ~containing:"dominate"
    (parse
       {|"func.func"() ({
^bb0(%c: i1):
  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  %x = "arith.constant"() {value = 1 : i32} : () -> i32
  "cf.br"()[^bb3] : () -> ()
^bb2:
  %y = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.br"()[^bb3] : () -> ()
^bb3:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i1) -> ()} : () -> ()|})

let test_dominance_cfg_ok () =
  (* def dominates both uses through a diamond *)
  expect_ok
    (parse
       {|"func.func"() ({
^bb0(%c: i1):
  %x = "arith.constant"() {value = 1 : i32} : () -> i32
  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  %a = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.br"()[^bb3] : () -> ()
^bb2:
  %b = "arith.addi"(%x, %x) : (i32, i32) -> i32
  "cf.br"()[^bb3] : () -> ()
^bb3:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i1) -> ()} : () -> ()|})

let test_nested_region_uses_outer () =
  (* outer value used in a nested loop body: fine *)
  expect_ok
    (parse
       {|"func.func"() ({
^bb0:
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c4 = "arith.constant"() {value = 4 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  "scf.for"(%c0, %c4, %c1) ({
  ^bb1(%i: index):
    %s = "arith.addi"(%i, %c1) : (index, index) -> index
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|})

let test_symbol_redefinition () =
  let md = Builtin.create_module () in
  let f1, e1 = Func.create ~name:"dup" ~arg_types:[] ~result_types:[] () in
  Func.return (Dutil.rw_at_end e1) ();
  let f2, e2 = Func.create ~name:"dup" ~arg_types:[] ~result_types:[] () in
  Func.return (Dutil.rw_at_end e2) ();
  Ircore.insert_at_end (Builtin.body_block md) f1;
  Ircore.insert_at_end (Builtin.body_block md) f2;
  expect_error ~containing:"redefinition of symbol" md

let test_successor_on_non_terminator () =
  expect_error ~containing:"terminator"
    (parse
       {|"func.func"() ({
^bb0:
  "arith.constant"()[^bb1] {value = 1 : i32} : () -> ()
^bb1:
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|})

let test_unreachable_block_use () =
  (* dominance is only meaningful inside reachable blocks: MLIR accepts a
     use of the entry block's argument in a block nothing branches to *)
  expect_ok
    (parse
       {|"func.func"() ({
^bb0(%a: i32):
  "func.return"() : () -> ()
^bb1:
  %1 = "arith.addi"(%a, %a) : (i32, i32) -> i32
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i32) -> ()} : () -> ()|})

let test_nested_region_uses_later_outer () =
  (* the loop body uses %late; moving its def below the loop leaves a use
     in the nested region that the def no longer dominates *)
  let md =
    parse
      {|"func.func"() ({
^bb0:
  %c0 = "arith.constant"() {value = 0 : index} : () -> index
  %c1 = "arith.constant"() {value = 1 : index} : () -> index
  %late = "arith.constant"() {value = 2 : index} : () -> index
  "scf.for"(%c0, %c1, %c1) ({
  ^bb1(%i: index):
    %s = "arith.addi"(%i, %late) : (index, index) -> index
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = () -> ()} : () -> ()|}
  in
  let find name = List.hd (Symbol.collect_ops ~op_name:name md) in
  let late = Ircore.operand ~index:1 (find "arith.addi") in
  let late = Option.get (Ircore.defining_op late) in
  expect_ok md;
  Ircore.move_after ~anchor:(find "scf.for") late;
  expect_error ~containing:"operand #1 does not dominate this use" md

let diag_strings ds = List.map Diag.to_string ds

(* [%c] gets [2 * n + 1] recorded uses, the last one slot 0 of a last
   [arith.addi]; then slot 1 of that op is overwritten in place with [%c],
   bypassing [set_operands], so [%c]'s use list never learns of it *)
let module_with_unrecorded_slot n =
  let f, entry =
    Func.create ~name:"f" ~arg_types:[ Typ.i32 ] ~result_types:[] ()
  in
  let rw = Dutil.rw_at_end entry in
  let a = Ircore.block_arg entry 0 in
  let c = Dutil.const_int rw ~typ:Typ.i32 3 in
  for _ = 1 to n do
    ignore (Arith.addi rw c c)
  done;
  let last = Option.get (Ircore.defining_op (Arith.addi rw a a)) in
  Func.return rw ();
  Ircore.set_operand last 0 c;
  last.Ircore.operands.(1) <- c;
  let md = Builtin.create_module () in
  Ircore.insert_at_end (Builtin.body_block md) f;
  md

let test_slot_missing_from_use_list () =
  List.iter
    (fun n ->
      match Verifier.verify ctx (module_with_unrecorded_slot n) with
      | Ok () -> Alcotest.fail "expected a use-list diagnostic"
      | Error ds ->
        Alcotest.(check (list string))
          (Fmt.str "value with %d recorded uses" ((2 * n) + 1))
          [
            "error: 'arith.addi': operand #1 missing from the use list of \
             its value";
          ]
          (diag_strings ds))
    (* 3 uses: the short scan; 13 uses: the long-list set *)
    [ 1; 6 ]

(* ------------------------------------------------------------------ *)
(* Differential: the linear verifier against the quadratic one          *)
(* ------------------------------------------------------------------ *)

(** Reference verifier with the direct quadratic checks: same-block order
    by walking [op_next] from the def to its user, and a scan of the
    value's whole use list per operand slot. It checks unreachable blocks
    too, which the mutated models do not have. Structure, terminator and
    symbol checks are shared. *)
module Reference = struct
  open Ircore

  let use_def top errors =
    walk_op top ~pre:(fun o ->
        Array.iteri
          (fun i v ->
            if
              not
                (List.exists (fun u -> u.u_op == o && u.u_index = i)
                   (value_uses v))
            then
              errors :=
                Verifier.diag o
                  "operand #%d missing from the use list of its value" i
                :: !errors)
          o.operands)

  let region_dominance r errors =
    let doms = Dominance.compute r in
    let in_region b =
      match b.b_parent with Some rr -> rr == r | None -> false
    in
    List.iter
      (fun b ->
        List.iter
          (fun op ->
            walk_op op ~pre:(fun user ->
                Array.iteri
                  (fun i v ->
                    let in_this_region =
                      match v.v_def with
                      | Block_arg (db, _) -> in_region db
                      | Op_result (dop, _) -> (
                        match dop.op_parent with
                        | Some db -> in_region db
                        | None -> false)
                    in
                    if
                      in_this_region
                      && not
                           (Dominance.value_dominates_op
                              ~before:is_before_in_block doms v user)
                    then
                      errors :=
                        Verifier.diag user
                          "operand #%d does not dominate this use" i
                        :: !errors)
                  user.operands))
          (block_ops b))
      (region_blocks r)

  let verify ctx top =
    let errors = ref [] in
    use_def top errors;
    walk_op top ~pre:(fun op ->
        Verifier.verify_op_structure ctx op errors;
        Verifier.verify_symbols ctx op errors;
        List.iter
          (fun r ->
            List.iter
              (fun b ->
                Verifier.verify_block_terminator ctx ~parent:op b errors)
              (region_blocks r);
            region_dominance r errors)
          op.regions);
    List.rev !errors
end

let diagnostics m =
  match Verifier.verify ctx m with Ok () -> [] | Error ds -> diag_strings ds

(* Seeded mutations that break dominance or use-list consistency; each
   returns [false] when the module offers no place to apply it. *)
let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Random.State.int rng (List.length xs)))

let same_block a b =
  match (a.Ircore.op_parent, b.Ircore.op_parent) with
  | Some x, Some y -> x == y
  | _ -> false

(* ops after [o] in its block, nearest first *)
let ops_after o =
  let rec go acc = function
    | None -> List.rev acc
    | Some x -> go (x :: acc) x.Ircore.op_next
  in
  go [] o.Ircore.op_next

let later_result rng o =
  pick rng (List.concat_map Ircore.results (ops_after o))

(* move an op above the def of one of its operands *)
let move_above_def rng ops =
  let cands =
    List.concat_map
      (fun o ->
        List.filter_map
          (fun v ->
            match Ircore.defining_op v with
            | Some d when same_block d o && d != o -> Some (o, d)
            | _ -> None)
          (Ircore.operands o))
      ops
  in
  match pick rng cands with
  | None -> false
  | Some (o, d) ->
    Ircore.move_before ~anchor:d o;
    true

(* point an operand at a value defined later in the user's block *)
let use_later_value rng ops =
  let cands = List.filter (fun o -> Ircore.num_operands o > 0) ops in
  match pick rng cands with
  | None -> false
  | Some o -> (
    match later_result rng o with
    | None -> false
    | Some v ->
      Ircore.set_operand o (Random.State.int rng (Ircore.num_operands o)) v;
      true)

(* point an operand inside a nested region at a value defined after the
   region's op *)
let nested_use_later_value rng ops =
  let cands =
    List.filter_map
      (fun o ->
        match Ircore.parent_op o with
        | Some p
          when Ircore.num_operands o > 0
               && p.Ircore.op_name <> "func.func"
               && p.Ircore.op_name <> "builtin.module" ->
          Some (o, p)
        | _ -> None)
      ops
  in
  match pick rng cands with
  | None -> false
  | Some (o, p) -> (
    match later_result rng p with
    | None -> false
    | Some v ->
      Ircore.set_operand o (Random.State.int rng (Ircore.num_operands o)) v;
      true)

(* overwrite an operand slot in place, bypassing the use lists *)
let unrecorded_slot rng ops =
  let cands = List.filter (fun o -> Ircore.num_operands o > 0) ops in
  match (pick rng cands, pick rng cands) with
  | Some o, Some donor ->
    o.Ircore.operands.(Random.State.int rng (Ircore.num_operands o)) <-
      Ircore.operand ~index:(Random.State.int rng (Ircore.num_operands donor))
        donor;
    true
  | _ -> false

(* the mutations that keep op order come first, so the parsed payload's
   blocks are checked both before and after they are reordered *)
let mutations =
  [
    ("use later value", use_later_value);
    ("nested use of later value", nested_use_later_value);
    ("unrecorded slot", unrecorded_slot);
    ("move above def", move_above_def);
  ]

let lowering_passes =
  lazy
    (match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
    | Ok ps -> ps
    | Error d -> Alcotest.fail (Diag.to_string d))

(* Mutations accumulate on one module per model and seed, so later rounds
   see blocks already reordered; after each, both verifiers must report
   the same diagnostics in the same order. As on the request path, the
   payload is parsed from text, which keeps op ids increasing along its
   blocks; lowering does not. *)
let differential ~lower () =
  List.iter
    (fun seed ->
      List.iter
        (fun spec ->
          let md =
            parse (Printer.op_to_string (Workloads.Models.build spec))
          in
          (if lower then
             let passes = Lazy.force lowering_passes in
             match Passes.Pass.run_pipeline ctx passes md with
             | Ok _ -> ()
             | Error d -> Alcotest.fail (Diag.to_string d));
          let rng = Random.State.make [| seed |] in
          List.iter
            (fun (what, mutate) ->
              for _ = 1 to 2 do
                let ops = ref [] in
                Ircore.walk_op md ~pre:(fun o -> ops := o :: !ops);
                let label =
                  Fmt.str "%s, seed %d: %s" spec.Workloads.Models.sp_name seed
                    what
                in
                if mutate rng (List.rev !ops) then begin
                  let expected = diag_strings (Reference.verify ctx md) in
                  if expected = [] && what <> "unrecorded slot" then
                    Alcotest.failf "%s: mutation broke nothing" label;
                  Alcotest.(check (list string)) label expected (diagnostics md)
                end
              done)
            mutations)
        Workloads.Models.paper_models)
    [ 42; 7 ]

let () =
  Alcotest.run "verifier"
    [
      ( "structure",
        [
          Alcotest.test_case "valid module" `Quick test_valid_module;
          Alcotest.test_case "missing terminator" `Quick test_missing_terminator;
          Alcotest.test_case "terminator not last" `Quick
            test_terminator_in_middle;
          Alcotest.test_case "wrong operand count" `Quick
            test_wrong_operand_count;
          Alcotest.test_case "same-type trait" `Quick test_same_type_trait;
          Alcotest.test_case "missing attribute" `Quick test_missing_attr;
          Alcotest.test_case "unregistered ops" `Quick test_unregistered_rejected;
          Alcotest.test_case "successors need terminators" `Quick
            test_successor_on_non_terminator;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "use before def" `Quick test_dominance_straightline;
          Alcotest.test_case "sibling branch use" `Quick test_dominance_cfg;
          Alcotest.test_case "diamond ok" `Quick test_dominance_cfg_ok;
          Alcotest.test_case "nested region uses outer" `Quick
            test_nested_region_uses_outer;
          Alcotest.test_case "nested region uses later outer" `Quick
            test_nested_region_uses_later_outer;
          Alcotest.test_case "unreachable block use" `Quick
            test_unreachable_block_use;
        ] );
      ( "use lists",
        [
          Alcotest.test_case "slot missing from use list" `Quick
            test_slot_missing_from_use_list;
        ] );
      ( "differential",
        [
          Alcotest.test_case "mutated payloads" `Quick
            (differential ~lower:false);
          Alcotest.test_case "mutated lowered models" `Quick
            (differential ~lower:true);
        ] );
      ( "symbols",
        [ Alcotest.test_case "redefinition" `Quick test_symbol_redefinition ] );
    ]
