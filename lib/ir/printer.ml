(** Printing of IR in MLIR's *generic* textual form, e.g.:

    {v
    %0 = "arith.constant"() {value = 42 : i32} : () -> i32
    "scf.for"(%lb, %ub, %step) ({
    ^bb0(%iv: index):
      ...
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    v}

    The printer assigns sequential names ([%0], [%1], ... and [^bb0], ...) in
    syntactic order; {!Parser} accepts arbitrary names, so print→parse
    round-trips preserve structure. *)

open Ircore

(** Names handed out during one print: value and block ids map to their
    print numbers. A naming is local to one call, so printing is
    domain-safe. *)
type naming = {
  values : int Util.Itbl.t;
  blocks : int Util.Itbl.t;
  mutable next_value : int;
  mutable next_block : int;
}

let fresh_naming () =
  { values = Util.Itbl.create 64; blocks = Util.Itbl.create 8; next_value = 0; next_block = 0 }

let value_number naming v =
  match Util.Itbl.find naming.values v.v_id with
  | n -> n
  | exception Not_found ->
    let n = naming.next_value in
    naming.next_value <- n + 1;
    Util.Itbl.replace naming.values v.v_id n;
    n

let block_number naming b =
  match Util.Itbl.find naming.blocks b.b_id with
  | n -> n
  | exception Not_found ->
    let n = naming.next_block in
    naming.next_block <- n + 1;
    Util.Itbl.replace naming.blocks b.b_id n;
    n

let add_value_name naming buf v =
  Buffer.add_char buf '%';
  Util.add_int buf (value_number naming v)

(** For an op result, the printed reference: [%2] or [%2#1] for result i>0 of
    a multi-result op, matching MLIR's group naming. *)
let add_value_ref naming buf v =
  match v.v_def with
  | Op_result (op, i) when Array.length op.results > 1 ->
    add_value_name naming buf op.results.(0);
    if i > 0 then begin
      Buffer.add_char buf '#';
      Util.add_int buf i
    end
  | _ -> add_value_name naming buf v

let add_block_name naming buf b =
  Buffer.add_string buf "^bb";
  Util.add_int buf (block_number naming b)

let value_name naming v = Util.string_of_writer (add_value_name naming) v
let value_ref naming v = Util.string_of_writer (add_value_ref naming) v
let block_name naming b = Util.string_of_writer (add_block_name naming) b

let add_pad buf indent =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

let add_array add buf xs =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      add buf x)
    xs

let add_value_typ buf v = Typ.add buf v.v_typ

let rec add_op ~locs naming ~indent buf op =
  add_pad buf indent;
  (* results *)
  (match Array.length op.results with
  | 0 -> ()
  | 1 ->
    add_value_name naming buf op.results.(0);
    Buffer.add_string buf " = "
  | n ->
    add_value_name naming buf op.results.(0);
    Buffer.add_char buf ':';
    Util.add_int buf n;
    Buffer.add_string buf " = ");
  Util.add_quoted buf op.op_name;
  Buffer.add_char buf '(';
  add_array (add_value_ref naming) buf op.operands;
  Buffer.add_char buf ')';
  (* successors *)
  if Array.length op.successors > 0 then begin
    Buffer.add_char buf '[';
    add_array (add_block_name naming) buf op.successors;
    Buffer.add_char buf ']'
  end;
  (* regions *)
  if op.regions <> [] then begin
    Buffer.add_string buf " (";
    Util.add_list (fun buf r -> add_region ~locs naming ~indent buf r) buf op.regions;
    Buffer.add_char buf ')'
  end;
  (* attributes *)
  if op.attrs <> [] then begin
    Buffer.add_string buf " {";
    Util.add_list
      (fun buf (k, v) ->
        Buffer.add_string buf k;
        match v with
        | Attr.Unit -> ()
        | _ ->
          Buffer.add_string buf " = ";
          Attr.add buf v)
      buf op.attrs;
    Buffer.add_char buf '}'
  end;
  (* type signature *)
  Buffer.add_string buf " : (";
  add_array add_value_typ buf op.operands;
  Buffer.add_string buf ") -> ";
  Typ.add_results buf (Array.fold_right (fun r ts -> r.v_typ :: ts) op.results []);
  if locs && op.op_loc <> Loc.Unknown then begin
    Buffer.add_char buf ' ';
    Loc.add buf op.op_loc
  end

and add_region ~locs naming ~indent buf r =
  Buffer.add_string buf "{\n";
  let blocks = region_blocks r in
  (* Pre-assign block names in order so forward branch references resolve. *)
  List.iter (fun b -> ignore (block_number naming b)) blocks;
  let multi = match blocks with _ :: _ :: _ -> true | _ -> false in
  List.iter
    (fun b ->
      if multi || Array.length b.b_args > 0 then begin
        add_pad buf indent;
        add_block_name naming buf b;
        if Array.length b.b_args > 0 then begin
          Buffer.add_char buf '(';
          add_array
            (fun buf a ->
              add_value_name naming buf a;
              Buffer.add_string buf ": ";
              Typ.add buf a.v_typ)
            buf b.b_args;
          Buffer.add_char buf ')'
        end;
        Buffer.add_string buf ":\n"
      end;
      let rec ops = function
        | None -> ()
        | Some op ->
          add_op ~locs naming ~indent:(indent + 2) buf op;
          Buffer.add_char buf '\n';
          ops op.op_next
      in
      ops b.b_first)
    blocks;
  add_pad buf indent;
  Buffer.add_char buf '}'

(** Print [op] in generic form with an existing naming, for printers
    (such as {!Pretty}) that fall back to the generic form. *)
let pp_op_with ?(locs = false) naming ~indent fmt op =
  let buf = Buffer.create 256 in
  add_op ~locs naming ~indent buf op;
  Format.pp_print_string fmt (Buffer.contents buf)

let to_string ~locs op =
  let buf = Buffer.create 4096 in
  add_op ~locs (fresh_naming ()) ~indent:0 buf op;
  Buffer.contents buf

let op_to_string op = to_string ~locs:false op

(** Generic form including [loc(...)] suffixes where known. *)
let op_to_string_locs op = to_string ~locs:true op

let pp_op fmt op = Format.pp_print_string fmt (op_to_string op)
