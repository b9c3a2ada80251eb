(* The Buffer printer against the Format printer it replaced, byte for
   byte. The reference below is that printer, kept verbatim: its types,
   attributes, locations and affine maps print through [Format], and affine
   maps separate with a break hint. The one intended difference is that
   hint: where [Format] broke a long map over lines (",\n"), the Buffer
   printer always writes ", ". *)

open Ir
open Testutil

module Reference = struct
  open Ircore

  let pp_list ?(sep = ", ") pp_elt fmt xs =
    Fmt.(list ~sep:(fun fmt () -> Fmt.string fmt sep) pp_elt) fmt xs

  module Affine_pp = struct
    open Affine

    let rec pp_expr fmt = function
      | Dim i -> Fmt.pf fmt "d%d" i
      | Sym i -> Fmt.pf fmt "s%d" i
      | Const c -> Fmt.int fmt c
      | Add (a, Const c) when c < 0 -> Fmt.pf fmt "%a - %d" pp_expr a (-c)
      | Add (a, b) -> Fmt.pf fmt "%a + %a" pp_expr a pp_expr b
      | Mul (a, b) -> Fmt.pf fmt "%a * %a" pp_atom a pp_atom b
      | Mod (a, b) -> Fmt.pf fmt "%a mod %a" pp_atom a pp_atom b
      | Floordiv (a, b) -> Fmt.pf fmt "%a floordiv %a" pp_atom a pp_atom b
      | Ceildiv (a, b) -> Fmt.pf fmt "%a ceildiv %a" pp_atom a pp_atom b

    and pp_atom fmt e =
      match e with
      | Dim _ | Sym _ | Const _ -> pp_expr fmt e
      | _ -> Fmt.pf fmt "(%a)" pp_expr e

    let pp_map fmt m =
      let dims = List.init m.num_dims (fun i -> Fmt.str "d%d" i) in
      let syms = List.init m.num_syms (fun i -> Fmt.str "s%d" i) in
      Fmt.pf fmt "(%a)" Fmt.(list ~sep:comma string) dims;
      if m.num_syms > 0 then Fmt.pf fmt "[%a]" Fmt.(list ~sep:comma string) syms;
      Fmt.pf fmt " -> (%a)" (pp_list pp_expr) m.exprs
  end

  module Typ_pp = struct
    open Typ

    let pp_float_kind fmt = function
      | F16 -> Fmt.string fmt "f16"
      | BF16 -> Fmt.string fmt "bf16"
      | F32 -> Fmt.string fmt "f32"
      | F64 -> Fmt.string fmt "f64"

    let pp_dim fmt = function
      | Static n -> Fmt.int fmt n
      | Dynamic -> Fmt.string fmt "?"

    let pp_shape_prefix fmt dims =
      List.iter (fun d -> Fmt.pf fmt "%ax" pp_dim d) dims

    let rec pp fmt = function
      | Integer n -> Fmt.pf fmt "i%d" n
      | Index -> Fmt.string fmt "index"
      | Float k -> pp_float_kind fmt k
      | Vector (ns, t) ->
        Fmt.pf fmt "vector<%a%a>"
          (fun fmt -> List.iter (Fmt.pf fmt "%dx"))
          ns pp t
      | Ranked_tensor (dims, t) ->
        Fmt.pf fmt "tensor<%a%a>" pp_shape_prefix dims pp t
      | Unranked_tensor t -> Fmt.pf fmt "tensor<*x%a>" pp t
      | Memref (dims, t, layout) -> (
        match layout with
        | Identity -> Fmt.pf fmt "memref<%a%a>" pp_shape_prefix dims pp t
        | Strided { offset; strides } ->
          Fmt.pf fmt "memref<%a%a, strided<[%a], offset: %a>>" pp_shape_prefix
            dims pp t (pp_list pp_dim) strides pp_dim offset
        | Affine_layout m ->
          Fmt.pf fmt "memref<%a%a, affine_map<%a>>" pp_shape_prefix dims pp t
            Affine_pp.pp_map m)
      | Unranked_memref t -> Fmt.pf fmt "memref<*x%a>" pp t
      | Func (ins, outs) ->
        Fmt.pf fmt "(%a) -> " (pp_list pp) ins;
        (match outs with
        | [ (Func _ as o) ] -> Fmt.pf fmt "(%a)" pp o
        | [ o ] -> pp fmt o
        | outs -> Fmt.pf fmt "(%a)" (pp_list pp) outs)
      | Tuple ts -> Fmt.pf fmt "tuple<%a>" (pp_list pp) ts
      | Opaque (dialect, body) ->
        if body = "" then Fmt.pf fmt "!%s" dialect
        else Fmt.pf fmt "!%s.%s" dialect body
  end

  module Attr_pp = struct
    open Attr

    let rec pp fmt = function
      | Unit -> Fmt.string fmt "unit"
      | Bool b -> Fmt.bool fmt b
      | Int (v, Typ.Index) -> Fmt.pf fmt "%d : index" v
      | Int (v, t) -> Fmt.pf fmt "%d : %a" v Typ_pp.pp t
      | Float (v, t) -> Fmt.pf fmt "%h : %a" v Typ_pp.pp t
      | String s -> Fmt.pf fmt "%S" s
      | Type t -> Typ_pp.pp fmt t
      | Array xs -> Fmt.pf fmt "[%a]" (pp_list pp) xs
      | Int_array xs -> Fmt.pf fmt "array<i64: %a>" (pp_list Fmt.int) xs
      | Dense_int (xs, t) ->
        Fmt.pf fmt "dense<[%a]> : %a" (pp_list Fmt.int) xs Typ_pp.pp t
      | Dense_float (xs, t) ->
        Fmt.pf fmt "dense<[%a]> : %a" (pp_list Fmt.float) xs Typ_pp.pp t
      | Dict kvs ->
        Fmt.pf fmt "{%a}"
          (pp_list (fun fmt (k, v) -> Fmt.pf fmt "%s = %a" k pp v))
          kvs
      | Symbol_ref (root, nested) ->
        Fmt.pf fmt "@%s" root;
        List.iter (Fmt.pf fmt "::@%s") nested
      | Affine_map m -> Fmt.pf fmt "affine_map<%a>" Affine_pp.pp_map m
  end

  module Loc_pp = struct
    open Loc

    let rec pp fmt = function
      | Unknown -> Fmt.string fmt "loc(unknown)"
      | File { file; line; col } -> Fmt.pf fmt "loc(%S:%d:%d)" file line col
      | Name (n, Unknown) -> Fmt.pf fmt "loc(%S)" n
      | Name (n, child) -> Fmt.pf fmt "loc(%S at %a)" n pp child
      | Fused locs -> Fmt.pf fmt "loc(fused[%a])" (pp_list pp) locs
  end

  type naming = {
    values : (int, string) Hashtbl.t;
    blocks : (int, string) Hashtbl.t;
    mutable next_value : int;
    mutable next_block : int;
  }

  let fresh_naming () =
    { values = Hashtbl.create 64; blocks = Hashtbl.create 8; next_value = 0; next_block = 0 }

  let value_name naming v =
    match Hashtbl.find_opt naming.values v.v_id with
    | Some n -> n
    | None ->
      let n = Fmt.str "%%%d" naming.next_value in
      naming.next_value <- naming.next_value + 1;
      Hashtbl.replace naming.values v.v_id n;
      n

  let value_ref naming v =
    match v.v_def with
    | Op_result (op, i) when Array.length op.results > 1 ->
      let base = value_name naming op.results.(0) in
      if i = 0 then base else Fmt.str "%s#%d" base i
    | _ -> value_name naming v

  let block_name naming b =
    match Hashtbl.find_opt naming.blocks b.b_id with
    | Some n -> n
    | None ->
      let n = Fmt.str "^bb%d" naming.next_block in
      naming.next_block <- naming.next_block + 1;
      Hashtbl.replace naming.blocks b.b_id n;
      n

  let rec pp_op_with ?(locs = false) naming ~indent fmt op =
    let pad = String.make indent ' ' in
    Fmt.string fmt pad;
    (match Array.length op.results with
    | 0 -> ()
    | 1 -> Fmt.pf fmt "%s = " (value_name naming op.results.(0))
    | n -> Fmt.pf fmt "%s:%d = " (value_name naming op.results.(0)) n);
    Fmt.pf fmt "%S(" op.op_name;
    Fmt.string fmt
      (String.concat ", "
         (List.map (value_ref naming) (Array.to_list op.operands)));
    Fmt.string fmt ")";
    if Array.length op.successors > 0 then begin
      Fmt.string fmt "[";
      Fmt.string fmt
        (String.concat ", "
           (List.map (block_name naming) (Array.to_list op.successors)));
      Fmt.string fmt "]"
    end;
    if op.regions <> [] then begin
      Fmt.string fmt " (";
      List.iteri
        (fun i r ->
          if i > 0 then Fmt.string fmt ", ";
          pp_region_with ~locs naming ~indent fmt r)
        op.regions;
      Fmt.string fmt ")"
    end;
    if op.attrs <> [] then begin
      Fmt.string fmt " {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Fmt.string fmt ", ";
          match v with
          | Attr.Unit -> Fmt.string fmt k
          | _ -> Fmt.pf fmt "%s = %a" k Attr_pp.pp v)
        op.attrs;
      Fmt.string fmt "}"
    end;
    let operand_types =
      List.map (fun v -> v.v_typ) (Array.to_list op.operands)
    in
    let result_types = List.map (fun v -> v.v_typ) (Array.to_list op.results) in
    Fmt.pf fmt " : (%a) -> " (pp_list Typ_pp.pp) operand_types;
    (match result_types with
    | [ (Typ.Func _ as t) ] -> Fmt.pf fmt "(%a)" Typ_pp.pp t
    | [ t ] -> Typ_pp.pp fmt t
    | ts -> Fmt.pf fmt "(%a)" (pp_list Typ_pp.pp) ts);
    if locs && op.op_loc <> Loc.Unknown then Fmt.pf fmt " %a" Loc_pp.pp op.op_loc

  and pp_region_with ?(locs = false) naming ~indent fmt r =
    Fmt.string fmt "{\n";
    let blocks = region_blocks r in
    List.iter (fun b -> ignore (block_name naming b)) blocks;
    let multi = List.length blocks > 1 in
    List.iter
      (fun b ->
        if multi || Array.length b.b_args > 0 then begin
          Fmt.pf fmt "%s%s" (String.make indent ' ') (block_name naming b);
          if Array.length b.b_args > 0 then begin
            Fmt.string fmt "(";
            Array.iteri
              (fun i a ->
                if i > 0 then Fmt.string fmt ", ";
                Fmt.pf fmt "%s: %a" (value_name naming a) Typ_pp.pp a.v_typ)
              b.b_args;
            Fmt.string fmt ")"
          end;
          Fmt.string fmt ":\n"
        end;
        List.iter
          (fun op ->
            pp_op_with ~locs naming ~indent:(indent + 2) fmt op;
            Fmt.string fmt "\n")
          (block_ops b))
      blocks;
    Fmt.pf fmt "%s}" (String.make indent ' ')

  let op_to_string ~locs op =
    Fmt.str "%a" (pp_op_with ~locs (fresh_naming ()) ~indent:0) op
end

(* where [Format] broke an affine map's separator, the new printer keeps
   ", "; generic-form lines never otherwise end in a comma *)
let unwrap s = Str.global_replace (Str.regexp_string ",\n") ", " s

let check_same label ~locs md =
  let expected = unwrap (Reference.op_to_string ~locs md) in
  let got =
    if locs then Printer.op_to_string_locs md else Printer.op_to_string md
  in
  if not (String.equal expected got) then
    Alcotest.failf "%s (locs=%b): printers differ" label locs

(* every op gets a location, cycling through the location forms, with
   file names that need escaping *)
let stamp_locations md =
  let i = ref 0 in
  Ircore.walk_op md ~pre:(fun op ->
      incr i;
      let file = Loc.file ~line:!i ~col:(!i mod 7) (Fmt.str "m\"%d\\.py" (!i mod 3)) in
      op.Ircore.op_loc <-
        (match !i mod 5 with
        | 0 -> Loc.Unknown
        | 1 -> file
        | 2 -> Loc.name (Fmt.str "n%d" !i)
        | 3 -> Loc.name ~child:file "fused\top"
        | _ -> Loc.Fused [ file; Loc.name "x"; Loc.Unknown ]))

let check_both label md =
  check_same label ~locs:false md;
  check_same label ~locs:true md;
  stamp_locations md;
  check_same (label ^ ", stamped") ~locs:true md

let lower label md =
  match
    Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str
  with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok passes -> (
    match Passes.Pass.run_pipeline ctx passes md with
    | Ok _ -> ()
    | Error d -> Alcotest.failf "%s: %s" label (Diag.to_string d))

let test_models () =
  List.iter
    (fun spec ->
      let name = spec.Workloads.Models.sp_name in
      let md = Workloads.Models.build spec in
      check_both (name ^ " input") md;
      let md = Workloads.Models.build spec in
      lower name md;
      check_both (name ^ " lowered") md)
    Workloads.Models.paper_models

let test_fuzz_modules () =
  List.iter
    (fun seed ->
      for case = 0 to 99 do
        check_both
          (Fmt.str "fuzz seed %d case %d" seed case)
          (Fuzz.Driver.module_for ~seed ~case ())
      done)
    [ 42; 7 ]

(* one op per attribute and type form, some in a multi-block region with
   successors, block arguments and a multi-result op *)
let test_every_form () =
  let open Typ in
  let short_map =
    Affine.make_map ~num_dims:2 ~num_syms:1
      Affine.
        [
          Add (Dim 0, Const (-2));
          Mod (Add (Dim 1, Sym 0), Const 4);
          Floordiv (Mul (Dim 0, Const 3), Sym 0);
          Ceildiv (Dim 1, Const 8);
        ]
  in
  let types =
    [
      i1; i64; index; f16; bf16; f32; f64;
      Vector ([ 4; 8 ], f32);
      tensor [ Static 2; Dynamic ] f32;
      Unranked_tensor i8;
      memref [ Static 4; Dynamic ] f32;
      memref ~layout:(Strided { offset = Dynamic; strides = [ Static 4; Dynamic ] })
        [ Static 4; Static 4 ] f64;
      memref ~layout:(Affine_layout short_map) [ Static 4 ] f32;
      Unranked_memref i32;
      Func ([ i32; f32 ], [ Func ([], [ i1 ]) ]);
      Func ([], [ i32; i64 ]);
      Func ([ index ], []);
      Tuple [ i32; tensor [ Static 1 ] f32 ];
      Tuple [];
      transform_any_op; Opaque ("empty", ""); transform_op "scf.for";
    ]
  in
  let attrs =
    [
      ("u", Attr.Unit); ("t", Attr.Bool true); ("f", Attr.Bool false);
      ("i", Attr.int (-42)); ("ix", Attr.index 7);
      ("fl", Attr.float ~typ:f32 0.1); ("neg", Attr.float (-1e-30));
      ("s", Attr.str "tab\there \"quoted\" \\ \xff");
      ("arr", Attr.Array [ Attr.int 1; Attr.Array []; Attr.str "" ]);
      ("ia", Attr.Int_array [ 1; -2; 3 ]); ("iae", Attr.Int_array []);
      ("di", Attr.Dense_int ([ 1; 2; -3 ], tensor [ Static 3 ] i32));
      ("df", Attr.Dense_float ([ 0.1; 1e-30; 3.141592653589793; -2.0 ], tensor [ Static 4 ] f32));
      ("d", Attr.Dict [ ("a", Attr.int 1); ("b", Attr.Dict []) ]);
      ("sym", Attr.Symbol_ref ("root", [ "a"; "b" ])); ("sym0", Attr.symbol "f");
      ("m", Attr.Affine_map short_map);
    ]
    @ List.mapi (fun i t -> (Fmt.str "ty%d" i, Attr.typ t)) types
  in
  let entry = Ircore.create_block ~args:types () in
  let exit = Ircore.create_block ~args:[ i32 ] () in
  let region = Ircore.create_region () in
  Ircore.append_block region entry;
  Ircore.append_block region exit;
  let multi =
    Ircore.create ~operands:(Ircore.block_args entry) ~result_types:[ i32; f32; Func ([], []) ]
      ~attrs "test.multi"
  in
  Ircore.insert_at_end entry multi;
  Ircore.insert_at_end entry
    (Ircore.create
       ~operands:[ Ircore.result ~index:1 multi; Ircore.result ~index:0 multi ]
       ~successors:[ exit; entry ] "test.br");
  Ircore.insert_at_end exit
    (Ircore.create ~operands:[ Ircore.block_arg exit 0 ] ~result_types:[ Func ([ i1 ], [ f32 ]) ] "test.one");
  let top = Ircore.create ~regions:[ region; Ircore.single_block_region () ] "test.top" in
  check_both "every form" top

(* the one allowed difference, on the maps that trigger it *)
let test_affine_wrap_is_the_difference () =
  let op =
    Ircore.create
      ~attrs:[ ("map", Attr.Affine_map (Affine.identity_map 12)) ]
      ~result_types:
        [
          Typ.memref
            ~layout:
              (Typ.Affine_layout
                 (Affine.make_map ~num_dims:12 ~num_syms:2
                    [ Affine.Add (Affine.Mul (Affine.Dim 11, Affine.Sym 1), Affine.Const (-3)) ]))
            (Typ.static_dims [ 4; 4 ]) Typ.f32;
        ]
      "test.op"
  in
  let reference = Reference.op_to_string ~locs:false op in
  check cb "the reference wraps" true (String.contains reference '\n');
  check Alcotest.string "same text once unwrapped" (unwrap reference)
    (Printer.op_to_string op)

let () =
  Alcotest.run "printer"
    [
      ( "differential",
        [
          Alcotest.test_case "Table-1 models, input and lowered" `Quick
            test_models;
          Alcotest.test_case "fuzz modules, seeds 42 and 7" `Quick
            test_fuzz_modules;
          Alcotest.test_case "every attribute and type form" `Quick
            test_every_form;
          Alcotest.test_case "affine wrap is the one difference" `Quick
            test_affine_wrap_is_the_difference;
        ] );
    ]
