(** The TOSA → Linalg lowering pipeline of Case Study 1 (Table 1):
    the pass sequence used by the MLIR TensorFlow ecosystem to bring
    imported models down to structured linalg operations. *)

open Ir
open Dialects

let tensor_or t = t

(* ------------------------------------------------------------------ *)
(* tosa-optional-decompositions                                        *)
(* ------------------------------------------------------------------ *)

(** Decompose composite TOSA ops: fully_connected -> matmul + add;
    depthwise_conv2d stays (handled by named lowering). *)
let run_decompositions _ctx top =
  let rw = Rewriter.create () in
  Pass.for_each_op ~op_name:"tosa.fully_connected" top (fun op ->
      Rewriter.set_ip rw (Builder.Before op);
      match Ircore.operands op with
      | [ input; weights; bias ] ->
        let out_t = Ircore.value_typ (Ircore.result op) in
        let mm =
          Tosa.binary rw "tosa.matmul" input weights ~result_typ:out_t
        in
        let add = Tosa.binary rw "tosa.add" mm bias ~result_typ:out_t in
        Rewriter.replace_op rw op ~with_:[ add ]
      | [ input; weights ] ->
        let out_t = Ircore.value_typ (Ircore.result op) in
        let mm =
          Tosa.binary rw "tosa.matmul" input weights ~result_typ:out_t
        in
        Rewriter.replace_op rw op ~with_:[ mm ]
      | _ -> ());
  Ok ()

(* ------------------------------------------------------------------ *)
(* tosa-infer-shapes                                                   *)
(* ------------------------------------------------------------------ *)

(** Propagate static shapes: unranked results of elementwise ops take their
    operand's type. *)
let run_infer_shapes _ctx top =
  Ircore.walk_op top ~pre:(fun op ->
      if Ircore.op_dialect op = "tosa" && Ircore.num_results op = 1 then
        let r = Ircore.result op in
        match Ircore.value_typ r with
        | Typ.Unranked_tensor _ -> (
          match Ircore.operands op with
          | v :: _ -> (
            match Ircore.value_typ v with
            | Typ.Ranked_tensor _ as t -> r.Ircore.v_typ <- tensor_or t
            | _ -> ())
          | [] -> ())
        | _ -> ());
  Ok ()

(* ------------------------------------------------------------------ *)
(* tosa-to-linalg-named                                                *)
(* ------------------------------------------------------------------ *)

let named_lowering =
  [
    ("tosa.matmul", Linalg.batch_matmul_op);
    ("tosa.conv2d", Linalg.conv_2d_op);
    ("tosa.depthwise_conv2d", Linalg.conv_2d_op);
    ("tosa.max_pool2d", Linalg.pooling_op);
    ("tosa.avg_pool2d", Linalg.pooling_op);
    ("tosa.transpose", Linalg.transpose_op);
  ]

(** The ops below [top] whose names are in [names], collected in one walk:
    one list per name, in the order of [names], each in walk order. Lowering
    one bucket must not create or erase ops of a later one. *)
let ops_by_name names top =
  let buckets = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace buckets n (ref [])) names;
  Ircore.walk_op top ~pre:(fun op ->
      if not (op == top) then
        match Hashtbl.find_opt buckets op.Ircore.op_name with
        | Some l -> l := op :: !l
        | None -> ());
  List.map (fun n -> List.rev !(Hashtbl.find buckets n)) names

let run_to_linalg_named _ctx top =
  let rw = Rewriter.create () in
  List.iter2
    (fun (_, linalg_name) ops ->
      List.iter (fun op ->
          Rewriter.set_ip rw (Builder.Before op);
          let out_t = Ircore.value_typ (Ircore.result op) in
          (* out tensor initialized with fill 0 *)
          let zero = Dutil.const_float rw 0.0 in
          let empty =
            Rewriter.build1 rw ~result_types:[ out_t ] "tensor.empty"
          in
          let filled =
            Ircore.result (Linalg.fill rw ~value:zero ~dest:empty)
          in
          let new_op =
            Linalg.structured rw linalg_name ~ins:(Ircore.operands op)
              ~outs:[ filled ] ~result_types:[ out_t ]
          in
          Rewriter.replace_op rw op ~with_:(Ircore.results new_op))
        ops)
    named_lowering
    (ops_by_name (List.map fst named_lowering) top);
  Ok ()

(* ------------------------------------------------------------------ *)
(* tosa-to-linalg (elementwise and reductions -> linalg.generic)       *)
(* ------------------------------------------------------------------ *)

let arith_payload_of_tosa = function
  | "tosa.add" -> Some ("arith.addf", 2)
  | "tosa.sub" -> Some ("arith.subf", 2)
  | "tosa.mul" -> Some ("arith.mulf", 2)
  | "tosa.maximum" -> Some ("arith.maximumf", 2)
  | "tosa.minimum" -> Some ("arith.minimumf", 2)
  | "tosa.pow" -> Some ("math.pow", 2)
  | "tosa.abs" -> Some ("math.absf", 1)
  | "tosa.exp" -> Some ("math.exp", 1)
  | "tosa.log" -> Some ("math.log", 1)
  | "tosa.tanh" -> Some ("math.tanh", 1)
  | "tosa.sigmoid" -> Some ("math.sigmoid", 1)
  | "tosa.rsqrt" -> Some ("math.rsqrt", 1)
  | "tosa.erf" -> Some ("math.erf", 1)
  | "tosa.floor" -> Some ("math.floor", 1)
  | "tosa.ceil" -> Some ("math.ceil", 1)
  | "tosa.negate" -> Some ("arith.negf", 1)
  (* reciprocal and clamp pair the value with a payload-local constant:
     1.0 / x, and max(x, 0.0) (the relu-shaped clamp of these graphs) *)
  | "tosa.reciprocal" -> Some ("arith.divf", 1)
  | "tosa.clamp" -> Some ("arith.maximumf", 1)
  | "tosa.cast" | "tosa.rescale" -> Some ("arith.truncf", 1)
  | _ -> None

let run_to_linalg _ctx top =
  let rw = Rewriter.create () in
  Pass.for_each top
    ~p:(fun op ->
      Ircore.op_dialect op = "tosa"
      && Option.is_some (arith_payload_of_tosa op.Ircore.op_name))
    (fun op ->
      let payload_name, _arity =
        Option.get (arith_payload_of_tosa op.Ircore.op_name)
      in
      Rewriter.set_ip rw (Builder.Before op);
      let out_t = Ircore.value_typ (Ircore.result op) in
      let empty = Rewriter.build1 rw ~result_types:[ out_t ] "tensor.empty" in
      let ins = Ircore.operands op in
      let generic =
        Linalg.generic rw ~ins ~outs:[ empty ] ~result_types:[ out_t ]
          (fun brw args ->
            let scalar_args = List.filteri (fun i _ -> i < List.length ins) args in
            let binary a b =
              Rewriter.build1 brw ~operands:[ a; b ]
                ~result_types:[ Ircore.value_typ a ]
                payload_name
            in
            let payload =
              match (op.Ircore.op_name, scalar_args) with
              | "tosa.reciprocal", [ a ] ->
                let one =
                  Dutil.const_float brw ~typ:(Ircore.value_typ a) 1.0
                in
                binary one a
              | "tosa.clamp", [ a ] ->
                let zero =
                  Dutil.const_float brw ~typ:(Ircore.value_typ a) 0.0
                in
                binary a zero
              | _, [ a ] ->
                Rewriter.build1 brw ~operands:[ a ]
                  ~result_types:[ Ircore.value_typ a ]
                  payload_name
              | _, [ a; b ] -> binary a b
              | _ -> failwith "unexpected payload arity"
            in
            [ payload ])
      in
      Rewriter.replace_op rw op ~with_:(Ircore.results generic));
  (* reductions *)
  Pass.for_each top
    ~p:(fun op ->
      List.mem op.Ircore.op_name Tosa.reductions
      && Ircore.op_parent op <> None)
    (fun op ->
      Rewriter.set_ip rw (Builder.Before op);
      let out_t = Ircore.value_typ (Ircore.result op) in
      let empty = Rewriter.build1 rw ~result_types:[ out_t ] "tensor.empty" in
      let red =
        Rewriter.build rw
          ~operands:(Ircore.operands op @ [ empty ])
          ~result_types:[ out_t ]
          ~regions:[ Ircore.single_block_region () ]
          Linalg.reduce_op
      in
      (* payload: combiner *)
      (match red.Ircore.regions with
      | [ r ] -> (
        match Ircore.region_first_block r with
        | Some b ->
          let a1 = Ircore.add_block_arg b Typ.f32 in
          let a2 = Ircore.add_block_arg b Typ.f32 in
          let brw = Dutil.rw_at_end b in
          let combined = Arith.addf brw a1 a2 in
          ignore (Rewriter.build brw ~operands:[ combined ] "linalg.yield")
        | None -> ())
      | _ -> ());
      Rewriter.replace_op rw op ~with_:(Ircore.results red));
  Ok ()

(* ------------------------------------------------------------------ *)
(* tosa-to-arith / tosa-to-tensor                                      *)
(* ------------------------------------------------------------------ *)

let run_to_arith _ctx top =
  let rw = Rewriter.create () in
  Pass.for_each_op ~op_name:Tosa.const_op top (fun op ->
      Rewriter.set_ip rw (Builder.Before op);
      let v =
        match Ircore.attr op "value" with
        | Some a -> a
        | None -> Attr.Float (0.0, Typ.f32)
      in
      let c =
        Arith.constant rw v (Ircore.value_typ (Ircore.result op))
      in
      Rewriter.replace_op rw op ~with_:[ c ]);
  Ok ()

let tensor_lowered =
  [ "tosa.reshape"; "tosa.concat"; "tosa.pad"; "tosa.slice"; "tosa.gather"; "tosa.tile" ]

let run_to_tensor _ctx top =
  let rw = Rewriter.create () in
  List.iter2
    (fun name ops ->
      List.iter (fun op ->
          Rewriter.set_ip rw (Builder.Before op);
          let new_op =
            Rewriter.build rw ~operands:(Ircore.operands op)
              ~result_types:
                (List.map Ircore.value_typ (Ircore.results op))
              ~attrs:op.Ircore.attrs
              ("tensor."
              ^ snd (Util.split_op_name name))
          in
          Rewriter.replace_op rw op ~with_:(Ircore.results new_op))
        ops)
    tensor_lowered
    (ops_by_name tensor_lowered top);
  Ok ()

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let o = Opset.exact
let d = Opset.dialect

let register () =
  Pass.register
    (Pass.make ~name:"tosa-optional-decompositions" ~function_parallel:true
       ~summary:"decompose composite TOSA ops"
       ~pre:[ o "tosa.fully_connected" ]
       ~post:[ o "tosa.matmul"; o "tosa.add" ]
       run_decompositions);
  Pass.register
    (Pass.make ~name:"tosa-infer-shapes" ~function_parallel:true ~summary:"propagate static shapes"
       ~pre:[] ~post:[] run_infer_shapes);
  Pass.register
    (Pass.make ~name:"tosa-to-linalg-named" ~function_parallel:true
       ~summary:"lower structured TOSA ops to named linalg ops"
       ~pre:(List.map (fun (name, _) -> o name) named_lowering)
       ~post:
         [
           o Linalg.batch_matmul_op; o Linalg.conv_2d_op; o Linalg.pooling_op;
           o Linalg.transpose_op; o Linalg.fill_op; o "tensor.empty";
           o "arith.constant";
         ]
       run_to_linalg_named);
  Pass.register
    (Pass.make ~name:"tosa-to-linalg" ~function_parallel:true
       ~summary:"lower elementwise TOSA ops to linalg.generic"
       (* precise consumed set (not the {tosa.*} wildcard): the pass handles
          only the elementwise and reduction ops, so declaring more would
          make the dynamic condition checker reject the accurate
          implementation *)
       ~pre:
         (List.map o
            (Tosa.elementwise_binary @ Tosa.elementwise_unary @ Tosa.reductions))
       ~post:
         [
           o Linalg.generic_op; o Linalg.reduce_op; o "tensor.empty";
           d "math"; o "arith.addf"; o "arith.subf"; o "arith.mulf";
           o "arith.divf"; o "arith.maximumf"; o "arith.minimumf";
           o "arith.negf"; o "arith.truncf"; o "linalg.yield";
         ]
       run_to_linalg);
  Pass.register
    (Pass.make ~name:"tosa-to-arith" ~function_parallel:true ~summary:"lower tosa.const to arith"
       ~pre:[ o "tosa.const" ]
       ~post:[ o "arith.constant" ]
       run_to_arith);
  Pass.register
    (Pass.make ~name:"tosa-to-tensor" ~function_parallel:true
       ~summary:"lower TOSA shape ops to the tensor dialect"
       ~pre:(List.map o tensor_lowered)
       ~post:[ d "tensor" ]
       run_to_tensor)
