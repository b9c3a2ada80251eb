(* Use lists against a model of their list semantics. Seeded random
   sequences of IR mutations run on the real IR and, beside it, on a model
   that keeps each value's uses as a plain list: adding a use prepends,
   removing one keeps the order of the rest, and replace-all-uses moves
   uses one by one, in list order, to the head of the new value's list.
   After every step each value's [value_uses] must equal the model's list
   in order, every op's operands the model's slots, and the verifier must
   report no use-def error. *)

open Ir
open Testutil

module Model = struct
  type t = {
    slots : (int, Ircore.value array) Hashtbl.t;  (** op id -> operands *)
    uses : (int, (Ircore.op * int) list) Hashtbl.t;  (** value id -> uses *)
  }

  let create () = { slots = Hashtbl.create 64; uses = Hashtbl.create 64 }
  let slots m (op : Ircore.op) = Hashtbl.find m.slots op.op_id

  let uses m (v : Ircore.value) =
    Option.value ~default:[] (Hashtbl.find_opt m.uses v.v_id)

  let add m v u = Hashtbl.replace m.uses v.Ircore.v_id (u :: uses m v)

  let remove m v (op, i) =
    Hashtbl.replace m.uses v.Ircore.v_id
      (List.filter (fun (o, j) -> not (o == op && j = i)) (uses m v))

  let created m op operands =
    Hashtbl.replace m.slots op.Ircore.op_id operands;
    Array.iteri (fun i v -> add m v (op, i)) operands

  let set_operand m op i v =
    let s = slots m op in
    let old = s.(i) in
    if not (old == v) then begin
      remove m old (op, i);
      s.(i) <- v;
      add m v (op, i)
    end

  let set_operands m op vs =
    Array.iteri (fun i v -> remove m v (op, i)) (slots m op);
    created m op vs

  let replace_all_uses m v w =
    if not (v == w) then begin
      let us = uses m v in
      Hashtbl.replace m.uses v.Ircore.v_id [];
      List.iter
        (fun (o, i) ->
          (slots m o).(i) <- w;
          add m w (o, i))
        us
    end

  (* drop the slots of [op] and of every op nested in it *)
  let drop m op =
    Ircore.walk_op op ~pre:(fun o ->
        Array.iteri (fun i v -> remove m v (o, i)) (slots m o);
        Hashtbl.replace m.slots o.Ircore.op_id [||])

  (* [cloned_op] is a fresh clone of [orig]. Cloning maps the op's
     operands, clones the nested ops (each the same way), then creates the
     op; then every level remaps its nested forward references slot by
     slot. *)
  let rec cloned m mapped orig cloned_op =
    let lookup v =
      Option.value ~default:v (Hashtbl.find_opt mapped v.Ircore.v_id)
    in
    let operands = Array.map lookup (slots m orig) in
    List.iter2
      (fun r r' ->
        let bs = Ircore.region_blocks r and bs' = Ircore.region_blocks r' in
        List.iter2
          (fun b b' ->
            Array.iteri
              (fun i a ->
                Hashtbl.replace mapped a.Ircore.v_id (Ircore.block_arg b' i))
              b.Ircore.b_args)
          bs bs';
        List.iter2
          (fun b b' ->
            List.iter2 (cloned m mapped) (Ircore.block_ops b)
              (Ircore.block_ops b'))
          bs bs')
      orig.Ircore.regions cloned_op.Ircore.regions;
    created m cloned_op operands;
    Array.iteri
      (fun i r -> Hashtbl.replace mapped r.Ircore.v_id (Ircore.result ~index:i cloned_op))
      orig.Ircore.results;
    List.iter
      (Ircore.walk_region ~post:ignore ~pre:(fun n ->
           Array.iteri
             (fun i v ->
               let v' = lookup v in
               if not (v == v') then set_operand m n i v')
             (slots m n)))
      cloned_op.Ircore.regions
end

type world = {
  top : Ircore.op;
  body : Ircore.block;
  model : Model.t;
  mutable values : Ircore.value list;
  mutable ops : Ircore.op list;  (** every op ever created *)
}

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Random.State.int rng (List.length xs)))

let attached w =
  let acc = ref [] in
  Ircore.walk_op w.top ~pre:(fun o -> if not (o == w.top) then acc := o :: !acc);
  List.rev !acc

(* half the picks come from the first few values, so some values gather
   many uses *)
let any_value rng w =
  let hot = List.filteri (fun i _ -> i < 4) w.values in
  Option.get (pick rng (if Random.State.bool rng then hot else w.values))

(* one slot in three repeats the previous operand, so ops often use one
   value twice *)
let random_operands rng w =
  let n = Random.State.int rng 4 in
  let rec go i prev acc =
    if i = n then Array.of_list (List.rev acc)
    else
      let v =
        match prev with
        | Some p when Random.State.int rng 3 = 0 -> p
        | _ -> any_value rng w
      in
      go (i + 1) (Some v) (v :: acc)
  in
  go 0 None []

let record w op =
  w.ops <- op :: w.ops;
  w.values <- w.values @ Ircore.results op

(* an op of 0-2 results; one in three carries a region whose block has
   an argument and a nested op *)
let make_op rng w =
  let regions =
    if Random.State.int rng 3 = 0 then begin
      let r = Ircore.single_block_region ~args:[ Typ.i32 ] () in
      let b = Option.get (Ircore.region_first_block r) in
      w.values <- w.values @ Ircore.block_args b;
      let nested_operands = random_operands rng w in
      let nested =
        Ircore.create ~operands:(Array.to_list nested_operands)
          ~result_types:[ Typ.i32 ] "t.nested"
      in
      Model.created w.model nested nested_operands;
      record w nested;
      Ircore.insert_at_end b nested;
      [ r ]
    end
    else []
  in
  let operands = random_operands rng w in
  let op =
    Ircore.create ~operands:(Array.to_list operands) ~regions
      ~result_types:(List.init (Random.State.int rng 3) (fun _ -> Typ.i32))
      "t.op"
  in
  Model.created w.model op operands;
  record w op;
  Ircore.insert_at_end w.body op

let step rng w =
  let any_op () = pick rng (attached w) in
  let any_value () = any_value rng w in
  match Random.State.int rng 8 with
  | 0 -> make_op rng w
  | 1 -> (
    match any_op () with
    | Some op when Ircore.num_operands op > 0 ->
      let i = Random.State.int rng (Ircore.num_operands op) in
      let v = any_value () in
      Ircore.set_operand op i v;
      Model.set_operand w.model op i v
    | _ -> ())
  | 2 -> (
    match any_op () with
    | Some op ->
      let vs = random_operands rng w in
      Ircore.set_operands op (Array.to_list vs);
      Model.set_operands w.model op vs
    | None -> ())
  | 3 ->
    let v = any_value () and with_ = any_value () in
    Ircore.replace_all_uses_with v ~with_;
    Model.replace_all_uses w.model v with_
  | 4 -> (
    match any_op () with
    | Some op -> (
      match Ircore.erase op with
      | () -> Model.drop w.model op
      | exception Ircore.Has_live_uses _ -> ())
    | None -> ())
  | 5 -> (
    match any_op () with
    | Some op ->
      Model.drop w.model op;
      Ircore.erase_unchecked op
    | None -> ())
  | 6 -> (
    match any_op () with
    | Some op ->
      let c = Ircore.clone_op op in
      Model.cloned w.model (Hashtbl.create 8) op c;
      Ircore.walk_op c ~pre:(fun o ->
          w.ops <- o :: w.ops;
          w.values <- w.values @ Ircore.results o;
          List.iter
            (fun r ->
              List.iter
                (fun b -> w.values <- w.values @ Ircore.block_args b)
                (Ircore.region_blocks r))
            o.Ircore.regions);
      Ircore.insert_at_end w.body c
    | None -> ())
  | _ -> (
    match any_op () with
    | Some op ->
      Model.drop w.model op;
      Ircore.drop_all_references op
    | None -> ())

let key (op, i) = (op.Ircore.op_id, i)

let check_world label w =
  List.iter
    (fun v ->
      let got = List.map (fun u -> key (u.Ircore.u_op, u.Ircore.u_index)) (Ircore.value_uses v) in
      let want = List.map key (Model.uses w.model v) in
      let pp = Fmt.(Dump.list (Dump.pair int int)) in
      if got <> want then
        Alcotest.failf "%s: uses of value %d are %a, the model has %a" label
          v.Ircore.v_id pp got pp want;
      if Ircore.num_uses v <> List.length want then
        Alcotest.failf "%s: num_uses of value %d" label v.Ircore.v_id;
      if Ircore.has_one_use v <> (List.length want = 1) then
        Alcotest.failf "%s: has_one_use of value %d" label v.Ircore.v_id)
    w.values;
  List.iter
    (fun op ->
      let want = Model.slots w.model op in
      if
        not
          (Array.length want = Ircore.num_operands op
          && Array.for_all2 ( == ) want op.Ircore.operands)
      then Alcotest.failf "%s: operands of op %d" label op.Ircore.op_id)
    w.ops;
  let use_def_errors =
    match Verifier.verify ctx w.top with
    | Ok () -> []
    | Error ds ->
      List.filter (fun d -> contains d "missing from the use list")
        (List.map Diag.to_string ds)
  in
  check (Alcotest.list Alcotest.string) (label ^ ": verifier") [] use_def_errors

let run_seed seed =
  let rng = Random.State.make [| seed |] in
  let body = Ircore.create_block ~args:[ Typ.i32; Typ.i32 ] () in
  let top = Ircore.create ~regions:[ Ircore.region_with_block body ] "t.top" in
  let w =
    { top; body; model = Model.create (); values = Ircore.block_args body; ops = [] }
  in
  for _ = 1 to 4 do
    make_op rng w
  done;
  for i = 1 to 400 do
    step rng w;
    check_world (Fmt.str "seed %d, step %d" seed i) w
  done

let test_model () = List.iter run_seed [ 42; 7; 1; 2 ]

let () =
  Alcotest.run "use-lists"
    [ ("model", [ Alcotest.test_case "random mutations, in order" `Quick test_model ]) ]
