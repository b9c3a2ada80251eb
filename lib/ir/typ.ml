(** The type system: a closed representation of the MLIR builtin types used
    by our dialects, plus an opaque escape hatch for dialect-specific types
    (e.g. [!transform.any_op], [!llvm.ptr]). *)

type float_kind = F16 | BF16 | F32 | F64

(** Dimension of a shaped type: statically known or dynamic ([?]). *)
type dim = Static of int | Dynamic

(** Memref layouts. [Identity] is the default row-major contiguous layout.
    [Strided] mirrors MLIR's [strided<[s0, s1], offset: o>] with possibly
    dynamic entries. [Affine_layout] is the fully general case. *)
type layout =
  | Identity
  | Strided of { offset : dim; strides : dim list }
  | Affine_layout of Affine.map

type t =
  | Integer of int  (** [iN]; [i1] is the boolean type *)
  | Index
  | Float of float_kind
  | Vector of int list * t
  | Ranked_tensor of dim list * t
  | Unranked_tensor of t
  | Memref of dim list * t * layout
  | Unranked_memref of t
  | Func of t list * t list
  | Tuple of t list
  | Opaque of string * string  (** [!dialect.body] *)

let i1 = Integer 1
let i8 = Integer 8
let i16 = Integer 16
let i32 = Integer 32
let i64 = Integer 64
let index = Index
let f16 = Float F16
let bf16 = Float BF16
let f32 = Float F32
let f64 = Float F64

let memref ?(layout = Identity) dims elt = Memref (dims, elt, layout)
let tensor dims elt = Ranked_tensor (dims, elt)
let static_dims ns = List.map (fun n -> Static n) ns

(* Transform dialect types are represented as opaque types so that the core
   IR does not depend on the transform library. *)
let transform_any_op = Opaque ("transform", "any_op")
let transform_param = Opaque ("transform", "param")
let transform_any_value = Opaque ("transform", "any_value")
let transform_op name = Opaque ("transform", Fmt.str "op<%S>" name)
let llvm_ptr = Opaque ("llvm", "ptr")

let is_integer = function Integer _ -> true | _ -> false
let is_float = function Float _ -> true | _ -> false
let is_index = function Index -> true | _ -> false
let is_int_or_index t = is_integer t || is_index t

let is_signless_int_or_float t = is_integer t || is_float t

let is_shaped = function
  | Vector _ | Ranked_tensor _ | Unranked_tensor _ | Memref _
  | Unranked_memref _ ->
    true
  | _ -> false

let element_type = function
  | Vector (_, t)
  | Ranked_tensor (_, t)
  | Unranked_tensor t
  | Memref (_, t, _)
  | Unranked_memref t ->
    Some t
  | _ -> None

let shape = function
  | Ranked_tensor (dims, _) | Memref (dims, _, _) -> Some dims
  | Vector (ns, _) -> Some (List.map (fun n -> Static n) ns)
  | _ -> None

let rank t = Option.map List.length (shape t)

let static_shape t =
  match shape t with
  | None -> None
  | Some dims ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Static n :: rest -> go (n :: acc) rest
      | Dynamic :: _ -> None
    in
    go [] dims

let num_elements t =
  match static_shape t with
  | Some dims -> Some (List.fold_left ( * ) 1 dims)
  | None -> None

let bitwidth = function
  | Integer n -> Some n
  | Index -> Some 64
  | Float F16 | Float BF16 -> Some 16
  | Float F32 -> Some 32
  | Float F64 -> Some 64
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let float_kind_name = function
  | F16 -> "f16"
  | BF16 -> "bf16"
  | F32 -> "f32"
  | F64 -> "f64"

let add_dim b = function
  | Static n -> Util.add_int b n
  | Dynamic -> Buffer.add_char b '?'

let add_shape_prefix b dims =
  List.iter
    (fun d ->
      add_dim b d;
      Buffer.add_char b 'x')
    dims

(** Write [t] in MLIR's textual form. *)
let rec add b = function
  | Integer n ->
    Buffer.add_char b 'i';
    Util.add_int b n
  | Index -> Buffer.add_string b "index"
  | Float k -> Buffer.add_string b (float_kind_name k)
  | Vector (ns, t) ->
    Buffer.add_string b "vector<";
    List.iter
      (fun n ->
        Util.add_int b n;
        Buffer.add_char b 'x')
      ns;
    add b t;
    Buffer.add_char b '>'
  | Ranked_tensor (dims, t) ->
    Buffer.add_string b "tensor<";
    add_shape_prefix b dims;
    add b t;
    Buffer.add_char b '>'
  | Unranked_tensor t ->
    Buffer.add_string b "tensor<*x";
    add b t;
    Buffer.add_char b '>'
  | Memref (dims, t, layout) ->
    Buffer.add_string b "memref<";
    add_shape_prefix b dims;
    add b t;
    (match layout with
    | Identity -> ()
    | Strided { offset; strides } ->
      Buffer.add_string b ", strided<[";
      Util.add_list add_dim b strides;
      Buffer.add_string b "], offset: ";
      add_dim b offset;
      Buffer.add_char b '>'
    | Affine_layout m ->
      Buffer.add_string b ", affine_map<";
      Affine.add_map b m;
      Buffer.add_char b '>');
    Buffer.add_char b '>'
  | Unranked_memref t ->
    Buffer.add_string b "memref<*x";
    add b t;
    Buffer.add_char b '>'
  | Func (ins, outs) ->
    Buffer.add_char b '(';
    Util.add_list add b ins;
    Buffer.add_string b ") -> ";
    add_results b outs
  | Tuple ts ->
    Buffer.add_string b "tuple<";
    Util.add_list add b ts;
    Buffer.add_char b '>'
  | Opaque (dialect, body) ->
    Buffer.add_char b '!';
    Buffer.add_string b dialect;
    if body <> "" then begin
      Buffer.add_char b '.';
      Buffer.add_string b body
    end

(** The result side of a function type: a lone non-function type bare,
    anything else parenthesized. *)
and add_results b = function
  | [ (Func _ as o) ] ->
    Buffer.add_char b '(';
    add b o;
    Buffer.add_char b ')'
  | [ o ] -> add b o
  | outs ->
    Buffer.add_char b '(';
    Util.add_list add b outs;
    Buffer.add_char b ')'

let pp = Util.pp_of_writer add
let to_string = Util.string_of_writer add

let equal (a : t) (b : t) = a = b
