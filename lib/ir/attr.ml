(** Attributes: compile-time constant data attached to operations. *)

type t =
  | Unit
  | Bool of bool
  | Int of int * Typ.t  (** typed integer; [index] or [iN] *)
  | Float of float * Typ.t
  | String of string
  | Type of Typ.t
  | Array of t list
  | Int_array of int list  (** MLIR's [array<i64: ...>], dense int arrays *)
  | Dense_int of int list * Typ.t  (** [dense<[...]> : tensor<...>] *)
  | Dense_float of float list * Typ.t
  | Dict of (string * t) list
  | Symbol_ref of string * string list  (** [@root::@nested...] *)
  | Affine_map of Affine.map

let unit = Unit
let bool b = Bool b
let int ?(typ = Typ.i64) v = Int (v, typ)
let index v = Int (v, Typ.index)
let float ?(typ = Typ.f64) v = Float (v, typ)
let str s = String s
let typ t = Type t
let symbol s = Symbol_ref (s, [])

let get_int = function Int (v, _) -> Some v | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_float = function Float (v, _) -> Some v | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_type = function Type t -> Some t | _ -> None
let get_int_array = function Int_array xs -> Some xs | _ -> None
let get_symbol = function Symbol_ref (s, _) -> Some s | _ -> None
let get_array = function Array xs -> Some xs | _ -> None

let add_typed b add_x x t =
  add_x b x;
  Buffer.add_string b " : ";
  Typ.add b t

let add_dense b add_x xs t =
  Buffer.add_string b "dense<[";
  Util.add_list add_x b xs;
  Buffer.add_string b "]> : ";
  Typ.add b t

let add_float b v = Buffer.add_string b (Printf.sprintf "%g" v)

(** Write [a] in MLIR's textual form. *)
let rec add b = function
  | Unit -> Buffer.add_string b "unit"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int (v, t) -> add_typed b Util.add_int v t
  | Float (v, t) ->
    add_typed b (fun b v -> Buffer.add_string b (Printf.sprintf "%h" v)) v t
  | String s -> Util.add_quoted b s
  | Type t -> Typ.add b t
  | Array xs ->
    Buffer.add_char b '[';
    Util.add_list add b xs;
    Buffer.add_char b ']'
  | Int_array xs ->
    Buffer.add_string b "array<i64: ";
    Util.add_list Util.add_int b xs;
    Buffer.add_char b '>'
  | Dense_int (xs, t) -> add_dense b Util.add_int xs t
  | Dense_float (xs, t) -> add_dense b add_float xs t
  | Dict kvs ->
    Buffer.add_char b '{';
    Util.add_list
      (fun b (k, v) ->
        Buffer.add_string b k;
        Buffer.add_string b " = ";
        add b v)
      b kvs;
    Buffer.add_char b '}'
  | Symbol_ref (root, nested) ->
    Buffer.add_char b '@';
    Buffer.add_string b root;
    List.iter
      (fun s ->
        Buffer.add_string b "::@";
        Buffer.add_string b s)
      nested
  | Affine_map m ->
    Buffer.add_string b "affine_map<";
    Affine.add_map b m;
    Buffer.add_char b '>'

let pp = Util.pp_of_writer add
let to_string = Util.string_of_writer add

let equal (a : t) (b : t) = a = b

(* Named attribute dictionaries are association lists with stable order. *)
type dict = (string * t) list

let find (name : string) (d : dict) = List.assoc_opt name d

let set (name : string) (v : t) (d : dict) : dict =
  if List.mem_assoc name d then
    List.map (fun (k, old) -> if k = name then (k, v) else (k, old)) d
  else d @ [ (name, v) ]

let remove (name : string) (d : dict) : dict = List.remove_assoc name d
