(** Affine expressions and maps, the slice of MLIR's affine infrastructure
    needed by the [affine] dialect, memref strided layouts and the
    [expand-strided-metadata] lowering. *)

type expr =
  | Dim of int  (** [d<i>] *)
  | Sym of int  (** [s<i>] *)
  | Const of int
  | Add of expr * expr
  | Mul of expr * expr
  | Mod of expr * expr
  | Floordiv of expr * expr
  | Ceildiv of expr * expr

type map = { num_dims : int; num_syms : int; exprs : expr list }

let dim i = Dim i
let sym i = Sym i
let const c = Const c

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

let rec simplify e =
  match e with
  | Dim _ | Sym _ | Const _ -> e
  | Add (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (x + y)
    | Const 0, e | e, Const 0 -> e
    (* canonicalize constants to the right: (e + c1) + c2 -> e + (c1+c2) *)
    | Add (e, Const c1), Const c2 -> simplify (Add (e, Const (c1 + c2)))
    | Const c, e -> simplify (Add (e, Const c))
    | a, b -> Add (a, b))
  | Mul (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (x * y)
    | Const 0, _ | _, Const 0 -> Const 0
    | Const 1, e | e, Const 1 -> e
    | Const c, e -> simplify (Mul (e, Const c))
    | a, b -> Mul (a, b))
  | Mod (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      let r = x mod y in
      Const (if r < 0 then r + y else r)
    | _, Const 1 -> Const 0
    | a, b -> Mod (a, b))
  | Floordiv (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      Const (if x >= 0 then x / y else -(((-x) + y - 1) / y))
    | e, Const 1 -> e
    | a, b -> Floordiv (a, b))
  | Ceildiv (a, b) -> (
    match (simplify a, simplify b) with
    | Const x, Const y when y > 0 ->
      Const (if x >= 0 then (x + y - 1) / y else -((-x) / y))
    | e, Const 1 -> e
    | a, b -> Ceildiv (a, b))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

exception Eval_error of string

let rec eval ~dims ~syms e =
  let get a i what =
    if i >= 0 && i < Array.length a then a.(i)
    else raise (Eval_error (Fmt.str "%s index %d out of range" what i))
  in
  match e with
  | Dim i -> get dims i "dim"
  | Sym i -> get syms i "symbol"
  | Const c -> c
  | Add (a, b) -> eval ~dims ~syms a + eval ~dims ~syms b
  | Mul (a, b) -> eval ~dims ~syms a * eval ~dims ~syms b
  | Mod (a, b) ->
    let d = eval ~dims ~syms b in
    if d <= 0 then raise (Eval_error "mod by non-positive value");
    let r = eval ~dims ~syms a mod d in
    if r < 0 then r + d else r
  | Floordiv (a, b) ->
    let d = eval ~dims ~syms b in
    if d <= 0 then raise (Eval_error "floordiv by non-positive value");
    let n = eval ~dims ~syms a in
    if n >= 0 then n / d else -(((-n) + d - 1) / d)
  | Ceildiv (a, b) ->
    let d = eval ~dims ~syms b in
    if d <= 0 then raise (Eval_error "ceildiv by non-positive value");
    let n = eval ~dims ~syms a in
    if n >= 0 then (n + d - 1) / d else -((-n) / d)

(* ------------------------------------------------------------------ *)
(* Maps                                                                *)
(* ------------------------------------------------------------------ *)

let make_map ~num_dims ~num_syms exprs =
  { num_dims; num_syms; exprs = List.map simplify exprs }

let identity_map n =
  { num_dims = n; num_syms = 0; exprs = List.init n (fun i -> Dim i) }

let constant_map c = { num_dims = 0; num_syms = 0; exprs = [ Const c ] }

let eval_map m ~dims ~syms =
  if Array.length dims <> m.num_dims then
    raise (Eval_error "wrong number of dims");
  if Array.length syms <> m.num_syms then
    raise (Eval_error "wrong number of symbols");
  List.map (eval ~dims ~syms) m.exprs

let is_identity m =
  m.num_syms = 0
  && List.length m.exprs = m.num_dims
  && List.for_all2 (fun e i -> e = Dim i) m.exprs
       (List.init m.num_dims Fun.id)

(** Substitute dims/syms of [m] by expressions; used for composition. *)
let rec substitute ~dim_repl ~sym_repl e =
  match e with
  | Dim i -> dim_repl i
  | Sym i -> sym_repl i
  | Const _ -> e
  | Add (a, b) ->
    Add (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Mul (a, b) ->
    Mul (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Mod (a, b) ->
    Mod (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Floordiv (a, b) ->
    Floordiv
      (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)
  | Ceildiv (a, b) ->
    Ceildiv
      (substitute ~dim_repl ~sym_repl a, substitute ~dim_repl ~sym_repl b)

(** [compose f g] applies [g] first, then [f]: result(x) = f(g(x)).
    [g] must produce exactly [f.num_dims] results. Symbols of both maps are
    concatenated, [f]'s symbols first. *)
let compose f g =
  if List.length g.exprs <> f.num_dims then
    invalid_arg "Affine.compose: arity mismatch";
  let g_exprs = Array.of_list g.exprs in
  let shifted_g_sym i = Sym (i + f.num_syms) in
  let g_shifted =
    Array.map
      (substitute ~dim_repl:(fun i -> Dim i) ~sym_repl:shifted_g_sym)
      g_exprs
  in
  let exprs =
    List.map
      (fun e ->
        simplify
          (substitute ~dim_repl:(fun i -> g_shifted.(i))
             ~sym_repl:(fun i -> Sym i)
             e))
      f.exprs
  in
  { num_dims = g.num_dims; num_syms = f.num_syms + g.num_syms; exprs }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec add_expr b = function
  | Dim i ->
    Buffer.add_char b 'd';
    Util.add_int b i
  | Sym i ->
    Buffer.add_char b 's';
    Util.add_int b i
  | Const c -> Util.add_int b c
  | Add (x, Const c) when c < 0 ->
    add_expr b x;
    Buffer.add_string b " - ";
    Util.add_int b (-c)
  | Add (x, y) -> add_binary b add_expr x " + " add_expr y
  | Mul (x, y) -> add_binary b add_atom x " * " add_atom y
  | Mod (x, y) -> add_binary b add_atom x " mod " add_atom y
  | Floordiv (x, y) -> add_binary b add_atom x " floordiv " add_atom y
  | Ceildiv (x, y) -> add_binary b add_atom x " ceildiv " add_atom y

and add_binary b add_x x op add_y y =
  add_x b x;
  Buffer.add_string b op;
  add_y b y

and add_atom b e =
  match e with
  | Dim _ | Sym _ | Const _ -> add_expr b e
  | _ ->
    Buffer.add_char b '(';
    add_expr b e;
    Buffer.add_char b ')'

(** [(d0, d1)[s0] -> (exprs)]. Separators are always [", "], so a long map
    never wraps, whatever the column. *)
let add_map b m =
  let add_ids prefix n =
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_char b prefix;
      Util.add_int b i
    done
  in
  Buffer.add_char b '(';
  add_ids 'd' m.num_dims;
  Buffer.add_char b ')';
  if m.num_syms > 0 then begin
    Buffer.add_char b '[';
    add_ids 's' m.num_syms;
    Buffer.add_char b ']'
  end;
  Buffer.add_string b " -> (";
  Util.add_list add_expr b m.exprs;
  Buffer.add_char b ')'

let pp_map = Util.pp_of_writer add_map
