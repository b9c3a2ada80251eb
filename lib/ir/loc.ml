(** Source locations attached to operations, mirroring MLIR's [Location]. *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of string * t  (** a named location wrapping a child location *)
  | Fused of t list

let unknown = Unknown
let file ?(line = 0) ?(col = 0) file = File { file; line; col }
let name ?(child = Unknown) n = Name (n, child)

let rec add b = function
  | Unknown -> Buffer.add_string b "loc(unknown)"
  | File { file; line; col } ->
    Buffer.add_string b "loc(";
    Util.add_quoted b file;
    Buffer.add_char b ':';
    Util.add_int b line;
    Buffer.add_char b ':';
    Util.add_int b col;
    Buffer.add_char b ')'
  | Name (n, child) ->
    Buffer.add_string b "loc(";
    Util.add_quoted b n;
    (match child with
    | Unknown -> ()
    | child ->
      Buffer.add_string b " at ";
      add b child);
    Buffer.add_char b ')'
  | Fused locs ->
    Buffer.add_string b "loc(fused[";
    Util.add_list add b locs;
    Buffer.add_string b "])"

let pp = Util.pp_of_writer add
let to_string = Util.string_of_writer add
