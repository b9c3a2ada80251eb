(** In-memory span recorder for the traced run.

    Spans are taken by the benchmark itself, around its own calls into each
    layer of the program; the program is not instrumented. A span records
    its name, start, end, parent span and the id of the request it belongs
    to. A recorder belongs to one domain (spans nest on a stack); ids come
    from one process-wide counter so spans of several client domains can be
    merged. Spans stay in memory and are written out when the run ends.

    The layer of a span is the prefix of its name before the first ['.']
    ([ir.parse] belongs to [ir]); a root span named [request] carries the
    request's end-to-end time, and its self time is the part no layer
    span covers. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable on : bool;
  mutable spans : span list;
  mutable stack : int list;
  mutable req : int;
}

let next_id = Atomic.make 1
let create ~on = { on; spans = []; stack = []; req = 0 }

(** Run [f] inside a span named [name]; a no-op wrapper when the recorder
    is off, so the untraced run pays one branch per call. *)
let with_span t name f =
  if not t.on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; req = t.req; name; t0; t1 } :: t.spans)
      f
  end

(** Root span of request [req]: every span opened inside [f] carries the
    same request id. *)
let request t ~req f =
  t.req <- req;
  with_span t "request" f

let duration s = s.t1 -. s.t0

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(** Self time of every span: its duration minus the time its children
    cover. Children run inside their parent on the same domain, one after
    another, so the time they cover is the sum of their durations. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt covered s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.))
    spans

(** Total duration of the spans named [name] and their count. *)
let total spans name =
  List.fold_left
    (fun (n, sum) s -> if s.name = name then (n + 1, sum +. duration s) else (n, sum))
    (0, 0.) spans

(** Durations of the spans named [name], keyed by request id. *)
let by_request spans name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.req
          (duration s +. Option.value (Hashtbl.find_opt tbl s.req) ~default:0.))
    spans;
  tbl

(** Self time summed per layer, over all spans. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = if s.name = "request" then "unaccounted" else layer s in
      Hashtbl.replace tbl l
        (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.))
    (self_times spans);
  tbl

(** Write the spans as JSON lines, times in microseconds from [origin]. *)
let write ~path ~origin spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\
             \"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id s.parent s.req s.name
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. origin) *. 1e6))
        (List.sort (fun a b -> compare a.t0 b.t0) spans))
