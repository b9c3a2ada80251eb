(** Helpers shared by the three workloads: timing, order statistics,
    output digests, statistics deltas and the result record. *)

let now = Unix.gettimeofday

(** Nearest-rank percentile ([p] in [0,1]) of an unsorted sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b
let digest s = Digest.to_hex (Digest.string s)

(** Value of a registered [Ir.Stats] counter. *)
let counter component name =
  Ir.Stats.value (Ir.Stats.counter ~component name)

(** Value of an [Ir.Stats] counter in the calling domain's shard only:
    what this domain has counted, whatever the others do. *)
let domain_value (c : Ir.Stats.counter) =
  let s = Ir.Stats.my_shard () in
  if c.Ir.Stats.c_id < Array.length s.Ir.Stats.sc then s.Ir.Stats.sc.(c.Ir.Stats.c_id)
  else 0

(** Count and sum of a registered [Ir.Stats] histogram. *)
let hist component name =
  let n, sum, _, _ = Ir.Stats.hist_totals (Ir.Stats.histogram ~component name) in
  (n, sum)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(** Run [setup] five times; the median duration is the set-up time, and
    the last result is kept ([release] frees the earlier ones). The
    measured run then starts from a collected heap. *)
let timed_setup ?(release = ignore) setup =
  let rec go k times last =
    if k = 0 then begin
      Gc.full_major ();
      (median times, Option.get last)
    end
    else begin
      Option.iter release last;
      let t0 = now () in
      let st = setup () in
      go (k - 1) ((now () -. t0) :: times) (Some st)
    end
  in
  go 5 [] None

(** Committed output digests, one line per job: [<job> <md5-hex>]. *)
module Golden = struct
  type t = (string, string) Hashtbl.t

  let load path : t =
    let tbl = Hashtbl.create 32 in
    (match open_in path with
    | exception Sys_error _ -> ()
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              match String.split_on_char ' ' (String.trim (input_line ic)) with
              | [ job; hex ] -> Hashtbl.replace tbl job hex
              | _ -> ()
            done
          with End_of_file -> ()));
    tbl

  let matches (t : t) job output =
    match Hashtbl.find_opt t job with
    | Some hex -> String.equal hex (digest output)
    | None -> false
end

(** What a workload run reports. [metrics] are (name, value, unit). *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : (string * Ir.Json.t) list;  (** sample counts and the like *)
  spans : Span.span list;
}

(** Options every workload receives. *)
type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  inject_faults : bool;  (** corrupt one output to prove the checks live *)
  golden : Golden.t;
}

(** Report the first few failures on stderr; count them all. *)
let report_failure =
  let shown = Atomic.make 0 in
  fun what msg ->
    if Atomic.fetch_and_add shown 1 < 5 then
      Printf.eprintf "perfbench: %s failed: %s\n%!" what msg

(** Flip one byte of [s]: the injected fault of the smoke check. *)
let corrupt s =
  if s = "" then "x"
  else
    String.mapi
      (fun i c -> if i = String.length s / 2 then Char.chr (Char.code c lxor 1) else c)
      s

(** End-to-end latency metrics of one sample of per-unit latencies
    (seconds), completed over [elapsed] seconds. *)
let latency_metrics ~elapsed lat =
  let ms = List.map (fun s -> s *. 1000.) lat in
  [
    ("request_ms.p50", median ms, "ms");
    ("request_ms.p90", percentile ms 0.9, "ms");
    ("requests_per_s", ratio (float_of_int (List.length lat)) elapsed, "1/s");
  ]

(** Per-layer self time per request, the share no layer span covers, and
    the traced-minus-untraced latency difference. *)
let trace_metrics ~spans ~requests ~untraced ~traced =
  let by_layer = Span.self_by_layer spans in
  let self l = Option.value (Hashtbl.find_opt by_layer l) ~default:0. in
  let _, total = Span.total spans "request" in
  List.map
    (fun l ->
      ( "layer." ^ l ^ ".self_ms",
        ratio (self l *. 1000.) (float_of_int requests),
        "ms" ))
    [ "ir"; "core"; "interp"; "server"; "bench" ]
  @ [
      ("trace.unaccounted_pct", 100. *. ratio (self "unaccounted") total, "%");
      (* means, not medians: both halves send the same mix, and a median
         of a mix of a few job sizes can land in different jobs *)
      ( "trace.overhead_pct",
        100. *. (ratio (mean traced) (mean untraced) -. 1.),
        "%" );
      ("trace.spans", float_of_int (List.length spans), "count");
    ]
