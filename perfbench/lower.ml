(** Workload [lower-models]: the Table-1 request path.

    One client, closed loop. Each request is a model's text plus the
    Case-Study-1 TOSA pipeline written as transform-script text, compiled
    the way [otd_opt --transform] does it: parse, verify, schedule
    (compile or cache hit), apply, verify, print. The seed shuffles the
    models in blocks holding each of the five once, so every run sends the
    same mix. *)

open Common

type job = {
  name : string;
  payload : string;
  reference : string;  (** pass-manager output on the same text *)
}

type state = {
  ctx : Ir.Context.t;
  passes : Passes.Pass.t list;
  script_text : string;
  jobs : job array;
}

let passes () =
  match Passes.Pass.parse_pipeline Workloads.Models.tosa_pipeline_str with
  | Ok ps -> ps
  | Error d -> failwith (Ir.Diag.to_string d)

let parse text =
  match Ir.Parser.parse_module text with
  | Ok md -> md
  | Error e -> failwith ("parse: " ^ e)

(** The pass-manager path on a fresh parse of [text]. *)
let pass_manager ctx passes text =
  let md = parse text in
  match Passes.Pass.run_pipeline ctx passes md with
  | Ok r -> (md, r)
  | Error d -> failwith (Ir.Diag.to_string d)

let golden_key job = "lower-models/" ^ job.name

let setup () =
  let ctx = Transform.Register.full_context () in
  let passes = passes () in
  let script_text =
    Ir.Printer.op_to_string (Transform.From_pipeline.script_of_pipeline passes)
  in
  let jobs =
    Array.of_list
      (List.map
         (fun spec ->
           let payload = Ir.Printer.op_to_string (Workloads.Models.build spec) in
           let md, _ = pass_manager ctx passes payload in
           {
             name = spec.Workloads.Models.sp_name;
             payload;
             reference = Ir.Printer.op_to_string md;
           })
         Workloads.Models.paper_models)
  in
  { ctx; passes; script_text; jobs }

let ( let* ) = Result.bind

(** Bytes the traced requests parse and print. *)
type io = { mutable parsed : int; mutable printed : int }

let io = { parsed = 0; printed = 0 }

let verify sp name ctx md =
  match Span.with_span sp name (fun () -> Ir.Verifier.verify ctx md) with
  | Ok () -> Ok ()
  | Error ds -> Error (Fmt.str "%s: %d diagnostics" name (List.length ds))

let parse_span sp text =
  if sp.Span.on then io.parsed <- io.parsed + String.length text;
  Span.with_span sp "ir.parse" (fun () -> Ir.Parser.parse_module text)

(** Faults the smoke check injects: a corrupt output, which the comparison
    with the pass manager catches, and the same corruption on both paths,
    which only the committed digest catches. *)
type fault = No_fault | Corrupt_output | Corrupt_both

(** One request; [Ok ()] when the output equals both the pass-manager
    reference and the committed digest. *)
let request ~golden ~fault sp st job =
  let* md = parse_span sp job.payload in
  let* () = verify sp "ir.verify_in" st.ctx md in
  let* script = parse_span sp st.script_text in
  let sched =
    Span.with_span sp "core.of_script" (fun () ->
        Transform.Schedule.of_script st.ctx script)
  in
  let* _steps =
    Span.with_span sp "core.apply" (fun () ->
        Transform.Schedule.apply sched ~payload:md)
    |> Result.map_error Transform.Terror.to_string
  in
  let* () = verify sp "ir.verify_out" st.ctx md in
  let out = Span.with_span sp "ir.print" (fun () -> Ir.Printer.op_to_string md) in
  if sp.Span.on then io.printed <- io.printed + String.length out;
  let out, reference =
    match fault with
    | No_fault -> (out, job.reference)
    | Corrupt_output -> (corrupt out, job.reference)
    | Corrupt_both -> (corrupt out, corrupt job.reference)
  in
  Span.with_span sp "bench.check" (fun () ->
      if not (String.equal out reference) then
        Error "output differs from the pass-manager path"
      else if not (Golden.matches golden (golden_key job) out) then
        Error "output digest differs from the committed golden"
      else Ok ())

(** A seeded order over [0, n): shuffled blocks, each holding every index
    once, so any stretch of a run sends an even mix. *)
let order ~seed n =
  let rng = Random.State.make [| seed |] in
  let block = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !block then begin
      let b = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = b.(i) in
        b.(i) <- b.(j);
        b.(j) <- t
      done;
      block := b;
      pos := 0
    end;
    let j = !block.(!pos) in
    incr pos;
    j

let greedy () = (counter "greedy" "match_attempts", counter "greedy" "folds")

let run (o : opts) =
  let setup_s, st = timed_setup setup in
  let next = order ~seed:o.seed (Array.length st.jobs) in
  let sp = Span.create ~on:false in
  (* warm-up block: fills the schedule cache and settles lazy state *)
  Array.iter
    (fun job -> ignore (request ~golden:o.golden ~fault:No_fault sp st job))
    st.jobs;
  let attempted = ref 0 and failed = ref 0 in
  let plain = ref [] and traced = ref [] in
  let sched_hits0 = counter "schedule" "cache_hits"
  and sched_misses0 = counter "schedule" "cache_misses"
  and cn0, csum0 = hist "schedule" "compile_ms" in
  let pm_ms = Hashtbl.create 16 and pm_by_req = Hashtbl.create 256 in
  let matches = ref 0 and folds = ref 0 in
  let t_start = now () in
  while now () < t_start +. o.seconds do
    incr attempted;
    let req = !attempted in
    let job = st.jobs.(next ()) in
    (* a traced run traces every other block of requests, which sends
       each model once; the other blocks measure the same mix untraced,
       for the tracing overhead *)
    sp.Span.on <- o.trace && (req - 1) / Array.length st.jobs mod 2 = 1;
    let m0, f0 = if sp.Span.on then greedy () else (0, 0) in
    let fault =
      match req with
      | 1 when o.inject_faults -> Corrupt_output
      | 2 when o.inject_faults -> Corrupt_both
      | _ -> No_fault
    in
    let t0 = now () in
    let r =
      Span.request sp ~req (fun () ->
          try request ~golden:o.golden ~fault sp st job
          with e -> Error (Printexc.to_string e))
    in
    let dt = now () -. t0 in
    (match r with
    | Ok () -> ()
    | Error msg ->
      incr failed;
      report_failure ("lower-models/" ^ job.name) msg);
    if not sp.Span.on then plain := dt :: !plain
    else begin
      traced := dt :: !traced;
      let m1, f1 = greedy () in
      matches := !matches + m1 - m0;
      folds := !folds + f1 - f0;
      (* per-pass times: the pass manager's timing tree on a fresh parse
         of the same payload, outside the request span *)
      let _, r = pass_manager st.ctx st.passes job.payload in
      let t = r.Passes.Pass.timing in
      List.iter
        (fun c ->
          let k = c.Passes.Pass.t_name in
          Hashtbl.replace pm_ms k
            (c.Passes.Pass.t_seconds
            +. Option.value (Hashtbl.find_opt pm_ms k) ~default:0.))
        t.Passes.Pass.t_children;
      Hashtbl.replace pm_by_req req t.Passes.Pass.t_seconds
    end
  done;
  let elapsed = now () -. t_start in
  let spans = sp.Span.spans in
  let n = List.length !traced in
  let per_req x = ratio x (float_of_int n) in
  let span_ms name = per_req (1000. *. snd (Span.total spans name)) in
  let mb_per_s bytes name =
    ratio (float_of_int bytes /. 1048576.) (snd (Span.total spans name))
  in
  (* Table 1: transform apply against the pass manager, per request *)
  let overhead =
    Hashtbl.fold
      (fun r apply acc ->
        match Hashtbl.find_opt pm_by_req r with
        | Some pm -> ((apply -. pm) /. pm) :: acc
        | None -> acc)
      (Span.by_request spans "core.apply") []
  in
  let hits = counter "schedule" "cache_hits" - sched_hits0
  and misses = counter "schedule" "cache_misses" - sched_misses0 in
  let cn, csum = hist "schedule" "compile_ms" in
  let metrics =
    if not o.trace then
      latency_metrics ~elapsed !plain
      @ [ ("setup_s", setup_s, "s"); ("peak_heap_mb", peak_heap_mb (), "MB") ]
    else
      [
        ("ir.parse.mb_per_s", mb_per_s io.parsed "ir.parse", "MB/s");
        ("ir.print.mb_per_s", mb_per_s io.printed "ir.print", "MB/s");
        ("ir.verify_in.ms", span_ms "ir.verify_in", "ms");
        ("ir.verify_out.ms", span_ms "ir.verify_out", "ms");
        ("ir.greedy.match_attempts", per_req (float_of_int !matches), "count");
        ("ir.greedy.folds", per_req (float_of_int !folds), "count");
        ( "passes.pipeline.ms",
          per_req (1000. *. Hashtbl.fold (fun _ v acc -> v +. acc) pm_by_req 0.),
          "ms" );
        ("core.of_script.ms", span_ms "core.of_script", "ms");
        ("core.apply.ms", span_ms "core.apply", "ms");
        ( "core.schedule.compile_ms",
          ratio (csum -. csum0) (float_of_int (cn - cn0)),
          "ms" );
        ( "core.schedule.cache_hit_ratio",
          ratio (float_of_int hits) (float_of_int (hits + misses)),
          "ratio" );
        ("core.overhead_pct", 100. *. median overhead, "%");
      ]
      @ Hashtbl.fold
          (fun k v acc -> ("passes." ^ k ^ ".ms", per_req (v *. 1000.), "ms") :: acc)
          pm_ms []
      @ trace_metrics ~spans ~requests:n ~untraced:!plain ~traced:!traced
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes =
      [ ("samples", Ir.Json.Int (List.length (if o.trace then !traced else !plain))) ];
    spans;
  }
