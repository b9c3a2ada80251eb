(** Workload [tune-matmul]: the Case-Study-5 tuning loop.

    One client, closed loop. Each tuning session tunes one matmul shape:
    [Autotune.Search.bayesian], seeded from the run's seed, proposes
    Figure-10 tile/vectorize configurations, and each probe parses its
    transform-script text, compiles it into a schedule, applies it to a
    fresh matmul, runs the result in the interpreter's machine model and
    compares the output with [Workloads.Matmul.reference]. Sessions of
    [budget] probes repeat until the run ends; each starts with an empty
    schedule cache, and a session never proposes a configuration twice, so
    every probe compiles its schedule. The kernels are sized so that the
    interpreter dominates a probe and a run still holds well over a
    thousand probes. *)

open Common

(** Shapes (m, n, k), one per session, in turn. The work per probe spans
    8x in small steps, so probe latencies form a continuum instead of a few
    narrow clusters whose median would jump from one to another when the
    host slows down for part of a run. *)
let shapes =
  [
    (24, 24, 24); (24, 32, 24); (32, 24, 32); (32, 32, 32); (40, 32, 32);
    (40, 40, 32); (48, 40, 32); (48, 40, 40); (48, 48, 40); (48, 48, 48);
  ]

(** Probes per session: the search's 8 random initial probes, then 8
    guided ones. Longer sessions let a few sessions whose guided phase
    wanders into slow unvectorized configurations swing a run's mix. *)
let budget = 16

(** Tiling and vectorizing keep each element's summation order, so the
    results match the reference to rounding noise. *)
let tolerance = 1e-6

(** Figure 10 for an m x n x k matmul: tile sizes divide their dimension,
    and vectorizing needs the innermost tile divisible by the vector
    width. *)
let space ~m ~n ~k =
  let divs d = List.filter (fun x -> x >= 2) (Autotune.Space.divisors d) in
  Autotune.Space.make
    ~constraints:
      [
        ( "vectorize_requires_divisible_tile_j",
          fun pt ->
            Autotune.Space.get pt "vectorize" = 0
            || Autotune.Space.get pt "tile_j" mod Experiments.Cs5.vector_width = 0
        );
      ]
    [
      Autotune.Space.param "tile_i" (divs m);
      Autotune.Space.param "tile_k" (divs k);
      Autotune.Space.param "tile_j" (divs n);
      Autotune.Space.param "vectorize" [ 0; 1 ];
    ]

type kernel = {
  m : int;
  n : int;
  k : int;
  space : Autotune.Space.t;
  reference : float array;  (** C + A*B on the inputs [run_matmul] uses *)
  untiled_s : float;  (** simulated time of the untransformed kernel *)
}

type state = { ctx : Ir.Context.t; kernels : kernel array }

let payload ~m ~n ~k =
  Workloads.Matmul.build_module ~order:Workloads.Matmul.Ikj ~m ~n ~k ()

let kernel ctx (m, n, k) =
  let machine = Interp.Machine.create () in
  let mat ~rows ~cols ~seed =
    Workloads.Matmul.make_matrix machine ~rows ~cols ~seed
  in
  (* the seeds [Workloads.Matmul.run_matmul] fills A, B and C with *)
  let a = mat ~rows:m ~cols:k ~seed:17
  and b = mat ~rows:k ~cols:n ~seed:42
  and c = mat ~rows:m ~cols:n ~seed:7 in
  let reference =
    Workloads.Matmul.reference ~m ~n ~k a b c.Interp.Rvalue.buf.Interp.Rvalue.data
  in
  (* the tuner's baseline: the untransformed kernel, which must also match
     the reference *)
  let untiled_s =
    match Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m ~n ~k (payload ~m ~n ~k) with
    | Ok (_, _, _, out, report)
      when Workloads.Matmul.max_abs_diff out reference <= tolerance ->
      report.Interp.Machine.r_seconds
    | Ok _ -> failwith "untiled kernel differs from the reference"
    | Error e -> failwith e
  in
  { m; n; k; space = space ~m ~n ~k; reference; untiled_s }

let setup () =
  let ctx = Transform.Register.full_context () in
  { ctx; kernels = Array.of_list (List.map (kernel ctx) shapes) }

let ( let* ) = Result.bind

(** One probe; the machine report when the kernel's output matches the
    reference. *)
let probe ~corrupt_result sp ctx kn ~script_text ~payload =
  let* script =
    Span.with_span sp "ir.parse" (fun () -> Ir.Parser.parse_module script_text)
  in
  let sched =
    Span.with_span sp "core.of_script" (fun () ->
        Transform.Schedule.of_script ctx script)
  in
  let* _steps =
    Span.with_span sp "core.apply" (fun () ->
        Transform.Schedule.apply sched ~payload)
    |> Result.map_error Transform.Terror.to_string
  in
  let* _, _, _, c, report =
    Span.with_span sp "interp.run" (fun () ->
        Workloads.Matmul.run_matmul ~ir_ctx:ctx ~m:kn.m ~n:kn.n ~k:kn.k payload)
  in
  Span.with_span sp "bench.check" (fun () ->
      if corrupt_result then c.(0) <- c.(0) +. 1.;
      let diff = Workloads.Matmul.max_abs_diff c kn.reference in
      if diff <= tolerance then Ok report
      else Error (Fmt.str "result differs from the reference by %g" diff))

exception Deadline

type probe_record = {
  p_latency : float;
  p_objective_s : float;  (** whole objective call, proposal included *)
  p_script_bytes : int;
  p_traced : bool;
  p_report : Interp.Machine.report option;
}

let run (o : opts) =
  let setup_s, st = timed_setup setup in
  let sp = Span.create ~on:false in
  let attempted = ref 0 and failed = ref 0 in
  let records = ref [] in
  let t_start = now () in
  let until = t_start +. o.seconds in
  let objective kn pt =
    if now () >= until then raise Deadline;
    let t_obj = now () in
    incr attempted;
    let req = !attempted in
    (* a traced run traces every other probe; the rest measure the same
       search untraced, for the tracing overhead *)
    sp.Span.on <- o.trace && req mod 2 = 0;
    let cfg = Experiments.Cs5.config_of_point pt in
    (* the tuner's proposal: script text and a fresh payload *)
    let script_text = Ir.Printer.op_to_string (Experiments.Cs5.script_for cfg) in
    let payload = payload ~m:kn.m ~n:kn.n ~k:kn.k in
    let corrupt_result = o.inject_faults && req = 1 in
    let t0 = now () in
    let r =
      Span.request sp ~req (fun () ->
          try probe ~corrupt_result sp st.ctx kn ~script_text ~payload
          with e -> Error (Printexc.to_string e))
    in
    let t1 = now () in
    let report =
      match r with
      | Ok rep -> Some rep
      | Error msg ->
        incr failed;
        report_failure
          (Fmt.str "tune-matmul probe %dx%dx%d %d/%d/%d/%b" kn.m kn.n kn.k
             cfg.ti cfg.tk cfg.tj cfg.vectorize)
          msg;
        None
    in
    records :=
      {
        p_latency = t1 -. t0;
        p_objective_s = now () -. t_obj;
        p_script_bytes = String.length script_text;
        p_traced = sp.Span.on;
        p_report = report;
      }
      :: !records;
    (* a failed probe scores as a slow kernel, so the search goes on *)
    match report with Some rep -> rep.Interp.Machine.r_seconds | None -> 1.0
  in
  let hits0 = counter "schedule" "cache_hits"
  and misses0 = counter "schedule" "cache_misses"
  and cn0, csum0 = hist "schedule" "compile_ms" in
  (* one tuning session after another until the run ends, cycling through
     the shapes in a fixed order so that every run tunes the same mix *)
  let session = ref 0 in
  while now () < until do
    let kn = st.kernels.(!session mod Array.length st.kernels) in
    Transform.Schedule.clear_cache ();
    (try
       ignore
         (Autotune.Search.bayesian ~seed:((o.seed * 7919) + !session) ~budget
            kn.space (objective kn))
     with Deadline -> ());
    incr session
  done;
  let elapsed = now () -. t_start in
  let rs = !records in
  let latencies traced =
    List.filter_map
      (fun r -> if r.p_traced = traced then Some r.p_latency else None)
      rs
  in
  let metrics =
    if not o.trace then
      latency_metrics ~elapsed (latencies false)
      @ [ ("setup_s", setup_s, "s"); ("peak_heap_mb", peak_heap_mb (), "MB") ]
    else begin
      let spans = sp.Span.spans in
      let n = List.length rs in
      let traced = List.filter (fun r -> r.p_traced) rs in
      let per_traced x = ratio x (float_of_int (List.length traced)) in
      let span_ms name = per_traced (1000. *. snd (Span.total spans name)) in
      let reports = List.filter_map (fun r -> r.p_report) rs in
      let per_report f =
        ratio
          (float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports))
          (float_of_int (List.length reports))
      in
      let sum f l = List.fold_left (fun acc r -> acc +. f r) 0. l in
      let hits = counter "schedule" "cache_hits" - hits0
      and misses = counter "schedule" "cache_misses" - misses0 in
      let cn, csum = hist "schedule" "compile_ms" in
      [
        ( "ir.parse.mb_per_s",
          ratio
            (sum (fun r -> float_of_int r.p_script_bytes) traced /. 1048576.)
            (snd (Span.total spans "ir.parse")),
          "MB/s" );
        ("core.of_script.ms", span_ms "core.of_script", "ms");
        ("core.apply.ms", span_ms "core.apply", "ms");
        ( "core.schedule.compile_ms",
          ratio (csum -. csum0) (float_of_int (cn - cn0)),
          "ms" );
        ( "core.schedule.cache_hit_ratio",
          ratio (float_of_int hits) (float_of_int (hits + misses)),
          "ratio" );
        ("interp.run.ms", span_ms "interp.run", "ms");
        ("interp.flops", per_report (fun r -> r.Interp.Machine.r_flops), "count");
        ( "interp.loads_stores",
          per_report (fun r -> r.Interp.Machine.r_loads + r.Interp.Machine.r_stores),
          "count" );
        ( "kernel_sim_us.geomean",
          geomean (List.map (fun r -> r.Interp.Machine.r_seconds *. 1e6) reports),
          "us" );
        (* the search's own cost per probe: loop time minus objective time *)
        ( "autotune.search.ms",
          1000. *. ratio (elapsed -. sum (fun r -> r.p_objective_s) rs) (float_of_int n),
          "ms" );
      ]
      @ trace_metrics ~spans ~requests:(List.length traced)
          ~untraced:(latencies false) ~traced:(latencies true)
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes =
      [
        ("samples", Ir.Json.Int (List.length (latencies o.trace)));
        ( "untiled_kernel_us.geomean",
          Ir.Json.Float
            (geomean
               (Array.to_list
                  (Array.map (fun kn -> kn.untiled_s *. 1e6) st.kernels))) );
      ];
    spans = sp.Span.spans;
  }
