(** perfbench: the repository's benchmark of the request path.

    Usage (normally through [perfbench/run.py], which builds this first):
      main.exe --workload lower-models|tune-matmul|serve-mixed --seed N
               --seconds S --trace 0|1 [--golden FILE] [--inject-faults]
      main.exe --write-golden FILE

    Prints a stamp line (host, sample counts) and then, as the last line,
    [{"correct", "attempted", "failed", "metrics"}]. With [--trace 0] the
    metrics are the end-to-end ones; with [--trace 1] every other request
    is traced and the metrics are the per-layer ones derived from the
    spans, which are also written to [.bench_out/]. *)

open Common

let workloads =
  [ ("lower-models", Lower.run); ("tune-matmul", Tune.run); ("serve-mixed", Serve.run) ]

(** Digest every [lower-models] and [serve-mixed] job's output through the
    pass manager, on a fresh parse of the job's text. *)
let write_golden path =
  let ctx = Transform.Register.full_context () in
  let passes = Lower.passes () in
  let digest_of text =
    let md, _ = Lower.pass_manager ctx passes text in
    digest (Ir.Printer.op_to_string md)
  in
  let lines =
    List.map
      (fun spec ->
        ( "lower-models/" ^ spec.Workloads.Models.sp_name,
          digest_of (Ir.Printer.op_to_string (Workloads.Models.build spec)) ))
      Workloads.Models.paper_models
    @ List.map
        (fun (spec, funcs) ->
          (Serve.job_key spec funcs, digest_of (Serve.payload_of spec funcs)))
        (Serve.job_specs ())
  in
  let oc = open_out path in
  List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) lines;
  close_out oc;
  Printf.printf "wrote %d digests to %s\n" (List.length lines) path

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--golden FILE] [--inject-faults] | --write-golden FILE";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--inject-faults" :: rest -> parse (("inject", "1") :: acc) rest
    | flag :: v :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  match get "write-golden" with
  | Some path -> write_golden path
  | None ->
    let int k = Option.bind (get k) int_of_string_opt in
    let workload = Option.value (get "workload") ~default:"" in
    let run =
      match List.assoc_opt workload workloads with
      | Some run -> run
      | None -> usage ()
    in
    let seed = Option.value (int "seed") ~default:1 in
    let seconds = Option.value (int "seconds") ~default:10 in
    let trace = int "trace" = Some 1 in
    let golden_path = Option.value (get "golden") ~default:"perfbench/golden.txt" in
    if not (Sys.file_exists golden_path) then begin
      Printf.eprintf "perfbench: golden digests %s not found\n" golden_path;
      exit 2
    end;
    let o =
      {
        seed;
        seconds = float_of_int seconds;
        trace;
        inject_faults = get "inject" <> None;
        golden = Golden.load golden_path;
      }
    in
    let origin = now () in
    let r = run o in
    if trace then begin
      (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
      Span.write
        ~path:(Fmt.str ".bench_out/trace-%s-seed%d.jsonl" workload seed)
        ~origin r.spans
    end;
    let stamp =
      Ir.Json.Obj
        ([
           ("workload", Ir.Json.String workload);
           ("seed", Ir.Json.Int seed);
           ("seconds", Ir.Json.Int seconds);
           ("trace", Ir.Json.Bool trace);
           ("nproc", Ir.Json.Int (Domain.recommended_domain_count ()));
           ("ocaml", Ir.Json.String Sys.ocaml_version);
           ( "otd_jobs",
             match Sys.getenv_opt "OTD_JOBS" with
             | Some j -> Ir.Json.String j
             | None -> Ir.Json.Null );
         ]
        @ r.notes)
    in
    print_endline (Ir.Json.to_line (Ir.Json.Obj [ ("stamp", stamp) ]));
    List.iter
      (fun (n, v, _) ->
        if not (Float.is_finite v) then begin
          Printf.eprintf "perfbench: metric %s = %f\n" n v;
          exit 1
        end)
      r.metrics;
    let metrics =
      List.map
        (fun (n, v, u) ->
          ( n,
            Ir.Json.Obj
              [ ("value", Ir.Json.Float v); ("unit", Ir.Json.String u) ] ))
        r.metrics
    in
    print_endline
      (Ir.Json.to_line
         (Ir.Json.Obj
            [
              ("correct", Ir.Json.Bool (r.failed = 0));
              ("attempted", Ir.Json.Int r.attempted);
              ("failed", Ir.Json.Int r.failed);
              ("metrics", Ir.Json.Obj metrics);
            ]))
