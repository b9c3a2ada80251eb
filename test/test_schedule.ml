(* Compiled transform schedules (Transform.Schedule): compiled-vs-interpreted
   parity on realistic scripts, statically flagged scripts that still
   compile with error parity against the dynamic checker, the
   content-addressed cache keyed by Ir.Fingerprint (source locations
   included), and the fingerprint's stability across textual roundtrips. *)

open Ir
open Testutil

let cs = Alcotest.string

let counter name =
  match Stats.find_counter ~component:"schedule" name with
  | Some c -> c
  | None -> Alcotest.failf "no schedule/%s counter" name

(* apply [script] to clones of [payload] through both modes; return the two
   outcomes and printed payloads *)
let both_modes script payload =
  let mi = Ircore.clone_op payload and mc = Ircore.clone_op payload in
  let ri = Transform.Schedule.run ~mode:`Interpret ctx ~script ~payload:mi in
  let rc = Transform.Schedule.run ~mode:`Compile ctx ~script ~payload:mc in
  ((ri, Printer.op_to_string mi), (rc, Printer.op_to_string mc))

let check_parity what script payload =
  let (ri, si), (rc, sc) = both_modes script payload in
  (match (ri, rc) with
  | Ok a, Ok b -> check ci (what ^ ": same steps") a b
  | Error a, Error b ->
    check cs
      (what ^ ": same error")
      (Transform.Terror.to_string a)
      (Transform.Terror.to_string b)
  | Ok _, Error e ->
    Alcotest.failf "%s: interpreted ok, compiled failed: %s" what
      (Transform.Terror.to_string e)
  | Error e, Ok _ ->
    Alcotest.failf "%s: compiled ok, interpreted failed: %s" what
      (Transform.Terror.to_string e));
  check cs (what ^ ": same payload IR") si sc

(* ---------------- parity on realistic scripts ---------------- *)

let test_parity_cs2_pipeline () =
  (* Case Study 2's lowering expressed as a transform script (the
     From_pipeline conversion): a chain of consuming pass applications *)
  let script =
    match
      Transform.From_pipeline.script_of_pipeline_str
        (String.concat "," Workloads.Subview_kernel.naive_pipeline)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "pipeline conversion: %s" (Diag.to_string e)
  in
  check_parity "cs2" script
    (Workloads.Subview_kernel.build Workloads.Subview_kernel.Static_offset)

let test_parity_loop_script () =
  (* tile + unroll on the matmul workload, Case-Study-4 style *)
  let script =
    Transform.Build.script (fun rw root ->
        let loop =
          Transform.Build.match_op rw ~select:"first" ~name:"scf.for" root
        in
        let outer, _inner = Transform.Build.loop_tile rw ~sizes:[ 4 ] loop in
        Transform.Build.loop_unroll rw ~factor:2 outer)
  in
  check_parity "tile+unroll" script (matmul ())

let test_parity_patterns () =
  (* apply_patterns: the compiled form pre-freezes the pattern set *)
  let script =
    Transform.Build.script (fun rw root ->
        Transform.Build.apply_patterns rw root
          (match Dialects.Shlo_patterns.names () with
          | a :: b :: c :: _ -> [ a; b; c ]
          | names -> names))
  in
  check_parity "patterns" script (matmul ())

let test_parity_include () =
  (* include is inlined at compile time; handle-yield binding must match
     the interpreter's *)
  let script =
    Transform.Build.script (fun rw root ->
        let inc =
          Transform.Build.include_ rw ~target:"helper" [ root ] ~results:1
        in
        Transform.Build.annotate rw ~name:"test.outer"
          (Ircore.result ~index:0 inc))
  in
  ignore
    (Transform.Build.named_sequence script ~name:"helper" ~num_args:1
       (fun rw args ->
         let loops =
           Transform.Build.match_op rw ~name:"scf.for" (List.hd args)
         in
         Transform.Build.annotate rw ~name:"test.inner" loops;
         [ loops ]));
  let s = Transform.Schedule.of_script ctx script in
  check cb "include script compiles" true (Transform.Schedule.is_compiled s);
  check cb "include body is inlined, not a fallback" true
    (Transform.Schedule.fallback_count s = 0);
  check_parity "include" script (matmul ())

let test_parity_silenceable_failure () =
  (* split_handle with the wrong arity fails silenceably; both modes must
     produce the identical error *)
  let script =
    Transform.Build.script (fun rw root ->
        let adds = Transform.Build.match_op rw ~name:"arith.addi" root in
        ignore (Transform.Build.split_handle rw ~n:7 adds))
  in
  check_parity "split-mismatch" script (matmul ())

(* ---------------- error parity and fallbacks ---------------- *)

let test_consumed_script_compiles () =
  (* the static checker flags reuse-after-consume; the schedule still
     compiles, keeps the static findings, and reports exactly what the
     dynamic checker reports *)
  let script =
    Transform.Build.script (fun rw root ->
        let loop = Transform.Build.match_op rw ~name:"scf.for" root in
        ignore (Transform.Build.loop_tile rw ~sizes:[ 4 ] loop);
        (* loop was consumed by tile *)
        Transform.Build.loop_unroll rw ~factor:2 loop)
  in
  let s = Transform.Schedule.of_script ctx script in
  check cb "compiles" true (Transform.Schedule.is_compiled s);
  check cb "static diagnostics surface" true
    (Transform.Schedule.static_diags s <> []);
  check_parity "use-after-consume" script (matmul ())

let test_fallback_constructs () =
  (* alternatives and nested suppress sequences execute as interpreter
     fallbacks inside an otherwise compiled schedule *)
  let script =
    Transform.Build.script (fun rw root ->
        let funcs = Transform.Build.match_op rw ~name:"func.func" root in
        Transform.Build.annotate rw ~name:"test.pre" funcs;
        Transform.Build.alternatives rw
          [
            (fun brw ->
              ignore
                (Transform.Build.apply_registered_pass brw
                   ~pass_name:"canonicalize" root));
          ])
  in
  let s = Transform.Schedule.of_script ctx script in
  check cb "compiles" true (Transform.Schedule.is_compiled s);
  check cb "has a fallback instr" true (Transform.Schedule.fallback_count s > 0);
  let fallbacks_before = Stats.value (counter "fallbacks") in
  (match Transform.Schedule.apply s ~payload:(matmul ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "apply: %s" (Transform.Terror.to_string e));
  check cb "fallback counter ticks" true
    (Stats.value (counter "fallbacks") > fallbacks_before);
  check_parity "alternatives" script (matmul ())

(* ---------------- cache ---------------- *)

let test_cache_hit_on_reapply () =
  Transform.Schedule.clear_cache ();
  let script =
    Transform.Build.script (fun rw root ->
        let funcs = Transform.Build.match_op rw ~name:"func.func" root in
        Transform.Build.annotate rw ~name:"test.cached" funcs)
  in
  let hits0 = Stats.value (counter "cache_hits") in
  let misses0 = Stats.value (counter "cache_misses") in
  (match Transform.Schedule.run ctx ~script ~payload:(matmul ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first apply: %s" (Transform.Terror.to_string e));
  check ci "first application misses" (misses0 + 1)
    (Stats.value (counter "cache_misses"));
  (match Transform.Schedule.run ctx ~script ~payload:(matmul ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second apply: %s" (Transform.Terror.to_string e));
  check ci "second application hits" (hits0 + 1)
    (Stats.value (counter "cache_hits"));
  check ci "no second miss" (misses0 + 1) (Stats.value (counter "cache_misses"))

let test_cache_hits_across_reparse () =
  Transform.Schedule.clear_cache ();
  let script =
    Transform.Build.script (fun rw root ->
        let funcs = Transform.Build.match_op rw ~name:"func.func" root in
        Transform.Build.annotate rw ~name:"test.reparsed" funcs)
  in
  ignore (Transform.Schedule.of_script ctx script);
  let hits0 = Stats.value (counter "cache_hits") in
  (* a re-parsed copy is a different object with different ids but the same
     structure: the fingerprint must find the cached schedule *)
  let reparsed =
    match Parser.parse_module (Printer.op_to_string script) with
    | Ok m -> m
    | Error e -> Alcotest.failf "reparse: %s" e
  in
  ignore (Transform.Schedule.of_script ctx reparsed);
  check ci "reparsed script hits the cache" (hits0 + 1)
    (Stats.value (counter "cache_hits"))

(* a script whose split_handle fails silenceably on matmul (its handle
   does not hold 7 ops), reporting the split op's location in [file] *)
let split_script_at file =
  let text =
    Fmt.str
      {|"builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%%root: !transform.any_op):
    %%adds = "transform.match_op"(%%root) {op_name = "arith.addi"} : (!transform.any_op) -> !transform.any_op
    %%parts:7 = "transform.split_handle"(%%adds) : (!transform.any_op) -> (!transform.any_op, !transform.any_op, !transform.any_op, !transform.any_op, !transform.any_op, !transform.any_op, !transform.any_op) loc(%S:5:5)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()|}
      file
  in
  match Parser.parse_module text with
  | Ok m -> m
  | Error e -> Alcotest.failf "parse: %s" e

let test_cache_keys_on_locations () =
  (* the structural fingerprint ignores locations; the cache key must not,
     or a script differing only in loc(...) reports the first one's *)
  Transform.Schedule.clear_cache ();
  let error_of mode file =
    match
      Transform.Schedule.run ~mode ctx ~script:(split_script_at file)
        ~payload:(matmul ())
    with
    | Ok _ -> Alcotest.failf "%s: split_handle unexpectedly succeeded" file
    | Error e -> Transform.Terror.to_string e
  in
  let first = error_of `Compile "first.mlir" in
  check cb "first script reports its location" true
    (contains first "first.mlir");
  let second = error_of `Compile "second.mlir" in
  check cs "second script: compiled error = interpreted error"
    (error_of `Interpret "second.mlir")
    second;
  check cb "second script reports its own location" true
    (contains second "second.mlir" && not (contains second "first.mlir"))

(* ---------------- fingerprint ---------------- *)

let test_fingerprint_roundtrip_stable () =
  let stable what m =
    let fp1 = Fingerprint.op m in
    let m2 =
      match Parser.parse_module (Printer.op_to_string m) with
      | Ok m2 -> m2
      | Error e -> Alcotest.failf "%s: reparse: %s" what e
    in
    check cs
      (what ^ ": fingerprint survives parse->print->parse")
      (Fingerprint.to_hex fp1)
      (Fingerprint.to_hex (Fingerprint.op m2))
  in
  let script_asset =
    (* locate the shipped script relative to the dune workspace root *)
    let rec find dir =
      let candidate =
        Filename.concat dir "examples/scripts/tile_and_unroll.mlir"
      in
      if Sys.file_exists candidate then candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then Alcotest.fail "tile_and_unroll.mlir not found"
        else find parent
    in
    find (Sys.getcwd ())
  in
  stable "script" (parse_file script_asset);
  stable "payload" (matmul ())

let test_fingerprint_discriminates () =
  let s1 =
    Transform.Build.script (fun rw root ->
        Transform.Build.annotate rw ~name:"a" root)
  in
  let s2 =
    Transform.Build.script (fun rw root ->
        Transform.Build.annotate rw ~name:"b" root)
  in
  check cb "different scripts, different fingerprints" false
    (Fingerprint.equal (Fingerprint.op s1) (Fingerprint.op s2))

let () =
  Alcotest.run "schedule"
    [
      ( "parity",
        [
          Alcotest.test_case "cs2-pipeline" `Quick test_parity_cs2_pipeline;
          Alcotest.test_case "tile-unroll" `Quick test_parity_loop_script;
          Alcotest.test_case "apply-patterns" `Quick test_parity_patterns;
          Alcotest.test_case "include-inlined" `Quick test_parity_include;
          Alcotest.test_case "silenceable-failure" `Quick
            test_parity_silenceable_failure;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "use-after-consume" `Quick
            test_consumed_script_compiles;
          Alcotest.test_case "fallback-constructs" `Quick
            test_fallback_constructs;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit-on-reapply" `Quick test_cache_hit_on_reapply;
          Alcotest.test_case "hit-across-reparse" `Quick
            test_cache_hits_across_reparse;
          Alcotest.test_case "keys-on-locations" `Quick
            test_cache_keys_on_locations;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "roundtrip-stable" `Quick
            test_fingerprint_roundtrip_stable;
          Alcotest.test_case "discriminates" `Quick
            test_fingerprint_discriminates;
        ] );
    ]
