(** Compiled transform schedules: the unified entry point for applying a
    transform script to payload IR.

    The sequential interpreter ({!Interp}) re-walks the script IR on every
    application: every op re-matches its name against the structural
    constructs, re-resolves its implementation through {!Treg}, re-resolves
    [include] targets through symbol lookup and re-freezes the pattern sets
    of [apply_patterns]. A schedule performs all of that resolution {e once}
    at compile time and lowers the entry sequence into a flat instruction
    array:

    - registered transform ops become [Dispatch] instructions carrying the
      resolved {!Treg.def} and the precomputed consumed-operand list;
    - [transform.apply_patterns] is compiled to a dispatch of a specialized
      definition closing over the pattern set frozen once
      ({!Ir.Frozen_patterns});
    - [transform.include] is resolved and its callee body compiled inline
      ([Include]), so calls no longer pay symbol lookup;
    - dynamic constructs — [foreach], [alternatives], nested sequences,
      unresolvable includes — compile to [Fallback] thunks that re-enter the
      sequential interpreter op by op, on the same {!State}.

    Execution semantics are identical to interpretation by construction:
    both paths share {!Interp.dispatch_registered} (pre/post-condition
    checks, consumption snapshot/commit, the exception barrier, tracing),
    the per-op budget/statistics/profiler preamble and the one handle table
    of {!State}, whose lookups report use-after-consume. So every script
    with an entry compiles, including those the static use-after-consume
    analysis ({!Invalidation}) flags: its findings are kept as
    {!static_diags}, and the dynamic errors are the interpreter's. A script
    is interpreted whole only under [`Interpret], without a well-formed
    entry, or when an action handler vetoes its compilation.

    Schedules are cached content-addressed: {!of_script} keys the cache by
    the script's structural fingerprint ({!Ir.Fingerprint}) including
    source locations, so re-applying a structurally identical script — even
    one re-parsed from text — reuses the compiled form, while a script that
    differs only in [loc(...)] gets its own diagnostics. Cache traffic is
    visible as [schedule/cache_hits], [schedule/cache_misses] and
    [schedule/compile_ms] in {!Ir.Stats}; compilation and application
    record [schedule.compile]/[schedule.apply] spans in {!Ir.Profiler}. *)

open Ir

let ( let* ) = Result.bind

(* global statistics (Ir.Stats), namespaced under component "schedule" *)
let stat_cache_hits = Stats.counter ~component:"schedule" "cache_hits"
let stat_cache_misses = Stats.counter ~component:"schedule" "cache_misses"

let stat_fallbacks =
  Stats.counter ~component:"schedule" "fallbacks"
    ~desc:"interpreter fallback thunks executed by compiled schedules"

let stat_compiles = Stats.counter ~component:"schedule" "compiles"

let stat_evictions =
  Stats.counter ~component:"schedule" "cache_evictions"
    ~desc:"full cache drops after exceeding the capacity bound"

let stat_compile_ms = Stats.histogram ~component:"schedule" "compile_ms"

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

type instr =
  | Dispatch of {
      i_op : Ircore.op;
      i_def : Treg.def;  (** resolved at compile time *)
      i_consumed : int list;  (** precomputed consumed-operand indices *)
    }
  | Include of {
      i_op : Ircore.op;  (** the [transform.include] op *)
      i_callee : string;
      i_args : Ircore.value list;  (** callee block arguments *)
      i_body : instr array;
      i_yield : Ircore.op option;  (** callee terminator, when present *)
    }
  | Fallback of Ircore.op
      (** re-enter the sequential interpreter for this op *)

type entry_kind =
  | Entry_named of Ircore.value option
      (** named_sequence entry; payload root bound to the argument *)
  | Entry_seq of { e_op : Ircore.op; e_root : Ircore.value option }
      (** plain [transform.sequence] entry with propagate semantics: the
          sequence op itself charges one step, like interpretation *)
  | Entry_top  (** body only (e.g. a single whole-entry fallback thunk) *)

type compiled = {
  c_kind : entry_kind;
  c_body : instr array;
  c_instrs : int;  (** compiled instructions, includes nested *)
  c_static_fallbacks : int;  (** Fallback instructions, includes nested *)
}

type form =
  | Compiled of compiled
  | Interpreted of string  (** reason the script is not compiled *)

type t = {
  s_ctx : Context.t;
  s_script : Ircore.op;
  s_fingerprint : Fingerprint.t;  (** structure and source locations *)
  s_diags : Invalidation.diagnostic list;
      (** static use-after-consume diagnostics found at compile time *)
  s_form : form;
  s_flow : Flowcheck.report option;
      (** annotation-flow report, when [of_script ~flow:true] was asked
          for; a failing report gates {!apply} before any payload is
          touched. Never stored in the schedule cache — the cache key is
          the script fingerprint alone, which does not cover the flow
          option — so it is recomputed fresh per [of_script] call. *)
}

type mode = [ `Compile | `Interpret ]

let fingerprint s = s.s_fingerprint
let is_compiled s = match s.s_form with Compiled _ -> true | _ -> false
let static_diags s = s.s_diags
let flow_report s = s.s_flow

(** Why the schedule interprets instead of dispatching compiled code;
    [None] when compiled. *)
let interpreted_reason s =
  match s.s_form with Compiled _ -> None | Interpreted r -> Some r

let instr_count s =
  match s.s_form with Compiled c -> c.c_instrs | Interpreted _ -> 0

let fallback_count s =
  match s.s_form with Compiled c -> c.c_static_fallbacks | Interpreted _ -> 0

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let script_root op =
  let rec up o =
    match Ircore.parent_op o with None -> o | Some p -> up p
  in
  up op

(* resolve an include target exactly like Interp.run_include, but at
   compile time; None = let the interpreter produce the (identical) error
   or handle the dynamic case at apply time *)
let resolve_include root op =
  match Ircore.attr op "target" with
  | Some (Attr.Symbol_ref (callee, _)) -> (
    match Symbol.lookup_in ~table:root callee with
    | Some t -> Some (callee, t)
    | None -> (
      match
        Symbol.collect root ~f:(fun o ->
            o.Ircore.op_name = Ops.named_sequence_op
            && Symbol.symbol_name o = Some callee)
      with
      | t :: _ -> Some (callee, t)
      | [] -> None))
  | _ -> None

let rec compile_block ~root ~stack (ops : Ircore.op list) : instr list =
  match ops with
  | [] -> []
  | op :: rest ->
    if op.Ircore.op_name = Ops.yield_op then []
    else
      let instrs = compile_op ~root ~stack op in
      instrs @ compile_block ~root ~stack rest

and compile_op ~root ~stack (op : Ircore.op) : instr list =
  match op.Ircore.op_name with
  | "transform.named_sequence" ->
    (* declaration: skipped during sequential execution *)
    []
  | "transform.sequence" | "transform.alternatives" | "transform.foreach" ->
    (* dynamic control flow (iteration, transactional regions): executed by
       the interpreter on the shared state *)
    [ Fallback op ]
  | "transform.include" -> (
    match resolve_include root op with
    | None -> [ Fallback op ] (* unresolved: interpreter reports it *)
    | Some (callee, target) ->
      if List.memq target stack then
        (* recursive include: no finite unrolling; leave it dynamic *)
        [ Fallback op ]
      else (
        match target.Ircore.regions with
        | [ r ] -> (
          match Ircore.region_first_block r with
          | None -> [ Fallback op ]
          | Some body ->
            let args = Ircore.block_args body in
            if List.length args <> Ircore.num_operands op then
              [ Fallback op ] (* arity mismatch: interpreter reports it *)
            else
              let yield =
                match Ircore.block_last_op body with
                | Some y when y.Ircore.op_name = Ops.yield_op -> Some y
                | _ -> None
              in
              let body_instrs =
                compile_block ~root ~stack:(target :: stack)
                  (Ircore.block_ops body)
              in
              [
                Include
                  {
                    i_op = op;
                    i_callee = callee;
                    i_args = args;
                    i_body = Array.of_list body_instrs;
                    i_yield = yield;
                  };
              ])
        | _ -> [ Fallback op ]))
  | name -> (
    match Treg.lookup name with
    | None -> [ Fallback op ] (* unknown op: interpreter reports it *)
    | Some def ->
      if name = Ops.apply_patterns_op then
        let patterns, missing = Ops.collect_patterns op in
        if missing <> [] then [ Fallback op ]
        else
          (* pre-freeze the pattern set once; applications dispatch a
             specialized definition through the normal registered path, so
             interceptors, tracing and the exception barrier still apply *)
          let frozen = Frozen_patterns.freeze patterns in
          let fast_def =
            {
              def with
              Treg.t_apply =
                (fun st op -> Ops.apply_frozen_patterns st op frozen);
            }
          in
          [ Dispatch { i_op = op; i_def = fast_def; i_consumed = [] } ]
      else
        [ Dispatch { i_op = op; i_def = def; i_consumed = Treg.consumes def op } ]
  )

let count_instrs body =
  let rec go (total, fallbacks) = function
    | Dispatch _ -> (total + 1, fallbacks)
    | Fallback _ -> (total + 1, fallbacks + 1)
    | Include { i_body; _ } ->
      Array.fold_left go (total + 1, fallbacks) i_body
  in
  Array.fold_left go (0, 0) body

let compile script =
  let diags = Invalidation.analyze script in
  match Interp.find_entry script with
  | None -> (diags, Interpreted "no entry point")
  | Some entry -> (
    let root = script_root entry in
    let finish kind body =
      let instrs, fallbacks = count_instrs body in
      ( diags,
        Compiled
          {
            c_kind = kind;
            c_body = body;
            c_instrs = instrs;
            c_static_fallbacks = fallbacks;
          } )
    in
    match entry.Ircore.op_name with
    | "transform.sequence" -> (
      let suppress =
        match Ircore.attr entry "failure_propagation" with
        | Some (Attr.String "suppress") -> true
        | _ -> false
      in
      if suppress then
        (* transactional entry: keep the interpreter's checkpoint logic *)
        finish Entry_top [| Fallback entry |]
      else
        match entry.Ircore.regions with
        | [ r ] -> (
          match Ircore.region_first_block r with
          | None -> finish Entry_top [||]
          | Some b ->
            let e_root =
              match Ircore.block_args b with [ v ] -> Some v | _ -> None
            in
            let body =
              compile_block ~root ~stack:[] (Ircore.block_ops b)
            in
            finish
              (Entry_seq { e_op = entry; e_root })
              (Array.of_list body))
        | _ -> (diags, Interpreted "malformed sequence entry"))
    | _ -> (
      match entry.Ircore.regions with
      | [ r ] -> (
        match Ircore.region_first_block r with
        | None -> finish (Entry_named None) [||]
        | Some b ->
          let arg =
            match Ircore.block_args b with v :: _ -> Some v | [] -> None
          in
          let body = compile_block ~root ~stack:[] (Ircore.block_ops b) in
          finish (Entry_named arg) (Array.of_list body))
      | _ -> (diags, Interpreted "malformed named_sequence entry")))

(* ------------------------------------------------------------------ *)
(* Content-addressed cache                                             *)
(* ------------------------------------------------------------------ *)

let cache : (Fingerprint.t, t) Hashtbl.t = Hashtbl.create 16

(* the cache is process-global and parallel fuzz campaigns compile from
   worker domains, so accesses are serialized (compilation itself runs
   outside the lock) *)
let cache_mu = Mutex.create ()

let with_cache f =
  Mutex.lock cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mu) f

(** Bound on distinct cached schedules; exceeding it drops the whole cache
    (autotuning loops generate unbounded families of one-shot scripts). *)
let cache_capacity = 512

let clear_cache () = with_cache (fun () -> Hashtbl.reset cache)

let schedule_of ?(mode : mode = `Compile) ctx (script : Ircore.op) : t =
  (* locations are part of the key: cached schedules carry the script ops
     whose locations diagnostics, traces and journals report *)
  let fp = Fingerprint.op ~locs:true script in
  match mode with
  | `Interpret ->
    {
      s_ctx = ctx;
      s_script = script;
      s_fingerprint = fp;
      s_diags = [];
      s_form = Interpreted "interpretation requested";
      s_flow = None;
    }
  | `Compile -> (
    match with_cache (fun () -> Hashtbl.find_opt cache fp) with
    | Some cached ->
      Stats.incr stat_cache_hits;
      (* same structure and locations: the cached schedule (compiled
         against its own copy of the script IR) applies unchanged *)
      { cached with s_ctx = ctx }
    | None ->
      Stats.incr stat_cache_misses;
      Stats.incr stat_compiles;
      let t0 = Unix.gettimeofday () in
      (* schedule compilation is itself an action: a vetoed compile (debug
         counter) degrades to interpretation instead of running miscompiled
         code half-built — and is never cached, so later uncounted runs
         still compile *)
      let skipped_reason = "schedule compilation skipped by action handler" in
      let diags, form =
        Action.run ~tag:"schedule.compile"
          ~desc:(Fingerprint.to_hex fp) ~loc:script.Ircore.op_loc
          ~root:script
          ~skipped:([], Interpreted skipped_reason)
          (fun () ->
            Profiler.span ~cat:"schedule" "schedule.compile" @@ fun () ->
            compile script)
      in
      Stats.observe stat_compile_ms ((Unix.gettimeofday () -. t0) *. 1e3);
      let action_skipped =
        match form with
        | Interpreted r -> String.equal r skipped_reason
        | Compiled _ -> false
      in
      let s =
        {
          s_ctx = ctx;
          s_script = script;
          s_fingerprint = fp;
          s_diags = diags;
          s_form = form;
          s_flow = None;
        }
      in
      if not action_skipped then
        with_cache (fun () ->
            if Hashtbl.length cache >= cache_capacity then begin
              Stats.incr stat_evictions;
              Hashtbl.reset cache
            end;
            Hashtbl.replace cache fp s);
      s)

(** Lower [script] to a schedule. [`Compile] (default) consults the
    content-addressed cache and compiles on miss; [`Interpret] returns an
    uncached schedule whose {!apply} is exactly sequential interpretation.
    [~flow:true] additionally runs the static annotation-flow checker
    ({!Flowcheck.check}) over the script; a failing report makes {!apply}
    return its structured diagnostics as a definite error before any
    payload is touched. The flow report is attached fresh to the returned
    schedule and never enters the schedule cache. *)
let of_script ?(flow = false) ?mode ctx (script : Ircore.op) : t =
  let s = schedule_of ?mode ctx script in
  if not flow then s else { s with s_flow = Some (Flowcheck.check script) }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* per-instruction preamble, identical to Interp.run_op's: one step, one
   ops_executed tick, one budget unit, one profiler span *)
let with_preamble st (op : Ircore.op) f =
  st.State.steps <- st.State.steps + 1;
  Stats.incr Interp.stat_ops_executed;
  match Budget.step () with
  | Some reason ->
    Terror.silenceable ~loc:op.Ircore.op_loc
      "transform interpreter stopped: %s" reason
  | None -> Profiler.span ~cat:"transform" op.Ircore.op_name f

let rec exec_instr st = function
  | Fallback op ->
    Stats.incr stat_fallbacks;
    Interp.run_op st op
  | Dispatch { i_op; i_def; i_consumed } ->
    with_preamble st i_op @@ fun () ->
    Interp.dispatch_registered ~consumed:i_consumed st i_def i_op
  | Include { i_op; i_args; i_body; i_yield; i_callee = _ } ->
    with_preamble st i_op @@ fun () ->
    (* bind arguments: copy handle/param associations, like run_include *)
    let rec bind i = function
      | [] -> Ok ()
      | arg :: rest ->
        let operand = Ircore.operand ~index:i i_op in
        let* () =
          if State.is_param_typ (Ircore.value_typ operand) then
            let* ps = State.lookup_params st operand in
            State.set_params st arg ps;
            Ok ()
          else
            let* ops = State.lookup_handle st operand in
            State.set_handle st arg ops;
            Ok ()
        in
        if st.State.config.State.check_annotations then
          State.copy_annots st ~src:operand ~dst:arg;
        bind (i + 1) rest
    in
    let* () = bind 0 i_args in
    let* () = exec_body st i_body in
    (* bind yielded values to include results *)
    (match i_yield with
    | Some y ->
      List.iteri
        (fun i yielded ->
          if i < Ircore.num_results i_op then begin
            (if State.is_param_typ (Ircore.value_typ yielded) then
               match State.lookup_params st yielded with
               | Ok ps -> State.set_params st (Ircore.result ~index:i i_op) ps
               | Error _ -> ()
             else
               match State.lookup_handle st yielded with
               | Ok ops -> State.set_handle st (Ircore.result ~index:i i_op) ops
               | Error _ -> ());
            if st.State.config.State.check_annotations then
              State.copy_annots st ~src:yielded
                ~dst:(Ircore.result ~index:i i_op)
          end)
        (Ircore.operands y)
    | None -> ());
    Ok ()

and exec_body st (body : instr array) =
  let n = Array.length body in
  let rec go i =
    if i >= n then Ok ()
    else
      let* () = exec_instr st body.(i) in
      go (i + 1)
  in
  go 0

let apply_compiled ~config ctx c ~payload =
  let st = State.create ~config ctx payload in
  let result =
    (* forced budget check at entry, mirroring Interp.apply_interpreted *)
    match Budget.checkpoint () with
    | Some reason ->
      Terror.silenceable "transform interpreter stopped: %s" reason
    | None -> (
      match c.c_kind with
      | Entry_top -> exec_body st c.c_body
      | Entry_named arg ->
        (match arg with
        | Some root -> State.set_handle st root [ payload ]
        | None -> ());
        exec_body st c.c_body
      | Entry_seq { e_op; e_root } ->
        (* the sequence op itself is one interpreted step *)
        with_preamble st e_op @@ fun () ->
        (match e_root with
        | Some root -> State.set_handle st root [ payload ]
        | None -> ());
        exec_body st c.c_body)
  in
  match result with
  | Ok () -> Ok st.State.steps
  | Error e -> Error e

(** Apply a schedule to [payload]. Same contract as the interpreter:
    returns the number of executed transform steps, or the first
    silenceable/definite error. *)
let apply ?(config = State.default_config) (s : t) ~payload :
    (int, Terror.t) result =
  Profiler.span ~cat:"schedule" "schedule.apply" @@ fun () ->
  match s.s_flow with
  | Some r when not (Flowcheck.ok r) ->
    (* flow gate: statically unsound schedules never touch the payload *)
    Terror.definite_diag (Flowcheck.to_diag r)
  | _ -> (
    match s.s_form with
    | Interpreted _ ->
      Interp.apply_interpreted ~config s.s_ctx ~script:s.s_script ~payload
    | Compiled c -> apply_compiled ~config s.s_ctx c ~payload)

(** One-shot facade: compile (against the cache) and apply. Drop-in
    replacement for the deprecated [Interp.apply];
    [run ~mode:`Interpret] is exactly sequential interpretation, and
    [run ~flow:true] rejects statically unsound annotation flow before
    touching the payload. *)
let run ?flow ?mode ?config ctx ~script ~payload =
  apply ?config (of_script ?flow ?mode ctx script) ~payload
