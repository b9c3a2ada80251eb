(** The transform interpreter (Section 3): executes a Transform script
    against a payload program, maintaining the handle association table,
    dispatching to registered transform implementations, and providing the
    silenceable/definite error discipline.

    Structural ops are interpreted here:
    - [transform.sequence]: binds its block argument to the payload root and
      runs its body;
    - [transform.named_sequence]: a declaration; executed only via
      [transform.include] (or as the main entry point);
    - [transform.include]: inlined call — operands bound to the callee's
      block arguments, the callee's [transform.yield] operands bound to the
      include's results;
    - [transform.alternatives]: runs regions in order until one succeeds,
      suppressing silenceable errors of failed regions. Each region runs
      inside a transaction: a payload+state checkpoint ({!State.checkpoint})
      is taken before the region and rolled back on silenceable failure, so
      even a region that already mutated the payload leaves it byte-
      identical for the next alternative. A definite error aborts the whole
      op immediately, without rollback;
    - [transform.foreach]: runs its region once per payload op of the
      operand handle (a snapshot taken up front; payload erased by an
      earlier iteration fails silenceably instead of dangling).

    Robustness: every dispatch to a registered transform runs behind an
    exception barrier converting raised OCaml exceptions into definite
    errors carrying the backtrace as notes, and each interpreted op charges
    one step against the ambient {!Ir.Budget} so runaway scripts degrade
    into clean silenceable failures. *)

open Ir

let ( let* ) = Result.bind

(* global statistics (Ir.Stats) *)
let stat_ops_executed = Stats.counter ~component:"transform" "ops_executed"

let stat_suppressed =
  Stats.counter ~component:"transform" "silenceable_suppressed"

let stat_exceptions_contained =
  Stats.counter ~component:"transform" "exceptions_contained"
    ~desc:"OCaml exceptions converted to definite errors by the barrier"

(** Exceptions that must never be swallowed by a containment barrier. *)
let fatal_exn = function
  | Sys.Break | Out_of_memory -> true
  | _ -> false

let rec run_block st (block : Ircore.block) : (unit, Terror.t) result =
  let rec go = function
    | [] -> Ok ()
    | op :: rest ->
      if op.Ircore.op_name = Ops.yield_op then Ok ()
      else
        let* () = run_op st op in
        go rest
  in
  go (Ircore.block_ops block)

and run_region st (region : Ircore.region) =
  match Ircore.region_first_block region with
  | None -> Ok ()
  | Some b -> run_block st b

and run_op st (op : Ircore.op) : (unit, Terror.t) result =
  st.State.steps <- st.State.steps + 1;
  Stats.incr stat_ops_executed;
  (* cooperative budget: each interpreted transform op is one unit of work;
     exhaustion is sticky, so enclosing retries (alternatives) fail fast *)
  match Budget.step () with
  | Some reason ->
    Terror.silenceable ~loc:op.Ircore.op_loc
      "transform interpreter stopped: %s" reason
  | None -> (
  (* one profiler span per interpreted transform op: structural ops
     (sequence, foreach, alternatives) nest the spans of their bodies *)
  Profiler.span ~cat:"transform" op.Ircore.op_name @@ fun () ->
  match op.Ircore.op_name with
  | "transform.sequence" -> (
    match op.Ircore.regions with
    | [ r ] -> (
      match Ircore.region_first_block r with
      | None -> Ok ()
      | Some b ->
        (match Ircore.block_args b with
        | [ root ] -> State.set_handle st root [ st.State.payload_root ]
        | [] -> ()
        | _ ->
          ());
        let suppress =
          match Ircore.attr op "failure_propagation" with
          | Some (Attr.String "suppress") -> true
          | _ -> false
        in
        if not suppress then run_block st b
        else begin
          (* failures(suppress): the body runs inside a transaction — a
             silenceable failure rolls payload and handles back and is
             downgraded to an emitted (but suppressed) warning *)
          let acur = Action.cursor () in
          let ck = State.checkpoint st in
          match run_block st b with
          | Ok () ->
            State.discard_checkpoint ck;
            Ok ()
          | Error (Terror.Silenceable d) ->
            State.rollback st ck;
            (* the rolled-back actions stay journaled, re-marked reverted *)
            Action.revert_since acur;
            Stats.incr stat_suppressed;
            Trace.record
              (Trace.Suppressed
                 { su_construct = "transform.sequence"; su_diag = d });
            Context.emit_diag st.State.ctx
              (Diag.warning ~loc:(Diag.loc d)
                 ~notes:
                   (Diag.notes d
                   @ [
                       Diag.note
                         "suppressed by failures(suppress); payload rolled \
                          back";
                     ])
                 "%s" (Diag.message d));
            Ok ()
          | Error (Terror.Definite _) as e ->
            State.discard_checkpoint ck;
            e
        end)
    | _ -> Terror.definite "transform.sequence must have one region")
  | "transform.named_sequence" ->
    (* declaration: skipped during sequential execution *)
    Ok ()
  | "transform.include" -> run_include st op
  | "transform.alternatives" -> run_alternatives st op
  | "transform.foreach" -> run_foreach st op
  | name -> (
    match Treg.lookup name with
    | None ->
      Terror.definite "unknown transform operation %s (not registered)" name
    | Some def -> dispatch_registered st def op))

(** Dispatch one registered transform op: pre-condition check, consumption
    snapshot, exception barrier around the implementation, trace recording,
    consumption commit, post-condition check and (optional) payload
    re-verification. Shared between sequential interpretation ({!run_op})
    and the compiled-schedule executor ({!Schedule}), which resolves [def]
    and [consumed] ahead of time. *)
and dispatch_registered ?consumed st (def : Treg.def) (op : Ircore.op) :
    (unit, Terror.t) result =
  (* the single action site for registered transforms: both sequential
     interpretation and the compiled-schedule executor land here, so a
     [--debug-counter=transform:…] bisection sees the same stream either
     way. A skipped dispatch succeeds vacuously (its result handles stay
     empty), like a transform whose pre-condition matched nothing. *)
  match Action.active () with
  | None -> dispatch_registered_impl ?consumed st def op
  | Some a ->
    Action.run_on a ~tag:"transform" ~desc:def.Treg.t_name
      ~loc:op.Ircore.op_loc ~root:op ~skipped:(Ok ()) (fun () ->
        dispatch_registered_impl ?consumed st def op)

and dispatch_registered_impl ?consumed st (def : Treg.def) (op : Ircore.op) :
    (unit, Terror.t) result =
  let name = def.Treg.t_name in
  let consumed =
    match consumed with Some c -> c | None -> Treg.consumes def op
  in
  (* annotation requires-clauses come first: using a handle that lacks a
     declared property is a script bug (definite), reported before any
     payload inspection so the static checker can mirror it exactly *)
  let* () =
    if st.State.config.State.check_annotations then check_requires st def op
    else Ok ()
  in
  (* the dynamic pre-condition check applies to *consuming* transforms
     only: they demand their payload kind to be present, whereas a
     non-consuming transform (pass application, hoisting) with nothing
     matching its pre-condition is a legal no-op — the phase-ordering
     variant of that situation is what the static checker's Vacuous
     diagnostic reports. *)
  let* () =
    if st.State.config.State.check_conditions && consumed <> [] then
      check_preconditions st def op
    else Ok ()
  in
  (* snapshot before the transform mutates the payload, commit only on
     success: a silenceable failure leaves both payload and handles
     usable, while success invalidates every handle that pointed into
     the consumed payload (Section 3.1) *)
  let snapshot =
    if consumed = [] then None
    else
      Some
        (State.snapshot_consumption st
           (List.map (fun idx -> Ircore.operand ~index:idx op) consumed))
  in
  let post_check =
    if st.State.config.State.check_conditions then
      prepare_post_check st def op
    else None
  in
  (* attach the failing transform op (and its source location, when the
     script came from text) to the error *)
  let with_context d =
    Diag.add_note
      (Diag.with_loc_if_unknown d op.Ircore.op_loc)
      (Diag.note "while applying %s" name)
  in
  let handle_sizes values =
    List.filter_map (fun v -> State.handle_size st v) values
  in
  let in_sizes =
    if Trace.tracing () then handle_sizes (Ircore.operands op) else []
  in
  let* () =
    (* exception barrier: a raised OCaml exception becomes a definite
       error with the backtrace attached, instead of unwinding through
       the driver with the IR in an arbitrary state *)
    match Treg.apply def st op with
    | Ok () -> Ok ()
    | Error e -> Error (Terror.map_diag with_context e)
    | exception e when not (fatal_exn e) ->
      let bt = Printexc.get_raw_backtrace () in
      Stats.incr stat_exceptions_contained;
      Terror.definite_diag
        (with_context
           (Diag.of_exn ~loc:op.Ircore.op_loc
              ~context:(Fmt.str "transform %s" name) e bt))
  in
  if Trace.tracing () then
    Trace.record
      (Trace.Transform
         {
           tr_op = name;
           tr_loc = op.Ircore.op_loc;
           tr_in = in_sizes;
           tr_out = handle_sizes (Ircore.results op);
         });
  (match snapshot with
  | Some snap -> State.commit_consumption st ~by:name snap
  | None -> ());
  let* () =
    match post_check with
    | Some check -> check ()
    | None -> Ok ()
  in
  let* () =
    (* a pure transform never touches payload IR, so re-verifying after it
       cannot observe anything new — skip the O(payload) walk *)
    if st.State.config.State.expensive_checks && not (Treg.is_pure def) then
      match Verifier.verify st.State.ctx st.State.payload_root with
      | Ok () -> Ok ()
      | Error diags ->
        Terror.definite "payload verification failed after %s: %a" name
          (Fmt.list ~sep:Fmt.comma Diag.pp)
          diags
    else Ok ()
  in
  (* ensures-clauses are recorded only after full success, so a failed
     transform never claims its properties *)
  if st.State.config.State.check_annotations then record_ensures st def op;
  Ok ()

(** Check the declared {!Annot} requires-clauses of [def] against the
    accumulated property sets of the operand handles. Failures are definite
    and tagged with {!Annot.requirement_tag} so the differential fuzz
    oracle can tell them from other definite error classes. *)
and check_requires st def op =
  let rec go = function
    | [] -> Ok ()
    | (idx, req) :: rest ->
      if idx >= Ircore.num_operands op then go rest
      else
        let ps = State.get_annots st (Ircore.operand ~index:idx op) in
        if Annot.satisfies_exact ps req then go rest
        else
          Terror.definite ~loc:op.Ircore.op_loc
            "%s of %s not met on operand #%d: needs %a, handle carries %a"
            Annot.requirement_tag def.Treg.t_name idx Annot.pp_req req
            Annot.pp_props ps
  in
  go (Treg.requires def op)

(** Record the declared ensures-clauses after a successful application:
    result targets get a fresh property set, operand targets are refined in
    place (union). *)
and record_ensures st def op =
  List.iter
    (fun (target, ps) ->
      match target with
      | Annot.On_result i ->
        if i < Ircore.num_results op then
          State.set_annots st (Ircore.result ~index:i op) ps
      | Annot.On_operand i ->
        if i < Ircore.num_operands op then
          State.add_annots st (Ircore.operand ~index:i op) ps)
    (Treg.ensures def op)

(** Dynamic post-condition check (Section 3.3): after the transform runs,

    - op kinds the pre-condition claims to consume must afterwards be
      covered by the post-condition (with IRDL constraint verification for
      constrained elements such as [memref.subview.constr]);
    - freshly introduced op kinds must be declared by the post-condition.

    This validates that the declared conditions are accurate specifications
    of the (natively implemented) transformation — "an additional tool to
    detect bugs in transformations". *)
and prepare_post_check st def op =
  let pre = Treg.pre def op and post = Treg.post def op in
  if pre = [] && post = [] then None
  else begin
    let before = Hashtbl.create 32 in
    Ircore.walk_op st.State.payload_root ~pre:(fun o ->
        Hashtbl.replace before o.Ircore.op_name ());
    (* the "left behind" half of the check only makes sense when the
       transform's scope is the whole payload (e.g. apply_registered_pass on
       the root); a loop transform targeting one loop says nothing about its
       siblings *)
    let whole_payload =
      Ircore.num_operands op = 0
      ||
      match State.lookup_handle st (Ircore.operand ~index:0 op) with
      | Ok [ p ] -> p == st.State.payload_root
      | _ -> false
    in
    Some
      (fun () ->
        let violation = ref None in
        Ircore.walk_op st.State.payload_root ~pre:(fun o ->
            if !violation = None then begin
              let consumed_kind =
                whole_payload && Opset.matches_op_name pre o.Ircore.op_name
              in
              let fresh = not (Hashtbl.mem before o.Ircore.op_name) in
              if
                (consumed_kind || fresh)
                && not (Irdl.opset_covers_op ~ctx:st.State.ctx post o)
              then
                violation :=
                  Some
                    (Fmt.str
                       "op %s %s by transform %s is not covered by its \
                        declared post-condition %a"
                       o.Ircore.op_name
                       (if fresh then "introduced" else "left behind")
                       def.Treg.t_name Opset.pp post)
            end);
        match !violation with
        | None -> Ok ()
        | Some msg -> Terror.definite "dynamic post-condition check: %s" msg)
  end

(** Dynamic pre-condition check (Section 3.3): the op kinds required by the
    transform must be present in the targeted payload. *)
and check_preconditions st def op =
  let pre = Treg.pre def op in
  if pre = [] then Ok ()
  else if Ircore.num_operands op = 0 then Ok ()
  else
    match State.lookup_handle st (Ircore.operand ~index:0 op) with
    | Error _ -> Ok () (* reported by the transform itself *)
    | Ok payload ->
      let present =
        List.concat_map (fun p -> Opset.of_payload p) payload
        |> fun s ->
        List.fold_left
          (fun acc p -> Opset.union acc (Opset.of_payload p))
          s payload
      in
      let present =
        List.fold_left
          (fun acc p -> Opset.union acc [ Opset.exact p.Ircore.op_name ])
          present payload
      in
      if Opset.overlaps pre present then Ok ()
      else
        Terror.silenceable
          "dynamic pre-condition failed for %s: payload contains none of %a"
          def.Treg.t_name Opset.pp pre

and run_include st op =
  let* callee =
    match Ircore.attr op "target" with
    | Some (Attr.Symbol_ref (s, _)) -> Ok s
    | _ -> Terror.definite "transform.include requires a target symbol"
  in
  (* resolve in the enclosing module/sequence *)
  let rec find_root o =
    match Ircore.parent_op o with None -> o | Some p -> find_root p
  in
  let root = find_root op in
  let* target =
    match Symbol.lookup_in ~table:root callee with
    | Some t -> Ok t
    | None -> (
      (* also search the root's regions transitively for named sequences *)
      match
        Symbol.collect root ~f:(fun o ->
            o.Ircore.op_name = Ops.named_sequence_op
            && Symbol.symbol_name o = Some callee)
      with
      | t :: _ -> Ok t
      | [] -> Terror.definite "include: no named_sequence @%s" callee)
  in
  match target.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | None -> Ok ()
    | Some body ->
      let args = Ircore.block_args body in
      if List.length args <> Ircore.num_operands op then
        Terror.definite "include @%s: expected %d arguments, got %d" callee
          (List.length args) (Ircore.num_operands op)
      else begin
        (* bind arguments: copy handle/param associations *)
        let rec bind i = function
          | [] -> Ok ()
          | arg :: rest ->
            let operand = Ircore.operand ~index:i op in
            let bound =
              if State.is_param_typ (Ircore.value_typ operand) then
                let* ps = State.lookup_params st operand in
                State.set_params st arg ps;
                Ok ()
              else
                let* ops = State.lookup_handle st operand in
                State.set_handle st arg ops;
                Ok ()
            in
            let* () = bound in
            if st.State.config.State.check_annotations then
              State.copy_annots st ~src:operand ~dst:arg;
            bind (i + 1) rest
        in
        let* () = bind 0 args in
        let* () = run_block st body in
        (* bind yielded values to include results *)
        (match Ircore.block_last_op body with
        | Some y when y.Ircore.op_name = Ops.yield_op ->
          List.iteri
            (fun i yielded ->
              if i < Ircore.num_results op then begin
                (if State.is_param_typ (Ircore.value_typ yielded) then
                   match State.lookup_params st yielded with
                   | Ok ps -> State.set_params st (Ircore.result ~index:i op) ps
                   | Error _ -> ()
                 else
                   match State.lookup_handle st yielded with
                   | Ok ops ->
                     State.set_handle st (Ircore.result ~index:i op) ops
                   | Error _ -> ());
                if st.State.config.State.check_annotations then
                  State.copy_annots st ~src:yielded
                    ~dst:(Ircore.result ~index:i op)
              end)
            (Ircore.operands y)
        | _ -> ());
        Ok ()
      end)
  | _ -> Terror.definite "named_sequence must have one region"

and run_alternatives st op =
  let rec try_regions last = function
    | [] ->
      let notes =
        match last with
        | None -> []
        | Some d ->
          [ Diag.note "last alternative failed: %s" (Diag.message d) ]
      in
      Terror.silenceable_diag
        (Diag.error ~loc:op.Ircore.op_loc ~notes "all alternatives failed")
    | r :: rest -> (
      (* transactional region: checkpoint payload + handle tables, roll
         back on silenceable failure so the next region sees the payload
         exactly as this one did — even if this region mutated it *)
      let acur = Action.cursor () in
      let ck = State.checkpoint st in
      match run_region st r with
      | Ok () ->
        State.discard_checkpoint ck;
        Ok ()
      | Error (Terror.Silenceable d) ->
        State.rollback st ck;
        (* journal honesty: the failed alternative's actions executed but
           their effects were undone — re-mark them reverted *)
        Action.revert_since acur;
        Stats.incr stat_suppressed;
        Trace.record
          (Trace.Suppressed
             { su_construct = "transform.alternatives"; su_diag = d });
        try_regions (Some d) rest
      | Error (Terror.Definite _) as e ->
        (* a definite error aborts the whole op immediately: no rollback,
           no further alternatives (Section 3) *)
        State.discard_checkpoint ck;
        e)
  in
  match op.Ircore.regions with
  | [] -> Ok ()
  | regions -> try_regions None regions

and run_foreach st op =
  (* iterate over a snapshot of the handle's payload list: the body may
     rewrite the handle (via the tracking listener) while we iterate *)
  let* payload = State.lookup_handle st (Ircore.operand ~index:0 op) in
  match op.Ircore.regions with
  | [ r ] -> (
    match Ircore.region_first_block r with
    | None -> Ok ()
    | Some body ->
      let rec go i = function
        | [] -> Ok ()
        | p :: rest ->
          (* a previous iteration may have erased or invalidated this
             payload op; fail cleanly instead of transforming a dangling
             op *)
          if not (State.payload_alive st p) then
            Terror.silenceable ~loc:op.Ircore.op_loc
              "transform.foreach: payload op #%d (%s) was erased or \
               invalidated by a previous iteration"
              i p.Ircore.op_name
          else begin
            (match Ircore.block_args body with
            | [ arg ] ->
              State.set_handle st arg [ p ];
              (* the iteration variable inherits the iterated handle's
                 properties afresh each round *)
              if st.State.config.State.check_annotations then
                State.copy_annots st ~src:(Ircore.operand ~index:0 op) ~dst:arg
            | _ -> ());
            let* () = run_block st body in
            go (i + 1) rest
          end
      in
      go 0 payload)
  | _ -> Terror.definite "transform.foreach must have one region"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Find the main entry of a transform script: either the op itself if it is
    a sequence/named_sequence, or a [@__transform_main] named sequence
    inside a module. *)
let find_entry script =
  match script.Ircore.op_name with
  | "transform.sequence" | "transform.named_sequence" -> Some script
  | _ -> (
    match
      Symbol.collect script ~f:(fun o ->
          o.Ircore.op_name = Ops.named_sequence_op
          && (Symbol.symbol_name o = Some "__transform_main"
             || Symbol.symbol_name o = Some "transform_main"))
    with
    | t :: _ -> Some t
    | [] -> (
      match
        Symbol.collect script ~f:(fun o ->
            o.Ircore.op_name = Ops.sequence_op)
      with
      | t :: _ -> Some t
      | [] -> None))

(** Interpret [script] against [payload], walking the script IR op by op.
    This is the sequential path; the compiled path ({!Schedule}) lowers the
    script once and re-dispatches without re-walking. *)
let apply_interpreted ?(config = State.default_config) ctx ~script ~payload =
  match find_entry script with
  | None ->
    Error
      (Terror.Definite
         (Diag.error
            "no transform entry point (sequence or @__transform_main) found"))
  | Some entry ->
    let st = State.create ~config ctx payload in
    let result =
      (* forced budget check at interpretation entry: scripts too short for
         the amortized deadline sampling still honor an expired deadline *)
      match Budget.checkpoint () with
      | Some reason ->
        Terror.silenceable ~loc:entry.Ircore.op_loc
          "transform interpreter stopped: %s" reason
      | None -> (
      match entry.Ircore.op_name with
      | "transform.sequence" -> run_op st entry
      | _ -> (
        (* named_sequence: bind its argument to the payload root *)
        match entry.Ircore.regions with
        | [ r ] -> (
          match Ircore.region_first_block r with
          | None -> Ok ()
          | Some b ->
            (match Ircore.block_args b with
            | root :: _ -> State.set_handle st root [ payload ]
            | [] -> ());
            run_block st b)
        | _ -> Terror.definite "named_sequence must have one region"))
    in
    (match result with
    | Ok () -> Ok st.State.steps
    | Error e -> Error e)

(* the deprecated [apply] alias of {!apply_interpreted} was removed: the
   unified entry point is {!Schedule.run} / {!Schedule.of_script} +
   {!Schedule.apply}, which compiles and caches by default and exposes an
   [`Interpret] mode equivalent to direct interpretation *)
