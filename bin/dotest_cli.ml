(* dotest — defect-oriented test methodology for mixed-signal circuits.

   Command-line front end over the dotest libraries: run the per-macro
   test path, the global coverage analysis, and the DfT comparison. *)

open Cmdliner

let setup_logging verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let defaults = Core.Pipeline.Config.default

(* --- shared options ---------------------------------------------------- *)

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log pipeline progress.")

let jobs =
  Arg.(
    value
    & opt int (Util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "DOTEST_JOBS")
        ~doc:
          "Worker domains for the parallel pipeline stages (default: cores \
           minus one, at least 1). Results are identical for any value.")

let defects =
  Arg.(
    value
    & opt int defaults.Core.Pipeline.Config.defects
    & info [ "defects" ] ~docv:"N" ~doc:"Spot defects sprinkled per macro.")

let dies =
  Arg.(
    value
    & opt int defaults.Core.Pipeline.Config.good_space_dies
    & info [ "dies" ] ~docv:"N"
        ~doc:"Monte-Carlo dies compiled into the good-signature space.")

let sigma =
  Arg.(
    value
    & opt float defaults.Core.Pipeline.Config.sigma
    & info [ "sigma" ] ~docv:"K" ~doc:"Acceptance window width in sigma.")

let seed =
  Arg.(
    value
    & opt int defaults.Core.Pipeline.Config.seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic experiment seed.")

let dft =
  Arg.(
    value & flag
    & info [ "dft" ] ~doc:"Apply both DfT measures before the analysis.")

let solver_arg =
  let backends =
    List.map
      (fun s -> Circuit.Engine.solver_name s, s)
      Circuit.Engine.all_solvers
  in
  Arg.(
    value
    & opt (enum backends) Circuit.Engine.default_solver
    & info [ "solver" ] ~docv:"POLICY"
        ~doc:
          "Newton factorization policy: $(b,auto) (default) reuses \
           factorizations across Newton iterations and fault classes with \
           rank-1 updates; $(b,dense) is full Newton, re-factoring at \
           every iteration, the reference for bisecting solver \
           regressions. Both run the same compiled plan and print \
           identical tables.")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail fast on the first fault-class simulation that stays \
           unresolved after every retry, instead of containing it and \
           reporting bounds.")

let max_retries =
  Arg.(
    value
    & opt int defaults.Core.Pipeline.Config.max_retries
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Escalated re-attempts after a convergence failure before a \
           fault class is recorded as unresolved.")

let failure_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "failure-budget" ] ~docv:"N"
        ~doc:
          "Abort the run once more than $(docv) fault classes end \
           unresolved (default: unlimited).")

let inject_failures =
  Arg.(
    value
    & opt (some float) None
    & info [ "inject-failures" ] ~docv:"FRAC"
        ~doc:
          "Test hook: deterministically force this fraction of fault-class \
           simulations to fail convergence, exercising the containment and \
           retry paths.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Stream a telemetry trace to $(docv): one JSON object per line \
           (spans with parent nesting and monotonic durations, counter \
           deltas, gauges). Without this flag the null sink is installed \
           and instrumentation costs nothing.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Aggregate telemetry counters in memory and print their totals \
           after the run. Totals are deterministic: byte-identical for any \
           $(b,--jobs) value.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR" ~env:(Cmd.Env.info "DOTEST_CACHE")
        ~doc:
          "Persist per-macro analysis results under $(docv) and reuse them \
           on later runs whose inputs are unchanged. A warm run prints the \
           same coverage tables, health counters and bounds byte-for-byte \
           as the cold run, for any $(b,--jobs) value.")

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache) and $(b,DOTEST_CACHE); run uncached.")

let cache_handle ~cache_dir ~no_cache =
  if no_cache then None
  else
    Option.map
      (fun dir -> Util.Cache.create ~dir ~version:Core.Codec.version ())
      cache_dir

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for each fault-class simulation attempt; an \
           expired attempt is retried with escalated solver options and a \
           doubled budget, and recorded as unresolved if the ladder runs \
           out. Wall-clock deadlines are machine-dependent: use \
           $(b,--deadline-iterations) when byte-identical results matter.")

let deadline_iterations =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-iterations" ] ~docv:"N"
        ~doc:
          "Newton-iteration budget for each fault-class simulation attempt \
           (doubled per escalated retry). A pure function of the \
           computation, so results stay byte-identical for any $(b,--jobs) \
           value and across machines.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Reuse the fault classes an earlier cached run stored (requires \
           $(b,--cache)) instead of re-simulating them. A resumed run \
           prints the same coverage tables, health counters and bounds \
           byte-for-byte as an uninterrupted one.")

let deadline_of ~deadline ~deadline_iterations =
  match deadline, deadline_iterations with
  | None, None -> None
  | wall_seconds, max_iterations ->
    Some { Util.Watchdog.wall_seconds; max_iterations }

(* The per-class store writes through the result cache, so the CLI keeps
   one exactly when it has a cache; --resume without one cannot read
   anything back and says so. *)
let checkpoint_of ~cache ~resume =
  match cache with
  | None ->
    if resume then
      Format.eprintf
        "dotest: --resume requires --cache; running from scratch@.";
    None
  | Some _ -> Some (Core.Checkpoint.create ~resume ())

let format_arg =
  Arg.(
    value
    & opt (enum [ "text", `Text; "json", `Json; "csv", `Csv ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Report rendering: $(b,text) (aligned tables, default), \
              $(b,json) (array of row objects) or $(b,csv) (RFC 4180).")

let print_table ~format title table =
  Format.printf "@.== %s ==@.%s@." title (Core.Report.render ~format table)

(* Build the run's sink from --trace/--metrics; [f] gets the sink (for
   [handle_failures] to install) and the in-memory aggregate to print
   afterwards. The trace channel is also closed via [at_exit] so a run
   that dies through [handle_failures]'s [exit 3] still flushes its
   buffered events. *)
let with_telemetry ~trace ~metrics f =
  let memory = if metrics then Some (Util.Telemetry.in_memory ()) else None in
  let channel = Option.map open_out trace in
  Option.iter (fun oc -> at_exit (fun () -> close_out_noerr oc)) channel;
  let sink =
    Util.Telemetry.multi
      ((match memory with
       | Some m -> [ Util.Telemetry.memory_sink m ]
       | None -> [])
      @
      match channel with
      | Some oc -> [ Util.Telemetry.jsonl oc ]
      | None -> [])
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr channel)
    (fun () -> f sink memory)

let print_cache_stats ~format cache =
  Option.iter
    (fun c ->
      print_table ~format "Result cache"
        (Core.Report.cache_stats (Util.Cache.stats c)))
    cache

let print_metrics ?elapsed ~format memory =
  Option.iter
    (fun m ->
      print_table ~format "Telemetry metrics"
        (Core.Report.metrics ?elapsed (Util.Telemetry.metrics m)))
    memory

(* Wall-clock duration of the analysis proper, for the derived "(wall)"
   throughput rows of the metrics table. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  result, Unix.gettimeofday () -. t0

(* Pool failures arrive wrapped (possibly twice: macro fan-out around the
   per-class fan-out); report the innermost cause, which carries the
   failing fault-class index. *)
let rec root_cause = function
  | Util.Pool.Worker_failure (_, e) -> root_cause e
  | e -> e

(* Exit 4 is the "interrupted, resumable" status: distinct from failure
   (3) so wrappers can tell "re-run with --resume" from "give up". *)
let interrupted reason =
  Format.eprintf
    "dotest: interrupted (%s); completed work is checkpointed — re-run with \
     --resume to continue@."
    reason;
  exit 4

(* Runs the analysis [f] with the run's [sink] installed. The sink is
   flushed as [f] returns or unwinds, so a failing or interrupted run
   still writes its trace before [exit 3] / [exit 4]. *)
let handle_failures ~sink f =
  try Util.Telemetry.with_sink sink f with
  | Util.Watchdog.Interrupted reason -> interrupted reason
  | ( Util.Pool.Worker_failure _ | Core.Pipeline.Budget_exhausted _
    | Macro.Evaluate.Simulation_failed _ ) as e ->
    (match root_cause e with
    | Util.Watchdog.Interrupted reason -> interrupted reason
    | cause ->
      Format.eprintf "dotest: %s@." (Printexc.to_string cause);
      exit 3)

let print_tables ~format tables =
  List.iter (fun (title, table) -> print_table ~format title table) tables

(* --- commands ----------------------------------------------------------- *)

(* An analysis command's flags, set up: logging, the pool size and the
   signal handlers are installed; [sink] is the run's telemetry sink and
   [memory] its in-memory aggregate under --metrics. *)
type run = {
  config : Core.Pipeline.Config.t;
  cache : Util.Cache.t option;
  sink : Util.Telemetry.sink;
  memory : Util.Telemetry.memory option;
  format : [ `Text | `Json | `Csv ];
}

(* The containment flags: retries, strictness, the failure budget, failure
   injection, deadlines and --resume. [dft] has none of them. *)
let containment =
  let make strict max_retries failure_budget inject_failures deadline
      deadline_iterations resume =
    ( resume,
      Core.Pipeline.Config.(
        fun config ->
          config |> with_max_retries max_retries |> with_strict strict
          |> with_failure_budget failure_budget
          |> with_inject_failures inject_failures
          |> with_deadline (deadline_of ~deadline ~deadline_iterations)) )
  in
  Term.(
    const make $ strict $ max_retries $ failure_budget $ inject_failures
    $ deadline_arg $ deadline_iterations $ resume)

(* [analysis_with containment] is the term of every flag an analysis
   command shares: it evaluates to a function that sets the run up and
   hands it to its argument. *)
let analysis_with containment =
  let make verbose jobs defects dies sigma seed trace metrics cache_dir
      no_cache solver format (resume, contain) f =
    setup_logging verbose;
    Util.Pool.set_jobs jobs;
    Util.Watchdog.install_signal_handlers ();
    with_telemetry ~trace ~metrics @@ fun sink memory ->
    let cache = cache_handle ~cache_dir ~no_cache in
    let config =
      Core.Pipeline.Config.(
        default |> with_defects defects |> with_good_space_dies dies
        |> with_sigma sigma |> with_seed seed |> contain
        |> with_cache_handle cache
        |> with_checkpoint (checkpoint_of ~cache ~resume)
        |> with_solver solver)
    in
    f { config; cache; sink; memory; format }
  in
  Term.(
    const make $ verbose $ jobs $ defects $ dies $ sigma $ seed $ trace
    $ metrics_flag $ cache_dir $ no_cache $ solver_arg $ format_arg
    $ containment)

let analysis = analysis_with containment
let dft_analysis = analysis_with (Term.const (false, Fun.id))

(* Shared driver for the single-macro commands (comparator, scaled): run
   one macro through the pipeline and print the per-macro tables. *)
let run_single_macro macro { config; cache; sink; memory; format } =
  let analysis, elapsed =
    timed (fun () ->
        handle_failures ~sink (fun () -> Core.Pipeline.analyze config macro))
  in
  print_tables ~format (Core.Report.macro_tables analysis);
  print_cache_stats ~format cache;
  print_table ~format "Run survival" (Core.Report.run_survival config);
  print_metrics ~elapsed ~format memory

let comparator_cmd =
  let run analysis dft =
    let options =
      if dft then Adc.Comparator.dft_options else Adc.Comparator.default_options
    in
    analysis (run_single_macro (Adc.Comparator.macro options))
  in
  Cmd.v
    (Cmd.info "comparator"
       ~doc:"Run the defect-oriented test path for the comparator macro.")
    Term.(const run $ analysis $ dft)

let scaled_cmd =
  let run analysis bits =
    analysis (run_single_macro (Adc.Scaled.macro ~bits ()))
  in
  let bits =
    Arg.(
      value & opt int 7
      & info [ "bits" ] ~docv:"B"
          ~doc:
            "Converter resolution: the analog core has $(b,2^B) ladder \
             segments, about $(b,2^B + 3) circuit unknowns (2..14). Sizes \
             past ~10 bits are where $(b,--solver dense)'s re-factorization \
             at every Newton iteration separates from $(b,--solver auto).")
  in
  Cmd.v
    (Cmd.info "scaled"
       ~doc:
         "Run the defect-oriented test path for the generated scalable-N \
          flash-ADC analog core: a 2^bits reference ladder with one readout \
          transistor per tap. The workload for solver scaling studies — \
          same pipeline, same determinism contract, adjustable circuit \
          size.")
    Term.(const run $ analysis $ bits)

let global_cmd =
  let run analysis dft =
    analysis @@ fun { config; cache; sink; memory; format } ->
    let measures = if dft then Dft.Measures.all_measures else [] in
    let macros = Dft.Measures.macro_set ~measures in
    let analyses, elapsed =
      timed (fun () ->
          handle_failures ~sink (fun () ->
              Core.Pipeline.analyze_all config macros))
    in
    print_tables ~format (Core.Report.global_tables ~dft analyses);
    print_cache_stats ~format cache;
    print_table ~format "Run survival" (Core.Report.run_survival config);
    print_metrics ~elapsed ~format memory
  in
  Cmd.v
    (Cmd.info "global"
       ~doc:"Run all five macros and the global scaling step.")
    Term.(const run $ analysis $ dft)

let dft_cmd =
  let run analysis =
    analysis @@ fun { config; cache; sink; memory; format } ->
    let original, improved =
      handle_failures ~sink (fun () -> Core.Global.compare_coverage ~config ())
    in
    print_table ~format "Fig. 4: before DfT" (Core.Report.figure4 original);
    print_table ~format "Fig. 5: after DfT" (Core.Report.figure4 improved);
    Format.printf "@.DfT measures applied:@.";
    List.iter
      (fun m -> Format.printf "  - %s@." (Dft.Measures.describe m))
      Dft.Measures.all_measures;
    Format.printf "@.General mixed-signal DfT guidelines:@.";
    List.iter (fun g -> Format.printf "  * %s@." g) Dft.Measures.guidelines;
    print_cache_stats ~format cache;
    print_metrics ~format memory
  in
  Cmd.v
    (Cmd.info "dft" ~doc:"Compare coverage before and after the DfT measures.")
    Term.(const run $ dft_analysis)

(* --- the analysis service ----------------------------------------------- *)

let listen_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve on $(docv): $(b,unix:PATH) (or a bare socket path) for a \
           Unix-domain socket, $(b,HOST:PORT) for TCP. The protocol is \
           newline-delimited JSON, one request and one response per line \
           (see the dotest-api/1 schema).")

let connect_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"Address of a running $(b,dotest serve) (same syntax as its \
              $(b,--listen)).")

let max_pending =
  Arg.(
    value & opt int 16
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Admission-control bound: distinct analyses queued or running at \
           once. Beyond it the service sheds load with an $(b,overloaded) \
           error carrying a retry_after hint. Requests identical to one \
           already in flight always attach to it (coalescing) and do not \
           count against the bound.")

let request_id =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~docv:"ID"
        ~doc:"Correlation id echoed verbatim in the response.")

let address_of ~addr =
  match Core.Service.address_of_string addr with
  | Ok address -> address
  | Error msg ->
    Format.eprintf "dotest: %s@." msg;
    exit 2

let serve_cmd =
  let run verbose jobs listen max_pending failure_budget trace metrics
      cache_dir no_cache =
    setup_logging verbose;
    with_telemetry ~trace ~metrics @@ fun sink memory ->
    let address = address_of ~addr:listen in
    let cache = cache_handle ~cache_dir ~no_cache in
    let service =
      Core.Service.create ?cache ~jobs ~telemetry:sink ?failure_budget
        ~max_pending ()
    in
    (* First signal: drain — finish queued and running analyses, refuse
       new ones, exit 0. Second signal: escalate to the cooperative
       watchdog, which aborts in-flight pipeline work (the classes it
       already measured stay stored). The handlers only record: they run
       at safepoints on whatever thread is executing, so taking the
       service mutex here could self-deadlock. [poll], called from the
       accept loop and throughout the drain, applies the state
       changes. *)
    let signal_count = Atomic.make 0 in
    let last_signal = Atomic.make Sys.sigterm in
    let graceful signal =
      Atomic.set last_signal signal;
      Atomic.incr signal_count
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
    Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
    let handled = ref 0 in
    let poll () =
      let n = Atomic.get signal_count in
      if n > !handled then begin
        handled := n;
        if n = 1 then Core.Service.initiate_shutdown service
        else
          Util.Watchdog.request_shutdown
            ~reason:
              (if Atomic.get last_signal = Sys.sigint then "second SIGINT"
               else "second SIGTERM")
            ()
      end
    in
    let on_ready bound =
      Format.eprintf "dotest: serving on %s@."
        (Core.Service.address_to_string bound)
    in
    (try Core.Service.serve ~on_ready ~poll service address with
    | Failure msg ->
      Format.eprintf "dotest: %s@." msg;
      exit 2
    | Unix.Unix_error (e, _, _) ->
      Format.eprintf "dotest: cannot serve on %s: %s@." listen
        (Unix.error_message e);
      exit 2);
    let s = Core.Service.stats service in
    Format.eprintf
      "dotest: drained; %d submitted, %d completed, %d failed, %d shed, %d \
       coalesced, cache %d/%d hits/misses@."
      s.Core.Service.submitted s.Core.Service.completed s.Core.Service.failed
      s.Core.Service.shed s.Core.Service.coalesced s.Core.Service.cache_hits
      s.Core.Service.cache_misses;
    print_cache_stats ~format:`Text cache;
    print_metrics ~format:`Text memory
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve analyses over a socket: a shared result cache, domain pool, \
          telemetry sink and failure budget behind the versioned \
          dotest-api/1 request API. Duplicate in-flight requests are \
          computed once; SIGTERM drains and exits 0.")
    Term.(
      const run $ verbose $ jobs $ listen_arg $ max_pending $ failure_budget
      $ trace $ metrics_flag $ cache_dir $ no_cache)

let request_cmd =
  let run connect target dft defects dies sigma seed max_retries strict
      inject_failures deadline deadline_iterations solver format id =
    let address = address_of ~addr:connect in
    let target =
      match Core.Request.target_of_name ~name:target ~dft with
      | Ok target -> target
      | Error msg ->
        Format.eprintf "dotest: %s@." msg;
        exit 2
    in
    let request =
      Core.Request.(
        default |> with_id id |> with_target target |> with_defects defects
        |> with_good_space_dies dies |> with_sigma sigma |> with_seed seed
        |> with_max_retries max_retries |> with_strict strict
        |> with_inject_failures inject_failures
        |> with_deadline (deadline_of ~deadline ~deadline_iterations)
        |> with_solver solver |> with_format format)
    in
    match Core.Service.call address request with
    | Ok reply ->
      List.iter
        (fun { Core.Request.title; body } ->
          Format.printf "@.== %s ==@.%s@." title body)
        reply.Core.Request.tables
    | Error e ->
      Format.eprintf "dotest: %s: %s%s@."
        (Core.Request.error_code_name e.Core.Request.code)
        e.Core.Request.message
        (match e.Core.Request.retry_after with
        | Some seconds -> Printf.sprintf " (retry after %g s)" seconds
        | None -> "");
      exit (match e.Core.Request.code with Core.Request.Shutting_down -> 4 | _ -> 3)
  in
  let target_pos =
    Arg.(
      required
      & pos 0 (some (enum [ "comparator", "comparator"; "global", "global" ])) None
      & info [] ~docv:"TARGET"
          ~doc:"What to analyse: $(b,comparator) or $(b,global).")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one analysis request to a running $(b,dotest serve) and print \
          the reply tables exactly as the equivalent local command would.")
    Term.(
      const run $ connect_arg $ target_pos $ dft $ defects $ dies $ sigma
      $ seed $ max_retries $ strict $ inject_failures $ deadline_arg
      $ deadline_iterations $ solver_arg $ format_arg $ request_id)

let ramp_cmd =
  let run samples =
    let prng = Util.Prng.create 7 in
    let report tag adc =
      let missing = Adc.Flash_adc.missing_codes adc prng ~samples in
      Format.printf "%-28s missing codes: %s@." tag
        (match missing with
        | [] -> "none"
        | codes -> String.concat ", " (List.map string_of_int codes))
    in
    report "fault-free" Adc.Flash_adc.ideal;
    report "comparator 100 stuck high"
      (Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
         Adc.Flash_adc.Stuck_high);
    report "comparator 100 offset 12mV"
      (Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
         (Adc.Flash_adc.Functional 0.012));
    report "comparator 100 erratic"
      (Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
         Adc.Flash_adc.Erratic);
    Format.printf "@.%a@." Testgen.Test_time.pp_budget ()
  in
  let samples =
    Arg.(
      value
      & opt int Testgen.Test_time.missing_code_samples
      & info [ "samples" ] ~docv:"N" ~doc:"Conversions in the ramp test.")
  in
  Cmd.v
    (Cmd.info "ramp"
       ~doc:"Demonstrate the missing-code test on the behavioural converter.")
    Term.(const run $ samples)

let () =
  let doc = "defect-oriented test methodology for complex mixed-signal circuits" in
  let info = Cmd.info "dotest" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            comparator_cmd;
            scaled_cmd;
            global_cmd;
            dft_cmd;
            serve_cmd;
            request_cmd;
            ramp_cmd;
          ]))
