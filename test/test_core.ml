(* Integration tests for the dotest.core pipeline and global scaling.

   These exercise the whole methodology end to end on reduced defect
   counts, so they are registered as `Slow (run with `dune runtest`, can
   be filtered with ALCOTEST_QUICK_TESTS). *)

let small_config =
  Core.Pipeline.Config.(default |> with_defects 4_000 |> with_good_space_dies 12)

let comparator_analysis =
  lazy
    (Core.Pipeline.analyze small_config
       (Adc.Comparator.macro Adc.Comparator.default_options))

let test_pipeline_produces_outcomes () =
  let a = Lazy.force comparator_analysis in
  Alcotest.(check bool) "found faults" true (a.Core.Pipeline.effective > 0);
  Alcotest.(check int) "outcome per class"
    (List.length a.Core.Pipeline.classes_catastrophic)
    (List.length a.Core.Pipeline.outcomes_catastrophic);
  Alcotest.(check bool) "non-catastrophic derived" true
    (a.Core.Pipeline.classes_non_catastrophic <> [])

let test_pipeline_deterministic () =
  let a = Lazy.force comparator_analysis in
  let b =
    Core.Pipeline.analyze small_config
      (Adc.Comparator.macro Adc.Comparator.default_options)
  in
  Alcotest.(check int) "same effective" a.Core.Pipeline.effective
    b.Core.Pipeline.effective;
  Alcotest.(check int) "same fault count"
    (Core.Pipeline.fault_count a Fault.Types.Catastrophic)
    (Core.Pipeline.fault_count b Fault.Types.Catastrophic);
  let coverage x =
    Testgen.Overlap.coverage
      (Testgen.Overlap.venn_of_partition
         (Testgen.Overlap.partition x.Core.Pipeline.outcomes_catastrophic))
  in
  Alcotest.(check (float 1e-12)) "same coverage" (coverage a) (coverage b)

let test_pipeline_evaluates_at_config_tech () =
  (* The faulty circuits must be simulated at the process point whose
     good space judges them. Simulated at the library's 5.0 V while the
     windows were compiled at 4.5 V, every bias-generator class would
     sit outside some current window, whatever its fault. *)
  let tech = { Process.Tech.cmos1um with Process.Tech.vdd = 4.5 } in
  let config =
    Core.Pipeline.Config.(
      default |> with_tech tech |> with_defects 1_000 |> with_good_space_dies 8)
  in
  let a = Core.Pipeline.analyze config (Adc.Bias_gen.macro ()) in
  let outcomes =
    a.Core.Pipeline.outcomes_catastrophic
    @ a.Core.Pipeline.outcomes_non_catastrophic
  in
  let quiet =
    List.filter
      (fun (o : Macro.Evaluate.outcome) ->
        o.Macro.Evaluate.signature.Macro.Signature.currents = [])
      outcomes
  in
  Alcotest.(check bool) "classes simulated" true (outcomes <> []);
  Alcotest.(check bool) "some class deviates in no current" true (quiet <> [])

let test_pipeline_jobs_invariant () =
  (* The hard determinism requirement of the parallel layer: the analysis
     must be bit-identical whatever the worker-domain count. *)
  let with_jobs jobs =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () ->
        Core.Pipeline.analyze small_config
          (Adc.Comparator.macro Adc.Comparator.default_options))
  in
  let a = with_jobs 1 in
  let b = with_jobs 4 in
  Alcotest.(check int) "same sprinkled" a.Core.Pipeline.sprinkled
    b.Core.Pipeline.sprinkled;
  Alcotest.(check int) "same effective" a.Core.Pipeline.effective
    b.Core.Pipeline.effective;
  Alcotest.(check bool) "same catastrophic classes" true
    (a.Core.Pipeline.classes_catastrophic
    = b.Core.Pipeline.classes_catastrophic);
  Alcotest.(check bool) "same non-catastrophic classes" true
    (a.Core.Pipeline.classes_non_catastrophic
    = b.Core.Pipeline.classes_non_catastrophic);
  let signatures x =
    List.map
      (fun (o : Macro.Evaluate.outcome) -> o.signature)
      x.Core.Pipeline.outcomes_catastrophic
  in
  Alcotest.(check bool) "same signatures" true (signatures a = signatures b);
  let render x =
    Util.Table.render (Core.Report.table2 x)
    ^ Util.Table.render (Core.Report.table3 x)
  in
  Alcotest.(check string) "byte-identical coverage tables" (render a) (render b)

let test_pipeline_seed_changes_results () =
  let a = Lazy.force comparator_analysis in
  let b =
    Core.Pipeline.analyze (Core.Pipeline.Config.with_seed 77 small_config)
      (Adc.Comparator.macro Adc.Comparator.default_options)
  in
  (* Different defect placement: almost surely different instance count. *)
  Alcotest.(check bool) "different sample" true
    (Core.Pipeline.fault_count a Fault.Types.Catastrophic
     <> Core.Pipeline.fault_count b Fault.Types.Catastrophic
    || a.Core.Pipeline.effective <> b.Core.Pipeline.effective)

let test_pipeline_comparator_shape () =
  (* The load-bearing qualitative claims of the paper, on the comparator:
     shorts dominate, stuck-at is the leading voltage signature, a
     nontrivial share of faults is only current-detectable. *)
  let a = Lazy.force comparator_analysis in
  (match Fault.Collapse.by_type a.Core.Pipeline.classes_catastrophic with
  | (ft, share, _) :: _ ->
    Alcotest.(check string) "shorts dominate" "short"
      (Fault.Types.fault_type_name ft);
    Alcotest.(check bool) "heavily" true (share > 0.7)
  | [] -> Alcotest.fail "no faults");
  let voltage = Macro.Evaluate.voltage_table a.Core.Pipeline.outcomes_catastrophic in
  let stuck = List.assoc Macro.Signature.Output_stuck_at voltage in
  List.iter
    (fun (v, share) ->
      if v <> Macro.Signature.Output_stuck_at then
        Alcotest.(check bool) "stuck leads" true (stuck >= share))
    voltage;
  let venn =
    Testgen.Overlap.venn_of_partition
      (Testgen.Overlap.partition a.Core.Pipeline.outcomes_catastrophic)
  in
  Alcotest.(check bool) "current-only matters" true
    (venn.Testgen.Overlap.current_only > 0.1);
  Alcotest.(check bool) "coverage high but imperfect" true
    (let c = Testgen.Overlap.coverage venn in
     c > 0.75 && c < 1.0)

(* --- resilience / run health ------------------------------------------ *)

let injected_config =
  Core.Pipeline.Config.with_inject_failures (Some 0.2) small_config

let injected_analysis =
  lazy
    (Core.Pipeline.analyze injected_config
       (Adc.Comparator.macro Adc.Comparator.default_options))

let test_pipeline_clean_run_health () =
  let a = Lazy.force comparator_analysis in
  let h = a.Core.Pipeline.health in
  Alcotest.(check int) "no retries" 0 h.Core.Pipeline.retried;
  Alcotest.(check int) "no degradation" 0 h.Core.Pipeline.degraded;
  Alcotest.(check int) "no unresolved" 0 h.Core.Pipeline.unresolved;
  Alcotest.(check int) "all classes counted"
    (List.length a.Core.Pipeline.outcomes_catastrophic
    + List.length a.Core.Pipeline.outcomes_non_catastrophic)
    h.Core.Pipeline.classes

let test_pipeline_injected_run_completes_degraded () =
  (* With 20 % of the simulations forced to fail, the run must complete —
     no exception — and report nonzero unresolved and recovered counts. *)
  let a = Lazy.force injected_analysis in
  let h = a.Core.Pipeline.health in
  Alcotest.(check bool) "unresolved classes reported" true
    (h.Core.Pipeline.unresolved > 0);
  Alcotest.(check bool) "recovered classes reported" true
    (h.Core.Pipeline.degraded > 0);
  Alcotest.(check bool) "retried covers both" true
    (h.Core.Pipeline.retried
    >= h.Core.Pipeline.degraded + h.Core.Pipeline.unresolved)

let test_pipeline_injected_health_jobs_invariant () =
  let with_jobs jobs =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () ->
        Core.Pipeline.analyze injected_config
          (Adc.Comparator.macro Adc.Comparator.default_options))
  in
  let a = with_jobs 1 in
  let b = with_jobs 4 in
  let counters x =
    let h = x.Core.Pipeline.health in
    ( h.Core.Pipeline.classes,
      h.Core.Pipeline.retried,
      h.Core.Pipeline.degraded,
      h.Core.Pipeline.unresolved )
  in
  Alcotest.(check bool) "same health counters" true (counters a = counters b);
  let render x =
    Util.Table.render (Core.Report.run_health (Core.Pipeline.run_health [ x ]))
  in
  Alcotest.(check string) "byte-identical health table" (render a) (render b);
  let bounds x =
    let g = Core.Global.combine [ x ] in
    ( Core.Global.coverage_bounds g Fault.Types.Catastrophic,
      Core.Global.coverage_bounds g Fault.Types.Non_catastrophic )
  in
  Alcotest.(check bool) "identical bounds" true (bounds a = bounds b)

let test_pipeline_bounds_bracket_clean_coverage () =
  let clean = Lazy.force comparator_analysis in
  let injected = Lazy.force injected_analysis in
  List.iter
    (fun severity ->
      let reference =
        Core.Global.coverage (Core.Global.combine [ clean ]) severity
      in
      let pessimistic, optimistic =
        Core.Global.coverage_bounds (Core.Global.combine [ injected ]) severity
      in
      Alcotest.(check bool)
        (Printf.sprintf "bracket (%.4f <= %.4f <= %.4f)" pessimistic reference
           optimistic)
        true
        (pessimistic <= reference +. 1e-9 && reference <= optimistic +. 1e-9))
    [ Fault.Types.Catastrophic; Fault.Types.Non_catastrophic ]

let test_pipeline_clean_bounds_collapse () =
  let g = Core.Global.combine [ Lazy.force comparator_analysis ] in
  let pessimistic, optimistic =
    Core.Global.coverage_bounds g Fault.Types.Catastrophic
  in
  let c = Core.Global.coverage g Fault.Types.Catastrophic in
  Alcotest.(check (float 1e-12)) "pessimistic = coverage" c pessimistic;
  Alcotest.(check (float 1e-12)) "optimistic = coverage" c optimistic

let test_pipeline_strict_fails_fast () =
  match
    Core.Pipeline.analyze
      (Core.Pipeline.Config.with_strict true injected_config)
      (Adc.Comparator.macro Adc.Comparator.default_options)
  with
  | _ -> Alcotest.fail "strict injected run must raise"
  | exception
      Util.Pool.Worker_failure
        (_, Macro.Evaluate.Simulation_failed { index; _ }) ->
    Alcotest.(check bool) "failing class index attached" true (index >= 0)

let test_pipeline_failure_budget () =
  match
    Core.Pipeline.analyze
      (Core.Pipeline.Config.with_failure_budget (Some 0) injected_config)
      (Adc.Comparator.macro Adc.Comparator.default_options)
  with
  | _ -> Alcotest.fail "zero budget must be exhausted"
  | exception Core.Pipeline.Budget_exhausted { failures; limit } ->
    Alcotest.(check int) "limit echoed" 0 limit;
    Alcotest.(check bool) "failures counted" true (failures > 0)

let test_run_health_report_renders () =
  let a = Lazy.force injected_analysis in
  let health = Core.Pipeline.run_health [ a ] in
  Alcotest.(check int) "totals match" health.Core.Pipeline.total_unresolved
    a.Core.Pipeline.health.Core.Pipeline.unresolved;
  let s = Util.Table.render (Core.Report.run_health health) in
  Alcotest.(check bool) "renders" true (String.length s > 50)

(* --- telemetry --------------------------------------------------------- *)

let telemetry_config =
  Core.Pipeline.Config.(
    small_config |> with_defects 2_000 |> with_good_space_dies 8)

(* Run one analysis with an In_memory sink at a given worker count and
   return the aggregated metrics. Durations never enter the aggregate,
   so the result must not depend on [jobs]. *)
let metrics_with_jobs ~config jobs =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_jobs saved)
    (fun () ->
      let memory = Util.Telemetry.in_memory () in
      let _ =
        Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) (fun () ->
            Core.Pipeline.analyze config
              (Adc.Comparator.macro Adc.Comparator.default_options))
      in
      Util.Telemetry.metrics memory)

let check_metrics_jobs_invariant config =
  let a = metrics_with_jobs ~config 1 in
  let b = metrics_with_jobs ~config 4 in
  (* Compare through the user-facing rendering: byte-identical tables. *)
  let render m = Core.Report.render ~format:`Text (Core.Report.metrics m) in
  Alcotest.(check string) "byte-identical metrics" (render a) (render b);
  Alcotest.(check bool) "counters present" true
    (List.mem_assoc "newton_iterations" a.Util.Telemetry.Metrics.counters
    && List.mem_assoc "classes_simulated" a.Util.Telemetry.Metrics.counters
    && List.mem_assoc "samples_drawn" a.Util.Telemetry.Metrics.counters)

let test_telemetry_counters_jobs_invariant_clean () =
  check_metrics_jobs_invariant telemetry_config

let test_telemetry_counters_jobs_invariant_injected () =
  let config =
    Core.Pipeline.Config.with_inject_failures (Some 0.2) telemetry_config
  in
  let a = metrics_with_jobs ~config 1 in
  check_metrics_jobs_invariant config;
  Alcotest.(check bool) "retries counted" true
    (match List.assoc_opt "retries" a.Util.Telemetry.Metrics.counters with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check bool) "escalation gauge kept" true
    (match
       List.assoc_opt "escalation_level" a.Util.Telemetry.Metrics.gauges
     with
    | Some v -> v >= 1.0
    | None -> false)

let test_telemetry_jsonl_roundtrip () =
  let path = Filename.temp_file "dotest_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let _ =
            Util.Telemetry.with_sink (Util.Telemetry.jsonl oc) (fun () ->
                Core.Pipeline.analyze telemetry_config
                  (Adc.Comparator.macro Adc.Comparator.default_options))
          in
          ());
      let lines =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      in
      Alcotest.(check bool) "trace non-empty" true (List.length lines > 10);
      (* Every line must parse back into an event. *)
      let events =
        List.map
          (fun line ->
            match Util.Telemetry.event_of_json (line |> fun s ->
              match Util.Json.of_string s with
              | Ok j -> j
              | Error e -> Alcotest.failf "bad json line: %s" e)
            with
            | Ok e -> e
            | Error e -> Alcotest.failf "bad event: %s" e)
          lines
      in
      (* Spans balance and nest: every end has a start, every parent is a
         known span id, and pipeline.stage spans sit under pipeline.macro. *)
      let starts = Hashtbl.create 64 in
      List.iter
        (function
          | Util.Telemetry.Span_start { id; name; _ } ->
            Hashtbl.replace starts id name
          | _ -> ())
        events;
      let ends =
        List.filter_map
          (function
            | Util.Telemetry.Span_end { id; parent; name; _ } ->
              Some (id, parent, name)
            | _ -> None)
          events
      in
      Alcotest.(check int) "starts balance ends" (Hashtbl.length starts)
        (List.length ends);
      List.iter
        (fun (id, parent, name) ->
          Alcotest.(check bool) "end has start" true (Hashtbl.mem starts id);
          (match parent with
          | None -> ()
          | Some p ->
            Alcotest.(check bool) "parent known" true (Hashtbl.mem starts p));
          if name = "pipeline.stage" then
            match parent with
            | Some p ->
              Alcotest.(check string) "stage under macro" "pipeline.macro"
                (Hashtbl.find starts p)
            | None -> Alcotest.fail "pipeline.stage must have a parent")
        ends;
      Alcotest.(check bool) "has a pipeline.macro span" true
        (Hashtbl.fold (fun _ n acc -> acc || n = "pipeline.macro") starts false);
      (* One span per stage, in pipeline order. *)
      Alcotest.(check (list string)) "stages in order"
        [ "sprinkle"; "collapse"; "good-space"; "evaluate-cat"; "evaluate-ncat" ]
        (List.filter_map
           (function
             | Util.Telemetry.Span_end { name = "pipeline.stage"; attrs; _ } ->
               (match List.assoc_opt "stage" attrs with
               | Some (Util.Telemetry.String s) -> Some s
               | Some _ | None -> None)
             | _ -> None)
           events))

(* --- report formats ---------------------------------------------------- *)

let test_report_render_formats_golden () =
  let t =
    Util.Table.create
      ~columns:[ "metric", Util.Table.Left; "value, n", Util.Table.Right ]
  in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b \"q\""; "2,5" ];
  Alcotest.(check string) "text"
    "+--------+----------+\n\
     | metric | value, n |\n\
     +--------+----------+\n\
     | alpha  |        1 |\n\
     | b \"q\"  |      2,5 |\n\
     +--------+----------+"
    (Core.Report.render ~format:`Text t);
  Alcotest.(check string) "csv"
    "metric,\"value, n\"\nalpha,1\n\"b \"\"q\"\"\",\"2,5\""
    (Core.Report.render ~format:`Csv t);
  Alcotest.(check string) "json"
    "[{\"metric\":\"alpha\",\"value, n\":\"1\"},{\"metric\":\"b \\\"q\\\"\",\"value, n\":\"2,5\"}]"
    (Core.Report.render ~format:`Json t)

let test_report_metrics_table () =
  let m = metrics_with_jobs ~config:telemetry_config 2 in
  let text = Core.Report.render ~format:`Text (Core.Report.metrics m) in
  Alcotest.(check bool) "mentions newton_iterations" true
    (let needle = "newton_iterations" in
     let n = String.length needle and h = String.length text in
     let rec scan i =
       i + n <= h && (String.sub text i n = needle || scan (i + 1))
     in
     scan 0)

(* --- result cache ------------------------------------------------------ *)

let with_cache_dir f =
  let dir = Filename.temp_file "dotest_cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* Everything the analysis reports, rendered: two runs are equivalent iff
   these strings are byte-identical. Stage wall-clock is excluded by
   construction (run_health and bounds never print it). *)
let analysis_fingerprint (a : Core.Pipeline.macro_analysis) =
  let g = Core.Global.combine [ a ] in
  String.concat "\n"
    [
      Util.Table.render (Core.Report.table1 a);
      Util.Table.render (Core.Report.table2 a);
      Util.Table.render (Core.Report.table3 a);
      Util.Table.render (Core.Report.figure3 a);
      Util.Table.render (Core.Report.run_health (Core.Pipeline.run_health [ a ]));
      Util.Table.render (Core.Report.coverage_bounds g);
    ]

let analyze_cached ~dir ~jobs config =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_jobs saved)
    (fun () ->
      (* A fresh handle per run: hits must come through the disk layer,
         exactly like a separate process would see them. *)
      let cache = Util.Cache.create ~dir ~version:Core.Codec.version () in
      let config = Core.Pipeline.Config.with_cache_handle (Some cache) config in
      let a =
        Core.Pipeline.analyze config
          (Adc.Comparator.macro Adc.Comparator.default_options)
      in
      a, Util.Cache.stats cache)

let test_cache_warm_equals_cold () =
  with_cache_dir @@ fun dir ->
  let cold, cold_stats = analyze_cached ~dir ~jobs:1 telemetry_config in
  Alcotest.(check int) "cold run misses" 1 cold_stats.Util.Cache.misses;
  Alcotest.(check int) "cold run has no hits" 0 cold_stats.Util.Cache.hits;
  (* Warm at jobs=1 and jobs=4: byte-identical to the cold run either way. *)
  List.iter
    (fun jobs ->
      let warm, warm_stats = analyze_cached ~dir ~jobs telemetry_config in
      Alcotest.(check int)
        (Printf.sprintf "warm run hits (jobs=%d)" jobs)
        1 warm_stats.Util.Cache.hits;
      Alcotest.(check int)
        (Printf.sprintf "warm run misses (jobs=%d)" jobs)
        0 warm_stats.Util.Cache.misses;
      Alcotest.(check string)
        (Printf.sprintf "byte-identical output (jobs=%d)" jobs)
        (analysis_fingerprint cold)
        (analysis_fingerprint warm))
    [ 1; 4 ]

let test_cache_hit_skips_simulation () =
  with_cache_dir @@ fun dir ->
  let _ = analyze_cached ~dir ~jobs:1 telemetry_config in
  (* Second run with an in-memory sink: the simulation counters must stay
     silent — the analysis came from the cache, not the solver. *)
  let memory = Util.Telemetry.in_memory () in
  let _, stats =
    Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) (fun () ->
        analyze_cached ~dir ~jobs:1 telemetry_config)
  in
  Alcotest.(check int) "hit" 1 stats.Util.Cache.hits;
  let m = Util.Telemetry.metrics memory in
  Alcotest.(check (option int)) "no classes simulated" None
    (List.assoc_opt "classes_simulated" m.Util.Telemetry.Metrics.counters);
  Alcotest.(check (option int)) "no samples drawn" None
    (List.assoc_opt "samples_drawn" m.Util.Telemetry.Metrics.counters);
  Alcotest.(check (option int)) "macro still counted" (Some 1)
    (List.assoc_opt "macros_analyzed" m.Util.Telemetry.Metrics.counters)

let test_cache_key_sensitivity () =
  with_cache_dir @@ fun dir ->
  let _ = analyze_cached ~dir ~jobs:1 telemetry_config in
  (* A changed seed must miss (and then store its own entry)... *)
  let seeded = Core.Pipeline.Config.with_seed 77 telemetry_config in
  let _, s = analyze_cached ~dir ~jobs:1 seeded in
  Alcotest.(check int) "different seed misses" 1 s.Util.Cache.misses;
  (* The solver backend is part of the key: even though all backends are
     required to produce identical tables, a backend regression must
     never be able to poison a warm cache for the others. *)
  let dense =
    Core.Pipeline.Config.with_solver Circuit.Engine.Dense telemetry_config
  in
  let _, sd = analyze_cached ~dir ~jobs:1 dense in
  Alcotest.(check int) "different solver misses" 1 sd.Util.Cache.misses;
  (* ...while the DfT comparator variant shares the macro name but not
     the netlist, so it must also miss rather than alias. *)
  let cache = Util.Cache.create ~dir ~version:Core.Codec.version () in
  let config =
    Core.Pipeline.Config.with_cache_handle (Some cache) telemetry_config
  in
  let _ =
    Core.Pipeline.analyze config (Adc.Comparator.macro Adc.Comparator.dft_options)
  in
  Alcotest.(check int) "dft variant misses" 1
    (Util.Cache.stats cache).Util.Cache.misses;
  (* And the original entry is still intact: a final warm run hits. *)
  let _, s3 = analyze_cached ~dir ~jobs:1 telemetry_config in
  Alcotest.(check int) "original still hits" 1 s3.Util.Cache.hits

let test_cache_warm_run_recheck_budget () =
  (* The failure budget is NOT part of the key: a warm hit re-checks it,
     so tightening the budget after a degraded run still aborts. *)
  with_cache_dir @@ fun dir ->
  let injected =
    Core.Pipeline.Config.with_inject_failures (Some 0.2) telemetry_config
  in
  let cold, _ = analyze_cached ~dir ~jobs:1 injected in
  Alcotest.(check bool) "degraded cold run" true
    (cold.Core.Pipeline.health.Core.Pipeline.unresolved > 0);
  let strict_budget =
    Core.Pipeline.Config.with_failure_budget (Some 0) injected
  in
  match analyze_cached ~dir ~jobs:1 strict_budget with
  | _ -> Alcotest.fail "warm hit must still honour the budget"
  | exception Core.Pipeline.Budget_exhausted { limit; _ } ->
    Alcotest.(check int) "limit echoed" 0 limit

let test_cache_analyze_all_warm () =
  with_cache_dir @@ fun dir ->
  let run jobs =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () ->
        let cache = Util.Cache.create ~dir ~version:Core.Codec.version () in
        let config =
          Core.Pipeline.Config.with_cache_handle (Some cache) telemetry_config
        in
        let analyses =
          Core.Pipeline.analyze_all config (Dft.Measures.original ())
        in
        let g = Core.Global.combine analyses in
        let rendered =
          Util.Table.render (Core.Report.figure4 g)
          ^ Util.Table.render (Core.Report.summary g)
          ^ Util.Table.render
              (Core.Report.run_health (Core.Pipeline.run_health analyses))
        in
        rendered, Util.Cache.stats cache)
    in
  let cold, cold_stats = run 1 in
  Alcotest.(check int) "five macros missed" 5 cold_stats.Util.Cache.misses;
  let warm, warm_stats = run 4 in
  Alcotest.(check int) "five macros hit" 5 warm_stats.Util.Cache.hits;
  Alcotest.(check int) "no warm misses" 0 warm_stats.Util.Cache.misses;
  Alcotest.(check string) "byte-identical global output" cold warm

let test_cache_resume_counts_each_miss_once () =
  (* With resume on, a macro's lookup is followed by reads of its class
     entries; those reads must not count as misses. A cold resumed run
     reports one miss per macro, a warm one one hit each. *)
  with_cache_dir @@ fun dir ->
  let run () =
    let cache = Util.Cache.create ~dir ~version:Core.Codec.version () in
    let config =
      telemetry_config
      |> Core.Pipeline.Config.with_cache_handle (Some cache)
      |> Core.Pipeline.Config.with_checkpoint
           (Some (Core.Checkpoint.create ~resume:true ()))
    in
    ignore (Core.Pipeline.analyze_all config (Dft.Measures.original ()));
    let s = Util.Cache.stats cache in
    s.Util.Cache.hits, s.Util.Cache.misses
  in
  Alcotest.(check (pair int int)) "cold resumed: hits, misses" (0, 5) (run ());
  Alcotest.(check (pair int int)) "warm resumed: hits, misses" (5, 0) (run ())

(* --- run survival: deadlines, checkpoint/resume, shutdown -------------- *)

(* A shutdown raised inside a worker domain may surface wrapped in
   [Pool.Worker_failure]; unwrap before matching. *)
let rec survival_root_cause = function
  | Util.Pool.Worker_failure (_, cause) -> survival_root_cause cause
  | e -> e

let analyze_survival ~dir ~jobs ~checkpoint config =
  let saved = Util.Pool.jobs () in
  Util.Pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_jobs saved)
    (fun () ->
      let cache = Util.Cache.create ~dir ~version:Core.Codec.version () in
      let config =
        config
        |> Core.Pipeline.Config.with_cache_handle (Some cache)
        |> Core.Pipeline.Config.with_checkpoint (Some checkpoint)
      in
      Core.Pipeline.analyze config
        (Adc.Comparator.macro Adc.Comparator.default_options))

(* A run killed mid-evaluation and resumed produces the same bytes as
   [clean], the run that was never interrupted, at jobs 1 and 4. The
   [interrupt_after] hook stands in for a real SIGTERM, making the kill
   point deterministic. *)
let check_kill_and_resume ~what ~clean config =
  let config = Core.Pipeline.Config.with_cache_handle None config in
  List.iter
    (fun jobs ->
      with_cache_dir @@ fun dir ->
      Fun.protect ~finally:Util.Watchdog.reset_shutdown @@ fun () ->
      (* Phase 1: kill the run after 10 stored classes. *)
      let interrupted = Core.Checkpoint.create ~interrupt_after:10 () in
      (match analyze_survival ~dir ~jobs ~checkpoint:interrupted config with
      | _ -> Alcotest.fail "interrupted run must not complete"
      | exception e -> (
        match survival_root_cause e with
        | Util.Watchdog.Interrupted _ -> ()
        | other -> raise other));
      let s = Core.Checkpoint.stats interrupted in
      Alcotest.(check bool)
        (Printf.sprintf "%s: progress stored before kill (jobs=%d)" what jobs)
        true
        (s.Core.Checkpoint.recorded >= 10);
      Util.Watchdog.reset_shutdown ();
      (* Phase 2: resume with a fresh store and cache handle. *)
      let resumed = Core.Checkpoint.create ~resume:true () in
      let a = analyze_survival ~dir ~jobs ~checkpoint:resumed config in
      let s = Core.Checkpoint.stats resumed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: classes restored on resume (jobs=%d)" what jobs)
        true
        (s.Core.Checkpoint.restored >= 10);
      Alcotest.(check string)
        (Printf.sprintf "%s: resume equals uninterrupted (jobs=%d)" what jobs)
        clean (analysis_fingerprint a))
    [ 1; 4 ]

let test_checkpoint_kill_and_resume () =
  check_kill_and_resume ~what:"plain"
    ~clean:(analysis_fingerprint (Lazy.force comparator_analysis))
    small_config

let test_checkpoint_kill_and_resume_contained () =
  (* Injection and deadlines are kept apart by their class keys, not
     turned away: a resumed run under either still reads its classes
     back, and still equals the uninterrupted run. *)
  let deadline_config =
    Core.Pipeline.Config.with_deadline
      (Some (Util.Watchdog.limits ~max_iterations:3_000 ()))
      small_config
  in
  check_kill_and_resume ~what:"injected"
    ~clean:(analysis_fingerprint (Lazy.force injected_analysis))
    injected_config;
  check_kill_and_resume ~what:"deadline"
    ~clean:
      (analysis_fingerprint
         (Core.Pipeline.analyze deadline_config
            (Adc.Comparator.macro Adc.Comparator.default_options)))
    deadline_config

let test_checkpoint_leaves_class_entries () =
  (* A completed cached run leaves its result entry plus one class entry
     per class it simulated, and no partial. *)
  with_cache_dir @@ fun dir ->
  let store = Core.Checkpoint.create () in
  let a = analyze_survival ~dir ~jobs:1 ~checkpoint:store telemetry_config in
  let entries = Array.to_list (Sys.readdir dir) in
  let classes =
    List.filter (fun name -> Filename.check_suffix name "-class.json") entries
  in
  Alcotest.(check int) "one result entry" 1
    (List.length entries - List.length classes);
  Alcotest.(check int) "every class simulated and stored"
    a.Core.Pipeline.health.Core.Pipeline.classes
    (Core.Checkpoint.stats store).Core.Checkpoint.recorded;
  Alcotest.(check int) "one entry per stored class"
    (Core.Checkpoint.stats store).Core.Checkpoint.recorded (List.length classes);
  Alcotest.(check bool) "no partial" false
    (List.exists
       (fun name -> Filename.check_suffix name "-partial.json")
       entries)

let test_deadline_unresolved_jobs_invariant () =
  (* An iteration budget no escalated retry can meet: every class walks
     the full ladder (budget doubling each rung) and lands unresolved.
     The resulting tables must still be byte-identical across jobs —
     an iteration cap is a pure function of the computation. *)
  let run jobs =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () ->
        let config =
          telemetry_config
          |> Core.Pipeline.Config.with_max_retries 1
          |> Core.Pipeline.Config.with_deadline
               (Some (Util.Watchdog.limits ~max_iterations:1 ()))
        in
        Core.Pipeline.analyze config
          (Adc.Comparator.macro Adc.Comparator.default_options))
  in
  let a = run 1 in
  Alcotest.(check bool) "deadline leaves classes unresolved" true
    (a.Core.Pipeline.health.Core.Pipeline.unresolved > 0);
  Alcotest.(check bool) "expiries were retried" true
    (a.Core.Pipeline.health.Core.Pipeline.retried > 0);
  let b = run 4 in
  Alcotest.(check string) "byte-identical across jobs"
    (analysis_fingerprint a) (analysis_fingerprint b)

let test_deadline_respects_failure_budget () =
  (* Deadline expiries are containment events like any other: a zero
     failure budget aborts the run on the first one. *)
  let config =
    telemetry_config
    |> Core.Pipeline.Config.with_max_retries 1
    |> Core.Pipeline.Config.with_failure_budget (Some 0)
    |> Core.Pipeline.Config.with_deadline
         (Some (Util.Watchdog.limits ~max_iterations:1 ()))
  in
  match
    Core.Pipeline.analyze config
      (Adc.Comparator.macro Adc.Comparator.default_options)
  with
  | _ -> Alcotest.fail "zero budget must be exhausted by expiries"
  | exception Core.Pipeline.Budget_exhausted { limit; _ } ->
    Alcotest.(check int) "limit echoed" 0 limit

let test_deadline_part_of_cache_key () =
  (* A cached analysis from an unlimited run must not be served to a
     deadline-constrained one (or vice versa): the limits are part of
     the key, so stale checkpoints and full entries can never alias. *)
  with_cache_dir @@ fun dir ->
  let _ = analyze_cached ~dir ~jobs:1 telemetry_config in
  let constrained =
    Core.Pipeline.Config.with_deadline
      (Some (Util.Watchdog.limits ~max_iterations:1_000_000 ()))
      telemetry_config
  in
  let _, s = analyze_cached ~dir ~jobs:1 constrained in
  Alcotest.(check int) "deadline config misses" 1 s.Util.Cache.misses;
  Alcotest.(check int) "no false hit" 0 s.Util.Cache.hits

(* --- solver backends --------------------------------------------------- *)

(* The solver determinism contract: every backend produces byte-identical
   tables and health counters at any job count, clean or fault-injected.
   [Dense] at jobs=1 is the reference; the factorization-reuse backends
   must match it exactly — reuse and fallback decisions are functions of
   the numbers, never of timing or scheduling. *)
let test_solver_tables_invariant () =
  let analyze ~solver ~jobs config =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () ->
        Core.Pipeline.analyze
          (Core.Pipeline.Config.with_solver solver config)
          (Adc.Comparator.macro Adc.Comparator.default_options))
  in
  List.iter
    (fun (tag, config) ->
      let reference =
        analysis_fingerprint
          (analyze ~solver:Circuit.Engine.Dense ~jobs:1 config)
      in
      List.iter
        (fun solver ->
          List.iter
            (fun jobs ->
              if not (solver = Circuit.Engine.Dense && jobs = 1) then
                Alcotest.(check string)
                  (Printf.sprintf "%s equals dense (%s, jobs=%d)"
                     (Circuit.Engine.solver_name solver)
                     tag jobs)
                  reference
                  (analysis_fingerprint (analyze ~solver ~jobs config)))
            [ 1; 4 ])
        Circuit.Engine.all_solvers)
    [
      "clean", telemetry_config;
      ( "injected",
        Core.Pipeline.Config.with_inject_failures (Some 0.2) telemetry_config
      );
    ]

(* The config's solver reaches every simulating stage, on whichever
   domain runs it. Both policies print identical tables, so only the
   engine's counters can tell them apart: under [Dense] no iteration may
   take the reuse policy's bypass or rank-1 paths, under [Auto] both
   must fire, and neither may depend on the job count. A solver
   installed around some stages only, or outside the pool hop into
   [analyze_all]'s workers, lets [Auto] leak into a [Dense] run. *)
let test_solver_reaches_every_stage () =
  let macros = [ Adc.Bias_gen.macro (); Adc.Clock_gen.macro () ] in
  let counters ~solver ~jobs =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) @@ fun () ->
    let memory = Util.Telemetry.in_memory () in
    Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) (fun () ->
        ignore
          (Core.Pipeline.analyze_all
             Core.Pipeline.Config.(
               default |> with_defects 300 |> with_good_space_dies 4
               |> with_solver solver)
             macros));
    (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters
  in
  List.iter
    (fun solver ->
      let name = Circuit.Engine.solver_name solver in
      let at_1 = counters ~solver ~jobs:1 in
      Alcotest.(check (list (pair string int)))
        (name ^ ": same counters at jobs 1 and 2")
        at_1 (counters ~solver ~jobs:2);
      List.iter
        (fun key ->
          let n = Option.value ~default:0 (List.assoc_opt key at_1) in
          match solver with
          | Circuit.Engine.Dense ->
            Alcotest.(check int) (Printf.sprintf "%s: %s" name key) 0 n
          | Circuit.Engine.Auto ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s fired" name key)
              true (n > 0))
        [ "engine.jacobian_bypass"; "engine.rank1_solves" ])
    Circuit.Engine.all_solvers

(* Classes enter the store's memory in class order once an evaluation
   has merged, whatever order its workers recorded them in, so what the
   store holds never depends on the job count. At capacity 3, six
   classes recorded from index 5 down must leave indices 3 to 5 for the
   next evaluation; a store that kept each class as it was recorded
   would hold 0 to 2. *)
let test_store_class_order () =
  let store = Core.Checkpoint.create ~capacity:3 () in
  let classes =
    Array.init 6 (fun i ->
        {
          Fault.Collapse.representative =
            {
              Fault.Types.fault =
                Fault.Types.Device_ds_short
                  { device = Printf.sprintf "M%d" i; resistance = 1.0 };
              severity = Fault.Types.Catastrophic;
              mechanism =
                Process.Defect_stats.Extra_material Process.Layer.Metal1;
            };
          count = 1;
        })
  in
  let key ~index _ = Printf.sprintf "class-%d" index in
  let evaluate f = Core.Checkpoint.evaluate store ~cache:None ~macro:"m" ~key f in
  evaluate (fun (hook : Macro.Evaluate.store) ->
      List.iter
        (fun index ->
          hook.record ~index classes.(index)
            { Macro.Evaluate.vector = [ "v", float_of_int index ];
              status = Macro.Evaluate.Converged })
        [ 5; 4; 3; 2; 1; 0 ]);
  let served =
    evaluate (fun (hook : Macro.Evaluate.store) ->
        List.filter
          (fun index -> Option.is_some (hook.find ~index classes.(index)))
          [ 0; 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check (list int)) "the three highest indices kept" [ 3; 4; 5 ]
    served

let test_run_survival_renders () =
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  let off = Util.Table.render (Core.Report.run_survival small_config) in
  Alcotest.(check bool) "reports checkpointing off" true (contains off "off");
  let on =
    small_config
    |> Core.Pipeline.Config.with_deadline
         (Some (Util.Watchdog.limits ~wall_seconds:30.0 ~max_iterations:5_000 ()))
    |> Core.Pipeline.Config.with_checkpoint
         (Some (Core.Checkpoint.create ~resume:true ()))
  in
  let s = Util.Table.render (Core.Report.run_survival on) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (contains s needle))
    [ "30"; "5000 iterations"; "on (resume)"; "classes restored" ]

let global_pair =
  lazy
    (Core.Global.compare_coverage ~config:small_config ())

let test_global_weights_normalized () =
  let original, _ = Lazy.force global_pair in
  let total =
    List.fold_left
      (fun acc (a : Core.Pipeline.macro_analysis) ->
        acc +. Core.Global.weight original a.macro.Macro.Macro_cell.name)
      0.0
      (Core.Global.analyses original)
  in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 total

let test_global_partition_normalized () =
  let original, _ = Lazy.force global_pair in
  List.iter
    (fun severity ->
      let cells = Core.Global.partition original severity in
      let total =
        List.fold_left
          (fun acc (c : Testgen.Overlap.cell) -> acc +. c.share)
          0.0 cells
      in
      Alcotest.(check (float 1e-9)) "partition sums to 1" 1.0 total)
    [ Fault.Types.Catastrophic; Fault.Types.Non_catastrophic ]

let test_global_coverage_sane () =
  let original, _ = Lazy.force global_pair in
  let c = Core.Global.coverage original Fault.Types.Catastrophic in
  Alcotest.(check bool) "between 80% and 100%" true (c > 0.8 && c < 1.0)

let test_dft_improves_coverage () =
  let original, improved = Lazy.force global_pair in
  let before = Core.Global.coverage original Fault.Types.Catastrophic in
  let after = Core.Global.coverage improved Fault.Types.Catastrophic in
  Alcotest.(check bool)
    (Printf.sprintf "DfT helps (%.3f -> %.3f)" before after)
    true
    (after > before)

let test_reports_render () =
  let a = Lazy.force comparator_analysis in
  let original, _ = Lazy.force global_pair in
  List.iter
    (fun table ->
      Alcotest.(check bool) "non-empty" true
        (String.length (Util.Table.render table) > 50))
    [
      Core.Report.table1 a;
      Core.Report.table2 a;
      Core.Report.table3 a;
      Core.Report.figure3 a;
      Core.Report.figure4 original;
      Core.Report.macro_current original;
      Core.Report.summary original;
    ]

(* --- golden paper run -------------------------------------------------- *)

(* A quoted literal opens with a newline for readability; drop it. *)
let pinned s = String.sub s 1 (String.length s - 1)

(* The paper's Fig. 4 and Fig. 5 runs at [Config.default] (seed 1995,
   25,000 defects per macro, 48 good-space dies), pinned as rendered.
   These are the numbers EXPERIMENTS.md reports: a change that moves one
   changes the reproduction record and must update it. The tables are
   jobs-invariant, so any worker count prints these bytes. *)
let test_paper_run_golden () =
  let original, improved =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs 2;
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_jobs saved)
      (fun () -> Core.Global.compare_coverage ~config:Core.Pipeline.Config.default ())
  in
  let check name expected table =
    Alcotest.(check string) name (pinned expected) (Util.Table.render table)
  in
  check "Fig. 4" {|
+------------------+--------------+-------+--------------+------------+----------+
| fault set        | voltage only |  both | current only | undetected | coverage |
+------------------+--------------+-------+--------------+------------+----------+
| catastrophic     |        14.5% | 50.6% |        27.0% |       7.9% |    92.1% |
| non-catastrophic |        14.3% | 38.4% |        39.2% |       8.1% |    91.9% |
+------------------+--------------+-------+--------------+------------+----------+|}
    (Core.Report.figure4 original);
  check "Fig. 5" {|
+------------------+--------------+-------+--------------+------------+----------+
| fault set        | voltage only |  both | current only | undetected | coverage |
+------------------+--------------+-------+--------------+------------+----------+
| catastrophic     |        16.5% | 49.3% |        30.3% |       3.9% |    96.1% |
| non-catastrophic |        16.0% | 37.3% |        42.7% |       4.0% |    96.0% |
+------------------+--------------+-------+--------------+------------+----------+|}
    (Core.Report.figure4 improved);
  check "per-macro current detectability" {|
+-----------------+-------------+--------------------+
| macro           | area weight | current detectable |
+-----------------+-------------+--------------------+
| comparator      |       69.3% |              74.0% |
| ladder          |        8.9% |              86.6% |
| bias generator  |        0.1% |              30.9% |
| clock generator |        0.1% |              87.4% |
| decoder         |       21.5% |              85.8% |
+-----------------+-------------+--------------------+|}
    (Core.Report.macro_current original);
  check "summary" {|
+-----------------------------+---------+
| metric                      |   value |
+-----------------------------+---------+
| coverage (catastrophic)     |   92.1% |
| coverage (non-catastrophic) |   91.9% |
| IDDQ-only share             |    3.5% |
| current-only share          |   27.0% |
| simple-test time            | 1200 us |
+-----------------------------+---------+|}
    (Core.Report.summary original);
  check "run health" {|
+-----------------+---------+---------+----------+------------+
| macro           | classes | retried | degraded | unresolved |
+-----------------+---------+---------+----------+------------+
| comparator      |     212 |       0 |        0 |          0 |
| ladder          |     361 |       0 |        0 |          0 |
| bias generator  |      30 |       0 |        0 |          0 |
| clock generator |     135 |       0 |        0 |          0 |
| decoder         |     290 |       6 |        0 |          6 |
+-----------------+---------+---------+----------+------------+
| total           |    1028 |       6 |        0 |          6 |
+-----------------+---------+---------+----------+------------+|}
    (Core.Report.run_health
       (Core.Pipeline.run_health (Core.Global.analyses original)));
  check "coverage bounds" {|
+------------------+-------------+----------+------------+
| fault set        | pessimistic | coverage | optimistic |
+------------------+-------------+----------+------------+
| catastrophic     |       91.4% |    92.1% |      92.1% |
| non-catastrophic |       91.9% |    91.9% |      91.9% |
+------------------+-------------+----------+------------+|}
    (Core.Report.coverage_bounds original)

let test_dft_guidelines_exist () =
  Alcotest.(check bool) "guidelines" true (List.length Dft.Measures.guidelines >= 2);
  List.iter
    (fun m ->
      Alcotest.(check bool) "described" true
        (String.length (Dft.Measures.describe m) > 20))
    Dft.Measures.all_measures

let suites =
  [
    ( "core.pipeline",
      [
        Alcotest.test_case "produces outcomes" `Slow test_pipeline_produces_outcomes;
        Alcotest.test_case "deterministic" `Slow test_pipeline_deterministic;
        Alcotest.test_case "jobs invariant" `Slow test_pipeline_jobs_invariant;
        Alcotest.test_case "evaluates at the config's tech" `Slow
          test_pipeline_evaluates_at_config_tech;
        Alcotest.test_case "seed sensitivity" `Slow test_pipeline_seed_changes_results;
        Alcotest.test_case "paper shape holds" `Slow test_pipeline_comparator_shape;
      ] );
    ( "core.resilience",
      [
        Alcotest.test_case "clean run health" `Slow test_pipeline_clean_run_health;
        Alcotest.test_case "injected run degrades" `Slow test_pipeline_injected_run_completes_degraded;
        Alcotest.test_case "health jobs invariant" `Slow test_pipeline_injected_health_jobs_invariant;
        Alcotest.test_case "bounds bracket clean coverage" `Slow test_pipeline_bounds_bracket_clean_coverage;
        Alcotest.test_case "clean bounds collapse" `Slow test_pipeline_clean_bounds_collapse;
        Alcotest.test_case "strict fails fast" `Slow test_pipeline_strict_fails_fast;
        Alcotest.test_case "failure budget" `Slow test_pipeline_failure_budget;
        Alcotest.test_case "run health renders" `Slow test_run_health_report_renders;
      ] );
    ( "core.global",
      [
        Alcotest.test_case "weights normalized" `Slow test_global_weights_normalized;
        Alcotest.test_case "partition normalized" `Slow test_global_partition_normalized;
        Alcotest.test_case "coverage sane" `Slow test_global_coverage_sane;
        Alcotest.test_case "DfT improves coverage" `Slow test_dft_improves_coverage;
        Alcotest.test_case "paper run tables pinned" `Slow test_paper_run_golden;
      ] );
    ( "core.telemetry",
      [
        Alcotest.test_case "counters jobs-invariant (clean)" `Slow
          test_telemetry_counters_jobs_invariant_clean;
        Alcotest.test_case "counters jobs-invariant (injected)" `Slow
          test_telemetry_counters_jobs_invariant_injected;
        Alcotest.test_case "jsonl trace round-trips" `Slow
          test_telemetry_jsonl_roundtrip;
      ] );
    ( "core.cache",
      [
        Alcotest.test_case "warm equals cold (jobs 1 and 4)" `Slow
          test_cache_warm_equals_cold;
        Alcotest.test_case "hit skips simulation" `Slow
          test_cache_hit_skips_simulation;
        Alcotest.test_case "key sensitivity" `Slow test_cache_key_sensitivity;
        Alcotest.test_case "warm run re-checks budget" `Slow
          test_cache_warm_run_recheck_budget;
        Alcotest.test_case "analyze_all warm" `Slow test_cache_analyze_all_warm;
        Alcotest.test_case "resume counts each miss once" `Slow
          test_cache_resume_counts_each_miss_once;
      ] );
    ( "core.survival",
      [
        Alcotest.test_case "kill and resume (jobs 1 and 4)" `Slow
          test_checkpoint_kill_and_resume;
        Alcotest.test_case "kill and resume, injected and deadline" `Slow
          test_checkpoint_kill_and_resume_contained;
        Alcotest.test_case "completed run leaves class entries" `Slow
          test_checkpoint_leaves_class_entries;
        Alcotest.test_case "deadline unresolved jobs-invariant" `Slow
          test_deadline_unresolved_jobs_invariant;
        Alcotest.test_case "deadline respects failure budget" `Slow
          test_deadline_respects_failure_budget;
        Alcotest.test_case "deadline part of cache key" `Slow
          test_deadline_part_of_cache_key;
        Alcotest.test_case "store keeps classes in class order" `Quick
          test_store_class_order;
        Alcotest.test_case "run survival renders" `Quick
          test_run_survival_renders;
      ] );
    ( "core.solver",
      [
        Alcotest.test_case "tables invariant across backends and jobs" `Slow
          test_solver_tables_invariant;
        Alcotest.test_case "config solver reaches every stage" `Quick
          test_solver_reaches_every_stage;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "reports render" `Slow test_reports_render;
        Alcotest.test_case "render formats golden" `Quick
          test_report_render_formats_golden;
        Alcotest.test_case "metrics table" `Slow test_report_metrics_table;
        Alcotest.test_case "guidelines" `Quick test_dft_guidelines_exist;
      ] );
  ]
