(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, prints paper-reported values next to measured ones,
   and runs the ablation studies listed in DESIGN.md §6. The repository
   benchmark (end-to-end timings, the daemon under load) is perfbench/.

   Flags:
     --quick         smaller defect counts (fast smoke run)
     --no-ablations  skip the ablation sweeps
     --jobs N        worker domains (default: cores-1, min 1; DOTEST_JOBS)
     --scaling       emit the scaling study as one JSON object (schema
                     dotest-bench/12): per-N raw-solve table (dense vs
                     auto vs auto+shared) plus pipeline evaluate-stage
                     A/Bs on the n=37 comparator (quick) and the large-N
                     scaled ADC; nothing else is printed
     --bits N        size of --scaling's scaled macro: 2^N ladder taps
                     (2..14; default 11, 10 under --quick)

   An unknown flag, or a flag missing its value, prints the usage and
   exits 2. *)

let quick, no_ablations, jobs, scaling_mode, bench_bits =
  let quick = ref false and no_ablations = ref false and scaling = ref false in
  let jobs = ref None and bits = ref None in
  let checked r ok msg =
    Arg.Int (fun n -> if ok n then r := Some n else raise (Arg.Bad msg))
  in
  Arg.parse
    (Arg.align
       [
         "--quick", Arg.Set quick, " smaller defect counts";
         "--no-ablations", Arg.Set no_ablations, " skip the ablation sweeps";
         ( "--jobs",
           checked jobs (fun n -> n > 0) "--jobs expects a positive integer",
           "N worker domains" );
         "--scaling", Arg.Set scaling, " emit the scaling study as JSON";
         ( "--bits",
           checked bits
             (fun b -> b >= 2 && b <= 14)
             "--bits expects an integer in 2..14",
           "N --scaling's scaled macro: 2^N ladder taps" );
       ])
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "Usage: main.exe [--quick] [--no-ablations] [--jobs N] [--scaling] \
     [--bits N]";
  ( !quick,
    !no_ablations,
    Option.value !jobs ~default:(Util.Pool.default_jobs ()),
    !scaling,
    (* --scaling targets the regime where per-iteration factorization
       dominates per-class fixed costs; below ~1000 unknowns the dense
       backend hides behind warm-started two-iteration Newton runs. Full
       mode goes one size further out, where the n³ term is unambiguous. *)
    Option.value !bits ~default:(if !quick then 10 else 11) )

let () = Util.Pool.set_jobs jobs

let config =
  if quick then
    Core.Pipeline.Config.(
      default |> with_defects 5_000 |> with_good_space_dies 16)
  else Core.Pipeline.Config.default

let banner title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let note fmt = Format.printf fmt

let print_table t = Format.printf "%s@." (Util.Table.render t)

let seconds f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  result, Unix.gettimeofday () -. t0

(* ------------------------------------------------------------------ *)
(* T1-T3, F3: the comparator macro                                      *)
(* ------------------------------------------------------------------ *)

let comparator_experiments () =
  banner "Experiment T1/T2/T3/F3: comparator test path";
  (* Table 1 magnitudes: the paper first sprinkled 25 000 defects for the
     class list and later 10 000 000 for statistically significant
     magnitudes; we scale the same way (more spots, same classes). *)
  let t1_config =
    if quick then config
    else Core.Pipeline.Config.with_defects 200_000 config
  in
  let analysis, dt =
    seconds (fun () ->
        Core.Pipeline.analyze t1_config
          (Adc.Comparator.macro Adc.Comparator.default_options))
  in
  note "(%d defects sprinkled, %d effective, %.1f s)@."
    analysis.Core.Pipeline.sprinkled analysis.Core.Pipeline.effective dt;
  note
    "@.Table 1 — paper: shorts >95%% of faults; opens a tiny fault share but a visible class share@.";
  print_table (Core.Report.table1 analysis);
  note "@.Table 2 — paper: stuck-at dominates; clock-value grows for non-catastrophic@.";
  print_table (Core.Report.table2 analysis);
  note "@.Table 3 — paper: IDDQ detects 24.2%%/25.6%%; currents overlap@.";
  print_table (Core.Report.table3 analysis);
  note "@.Fig. 3 — paper: missing-code 66.2%%, 26.6%% current-only, 10.0%% IDDQ-only@.";
  print_table (Core.Report.figure3 analysis)

(* ------------------------------------------------------------------ *)
(* F4, F5, X1, X2: global and DfT                                       *)
(* ------------------------------------------------------------------ *)

let global_experiments () =
  banner "Experiment F4/F5/X1/X2: global coverage and DfT";
  let run macros =
    Core.Global.combine (Core.Pipeline.analyze_all config macros)
  in
  let original, dt_original =
    seconds (fun () -> run (Dft.Measures.original ()))
  in
  note "(original macro set analysed in %.1f s)@." dt_original;
  note "@.Fig. 4 — paper: coverage 93.3%% cat / 93.1%% non-cat; 32.5%% current-only@.";
  print_table (Core.Report.figure4 original);
  note "@.X1 per-macro current detectability — paper: clock generator 93.8%%, ladder 99.8%%@.";
  print_table (Core.Report.macro_current original);
  let improved, dt_improved =
    seconds (fun () -> run (Dft.Measures.improved ()))
  in
  note "@.(DfT macro set analysed in %.1f s)@." dt_improved;
  note "@.Fig. 5 — paper: coverage rises to 99.1%%; voltage-only shrinks to 5.8%%@.";
  print_table (Core.Report.figure4 improved);
  note "@.X2 headline scalars — paper: 10.0%%/11.0%% IDDQ-only; millisecond-scale test time@.";
  print_table (Core.Report.summary original);
  let cat = Core.Global.partition original Fault.Types.Catastrophic in
  let ncat = Core.Global.partition original Fault.Types.Non_catastrophic in
  note
    "IDDQ-only: catastrophic %.1f%%, non-catastrophic %.1f%% (paper: 10.0%%/11.0%%)@."
    (100. *. Testgen.Overlap.only_detected_by cat ~mechanism:"IDDQ")
    (100. *. Testgen.Overlap.only_detected_by ncat ~mechanism:"IDDQ")

(* ------------------------------------------------------------------ *)
(* X3: quality impact, X4: the amplifier baseline study                 *)
(* ------------------------------------------------------------------ *)

let quality_experiment () =
  banner "Experiment X3: outgoing quality (Williams-Brown)";
  note
    "The paper's motivation: escapes ship as field failures. Translating@.\
     the measured coverages into defect levels at an 80%% process yield:@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "test strategy", Util.Table.Left;
          "coverage", Util.Table.Right;
          "defective parts per million", Util.Table.Right;
        ]
  in
  let row label coverage =
    Util.Table.add_row t
      [
        label;
        Util.Table.cell_pct (100. *. coverage);
        Printf.sprintf "%.0f" (Testgen.Quality.dpm ~yield:0.80 ~coverage);
      ]
  in
  row "no test" 0.0;
  row "simple tests (paper: 93.3%)" 0.933;
  row "simple tests + DfT (paper: 99.1%)" 0.991;
  print_table t;
  note "coverage needed for 100 DPM at this yield: %.2f%%@."
    (100. *. Testgen.Quality.required_coverage ~yield:0.80 ~target_dpm:100.0)

let amplifier_experiment () =
  banner "Experiment X4: the Class-AB amplifier baseline (paper ref. [6])";
  note
    "Sachdev's silicon experiment: most process defects in a Class AB@.\
     amplifier are detectable by simple DC, transient and AC measurements.@.";
  let amp_config =
    if quick then Core.Pipeline.Config.with_defects 5_000 config else config
  in
  let result, dt = seconds (fun () -> Amplifier.Study.run ~config:amp_config ()) in
  note "(%d classes analysed in %.1f s)@."
    (List.length result.Amplifier.Study.reports)
    dt;
  print_table (Amplifier.Study.report_table result)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §6)                                             *)
(* ------------------------------------------------------------------ *)

let ablation_sigma () =
  banner "Ablation A1: acceptance-window width (sigma)";
  note "Wider windows trade escapes for yield loss; the paper uses 3 sigma.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "sigma", Util.Table.Right;
          "comparator coverage (cat)", Util.Table.Right;
          "current-only share", Util.Table.Right;
        ]
  in
  let sweep sigma =
    let cfg = Core.Pipeline.Config.with_sigma sigma config in
    let a =
      Core.Pipeline.analyze cfg
        (Adc.Comparator.macro Adc.Comparator.default_options)
    in
    let venn =
      Testgen.Overlap.venn_of_partition
        (Testgen.Overlap.partition a.Core.Pipeline.outcomes_catastrophic)
    in
    Util.Table.add_row t
      [
        Printf.sprintf "%.0f" sigma;
        Util.Table.cell_pct (100. *. Testgen.Overlap.coverage venn);
        Util.Table.cell_pct (100. *. venn.Testgen.Overlap.current_only);
      ]
  in
  List.iter sweep [ 2.0; 3.0; 6.0 ];
  print_table t

let ablation_samples () =
  banner "Ablation A2: missing-code ramp length";
  note "Catching a 1.2 LSB offset and an erratic comparator vs sample count.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "samples", Util.Table.Right;
          "offset fault caught", Util.Table.Right;
          "erratic trips test", Util.Table.Right;
          "test time (us)", Util.Table.Right;
        ]
  in
  let prng = Util.Prng.create 11 in
  let sweep samples =
    let offset_adc =
      Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
        (Adc.Flash_adc.Functional (1.2 *. Adc.Params.lsb))
    in
    let erratic_adc =
      Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
        Adc.Flash_adc.Erratic
    in
    let caught = Adc.Flash_adc.missing_codes offset_adc prng ~samples <> [] in
    let erratic_trips =
      Adc.Flash_adc.missing_codes erratic_adc prng ~samples <> []
    in
    Util.Table.add_row t
      [
        string_of_int samples;
        (if caught then "yes" else "NO");
        (if erratic_trips then "yes" else "no");
        Printf.sprintf "%.0f"
          (Testgen.Test_time.missing_code_time ~samples *. 1e6);
      ]
  in
  List.iter sweep [ 256; 1000; 4096 ];
  print_table t

let ablation_near_miss () =
  banner "Ablation A3: non-catastrophic short model";
  note "The paper models near-miss shorts as 500 ohm || 1 fF.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "model", Util.Table.Left;
          "comparator coverage (non-cat)", Util.Table.Right;
        ]
  in
  let coverage_with ~resistance ~capacitance =
    let tech =
      {
        Process.Tech.cmos1um with
        Process.Tech.near_miss_resistance = resistance;
        near_miss_capacitance = capacitance;
      }
    in
    let cfg = Core.Pipeline.Config.with_tech tech config in
    let a =
      Core.Pipeline.analyze cfg
        (Adc.Comparator.macro Adc.Comparator.default_options)
    in
    let venn =
      Testgen.Overlap.venn_of_partition
        (Testgen.Overlap.partition a.Core.Pipeline.outcomes_non_catastrophic)
    in
    Testgen.Overlap.coverage venn
  in
  List.iter
    (fun (label, resistance, capacitance) ->
      Util.Table.add_row t
        [
          label;
          Util.Table.cell_pct (100. *. coverage_with ~resistance ~capacitance);
        ])
    [
      "500 ohm || 1 fF (paper)", 500.0, 1e-15;
      "500 ohm only", 500.0, 1e-30;
      "5 kohm || 1 fF", 5_000.0, 1e-15;
    ];
  print_table t

let ablation_defect_count () =
  banner "Ablation A4: defect-sample size";
  note "The paper re-sprinkled 25k -> 10M defects to stabilize magnitudes.@.";
  let t =
    Util.Table.create
      ~columns:
        [
          "defects", Util.Table.Right;
          "fault classes", Util.Table.Right;
          "short share", Util.Table.Right;
        ]
  in
  let macro = Adc.Comparator.macro Adc.Comparator.default_options in
  let cell = Lazy.force macro.Macro.Macro_cell.cell in
  let netlist =
    macro.Macro.Macro_cell.build
      (Process.Variation.nominal Process.Tech.cmos1um)
  in
  let sweep n =
    let r =
      Defect.Simulate.run ~tech:Process.Tech.cmos1um
        ~stats:Process.Defect_stats.default ~cell ~netlist
        (Util.Prng.create 3) ~n
    in
    let classes = Fault.Collapse.collapse r.Defect.Simulate.instances in
    let short_share =
      match
        List.find_opt
          (fun (ft, _, _) -> ft = Fault.Types.Short)
          (Fault.Collapse.by_type classes)
      with
      | Some (_, share, _) -> share
      | None -> 0.0
    in
    Util.Table.add_row t
      [
        string_of_int n;
        string_of_int (List.length classes);
        Util.Table.cell_pct (100. *. short_share);
      ]
  in
  List.iter sweep
    (if quick then [ 5_000; 25_000 ] else [ 25_000; 100_000; 400_000 ]);
  print_table t

(* ------------------------------------------------------------------ *)
(* Scaling study (--scaling)                                            *)
(* ------------------------------------------------------------------ *)

(* Raw-solve sweep: for each size, solve a batch of near-miss-bridge
   variants of the generated ADC cold under both policies, then once
   more under auto with a shared-nominal context installed (one template
   and one skeleton derivation amortized over the whole batch, plans
   derived from the template, warm starts). This is the
   per-class solve pattern of the evaluate stage, isolated from
   sprinkling and classification, so the full-Newton-vs-reuse-vs-shared
   crossover is directly visible per N. A cell times [scaling_passes]
   passes over the batch: its "s_per_solve" is the median pass's
   wall-clock per solve, so one host stall cannot move it, and its
   "newton_iterations" is the first pass's total, which every pass
   repeats. Schema 9 dropped the rank1 column with the backend. Schema
   11 (10 was the since-retired --json mode's) measures dense in every
   row and drops the per-row flag that marked it skipped: the n <= 1200
   cap behind it was set for the retired dense LU, and on the sparse LU
   a dense row costs a fraction of a second even at bits 11. Schema 12
   adds each pipeline cell's factorization count, which tells a live
   reuse path from a dead one without a timing. *)
let scaling_variants = 12
let scaling_passes = 5
let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

let scaling_netlists bits =
  let nominal =
    Adc.Scaled.bench_netlist ~bits
      (Process.Variation.nominal Process.Tech.cmos1um)
  in
  let t = Adc.Scaled.taps bits in
  let variants =
    List.init scaling_variants (fun k ->
        let i = 1 + (k * (t - 3) / scaling_variants) in
        let nl = Circuit.Netlist.copy nominal in
        Circuit.Netlist.add_resistor nl
          ~name:(Printf.sprintf "FLT_Rbridge%d" k)
          (Circuit.Netlist.node nl (Printf.sprintf "tap%d" i))
          (Circuit.Netlist.node nl (Printf.sprintf "tap%d" (i + 1)))
          500.0;
        nl)
  in
  nominal, variants

(* A pass's Newton iterations are the engine's own counter, read from
   an in-memory sink. Each [~shared] pass installs a fresh shared-nominal
   context, so it pays its own template and skeleton derivation. *)
let timed_batch ?(shared = false) solver variants =
  let solve_all () =
    List.iter (fun nl -> ignore (Circuit.Engine.dc_operating_point nl)) variants
  in
  let pass () =
    let run =
      if shared then
        let sn =
          Circuit.Engine.shared_nominal ~strip:Fault.Inject.is_fault_device ()
        in
        fun () -> Circuit.Engine.with_shared_nominal sn solve_all
      else solve_all
    in
    let memory = Util.Telemetry.in_memory () in
    let (), elapsed =
      Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) (fun () ->
          seconds (fun () -> Circuit.Engine.with_solver solver run))
    in
    ( elapsed /. float_of_int (List.length variants),
      Option.value ~default:0
        (List.assoc_opt "newton_iterations"
           (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters) )
  in
  let passes = List.init scaling_passes (fun _ -> pass ()) in
  Util.Json.Obj
    [
      "s_per_solve", Util.Json.Float (median (List.map fst passes));
      "newton_iterations", Util.Json.Int (snd (List.hd passes));
    ]

let scaling_row bits =
  let nominal, variants = scaling_netlists bits in
  let n = Circuit.Netlist.node_count nominal + 2 in
  let dense = timed_batch Circuit.Engine.Dense variants in
  let auto = timed_batch Circuit.Engine.Auto variants in
  let auto_shared = timed_batch ~shared:true Circuit.Engine.Auto variants in
  Format.eprintf "scaling: bits=%d n=%d done@." bits n;
  Util.Json.Obj
    [
      "bits", Util.Json.Int bits;
      "n_unknowns", Util.Json.Int n;
      "dense", dense;
      "auto", auto;
      "auto_shared", auto_shared;
    ]

(* One uncached pipeline run under [solver]: the evaluate-stage
   wall-clock, the summed durations of the two evaluate [pipeline.stage]
   spans, plus the deterministic counters behind the throughput
   numbers. *)
let pipeline_pass config macro solver =
  let memory = Util.Telemetry.in_memory () in
  let lock = Mutex.create () and evaluate_s = ref 0.0 in
  let evaluate = function
    | Util.Telemetry.Span_end { name = "pipeline.stage"; attrs; duration_ns; _ }
      when List.exists
             (fun s -> List.mem ("stage", Util.Telemetry.String s) attrs)
             [ "evaluate-cat"; "evaluate-ncat" ] ->
      Mutex.protect lock (fun () ->
          evaluate_s := !evaluate_s +. (Int64.to_float duration_ns /. 1e9))
    | _ -> ()
  in
  let sink =
    Util.Telemetry.multi
      [ Util.Telemetry.memory_sink memory; { emit = evaluate; flush = ignore } ]
  in
  let cfg = Core.Pipeline.Config.with_solver solver config in
  let analysis =
    Util.Telemetry.with_sink sink (fun () -> Core.Pipeline.analyze cfg macro)
  in
  let m = Util.Telemetry.metrics memory in
  let counter name =
    try List.assoc name m.Util.Telemetry.Metrics.counters with Not_found -> 0
  in
  ( !evaluate_s,
    [
      "total_classes",
      Util.Json.Int analysis.Core.Pipeline.health.Core.Pipeline.classes;
      "solves", Util.Json.Int (counter "engine.solves");
      "factorizations", Util.Json.Int (counter "engine.factorizations");
      "newton_iterations", Util.Json.Int (counter "newton_iterations");
      ( "shared_nominal_hits",
        Util.Json.Int (counter "engine.shared_nominal_hits") );
    ] )

(* A cell's evaluate time is the median of [pipeline_passes] passes, as a
   raw cell's is; its counts are the first pass's, which every pass
   repeats. Dense and auto passes alternate, so a drift in the host's
   speed reaches both cells alike. *)
let pipeline_passes = 3

let pipeline_cell passes =
  let evaluate_s = median (List.map fst passes) in
  ( evaluate_s,
    Util.Json.Obj
      (("evaluate_s", Util.Json.Float evaluate_s) :: snd (List.hd passes)) )

let pipeline_ab config macro =
  ignore (Lazy.force macro.Macro.Macro_cell.cell);
  let passes =
    List.init pipeline_passes (fun _ ->
        let dense = pipeline_pass config macro Circuit.Engine.Dense in
        dense, pipeline_pass config macro Circuit.Engine.Auto)
  in
  let dense_s, dense = pipeline_cell (List.map fst passes) in
  let auto_s, auto = pipeline_cell (List.map snd passes) in
  Util.Json.Obj
    [
      "macro", Util.Json.String macro.Macro.Macro_cell.name;
      "defects", Util.Json.Int config.Core.Pipeline.Config.defects;
      "dense", dense;
      "auto", auto;
      ( "evaluate_speedup_auto_vs_dense",
        if auto_s > 0.0 then Util.Json.Float (dense_s /. auto_s)
        else Util.Json.Null );
    ]

let scaling_run () =
  let bits_list = if quick then [ 5; 7; 9 ] else [ 5; 7; 9; 10; 11 ] in
  let rows = List.map scaling_row bits_list in
  let comparator_config =
    Core.Pipeline.Config.(
      config |> with_defects 5_000 |> with_good_space_dies 16)
  in
  let comparator_ab =
    pipeline_ab comparator_config
      (Adc.Comparator.macro Adc.Comparator.default_options)
  in
  Format.eprintf "scaling: comparator A/B done@.";
  let scaled_config =
    Core.Pipeline.Config.(
      config |> with_defects 4_000 |> with_good_space_dies 8)
  in
  let scaled_ab =
    pipeline_ab scaled_config (Adc.Scaled.macro ~bits:bench_bits ())
  in
  Format.eprintf "scaling: scaled A/B done@.";
  let json =
    Util.Json.Obj
      [
        "schema", Util.Json.String "dotest-bench/12";
        "mode", Util.Json.String "scaling";
        "jobs", Util.Json.Int jobs;
        "quick", Util.Json.Bool quick;
        ( "raw_solves",
          Util.Json.Obj
            [
              "variants_per_row", Util.Json.Int scaling_variants;
              "rows", Util.Json.List rows;
            ] );
        ( "pipelines",
          Util.Json.Obj
            [
              "comparator_quick", comparator_ab;
              "scaled", scaled_ab;
            ] );
      ]
  in
  print_endline (Util.Json.to_string json)

(* ------------------------------------------------------------------ *)

let () =
  if scaling_mode then scaling_run ()
  else begin
    Format.printf
      "dotest benchmark harness — reproduction of Kuijstermans, Thijssen & \
       Sachdev, DATE 1995%s (jobs=%d)@."
      (if quick then " (quick mode)" else "")
      jobs;
    comparator_experiments ();
    global_experiments ();
    quality_experiment ();
    amplifier_experiment ();
    if not no_ablations then begin
      ablation_sigma ();
      ablation_samples ();
      ablation_near_miss ();
      ablation_defect_count ()
    end;
    Format.printf "@.done.@."
  end
