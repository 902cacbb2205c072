let pct = Util.Table.cell_pct

let table1 (a : Pipeline.macro_analysis) =
  let t =
    Util.Table.create
      ~columns:
        [
          "fault type", Util.Table.Left;
          "% faults", Util.Table.Right;
          "% fault classes", Util.Table.Right;
        ]
  in
  List.iter
    (fun (ft, fault_share, class_share) ->
      Util.Table.add_row t
        [
          Fault.Types.fault_type_name ft;
          pct (100. *. fault_share);
          pct (100. *. class_share);
        ])
    (Fault.Collapse.by_type a.Pipeline.classes_catastrophic);
  Util.Table.add_separator t;
  Util.Table.add_row t
    [
      "total";
      Printf.sprintf "%d faults"
        (Fault.Collapse.total_count a.Pipeline.classes_catastrophic);
      Printf.sprintf "%d classes"
        (List.length a.Pipeline.classes_catastrophic);
    ];
  t

let table2 (a : Pipeline.macro_analysis) =
  let t =
    Util.Table.create
      ~columns:
        [
          "fault signature", Util.Table.Left;
          "% cat. faults", Util.Table.Right;
          "% non-cat. faults", Util.Table.Right;
        ]
  in
  let cat = Macro.Evaluate.voltage_table a.Pipeline.outcomes_catastrophic in
  let ncat = Macro.Evaluate.voltage_table a.Pipeline.outcomes_non_catastrophic in
  List.iter
    (fun v ->
      let share table = try List.assoc v table with Not_found -> 0.0 in
      Util.Table.add_row t
        [
          Macro.Signature.voltage_name v;
          pct (100. *. share cat);
          pct (100. *. share ncat);
        ])
    Macro.Signature.all_voltage;
  t

let table3 (a : Pipeline.macro_analysis) =
  let t =
    Util.Table.create
      ~columns:
        [
          "fault signature", Util.Table.Left;
          "% cat. faults", Util.Table.Right;
          "% non-cat. faults", Util.Table.Right;
        ]
  in
  let cat, cat_none =
    Macro.Evaluate.current_table a.Pipeline.outcomes_catastrophic
  in
  let ncat, ncat_none =
    Macro.Evaluate.current_table a.Pipeline.outcomes_non_catastrophic
  in
  List.iter
    (fun kind ->
      let share table = try List.assoc kind table with Not_found -> 0.0 in
      Util.Table.add_row t
        [
          Macro.Signature.current_name kind;
          pct (100. *. share cat);
          pct (100. *. share ncat);
        ])
    Macro.Signature.all_current;
  Util.Table.add_row t
    [ "No deviations"; pct (100. *. cat_none); pct (100. *. ncat_none) ];
  t

let figure3 (a : Pipeline.macro_analysis) =
  let t =
    Util.Table.create
      ~columns:
        [ "detected by", Util.Table.Left; "% of faults", Util.Table.Right ]
  in
  let cells = Testgen.Overlap.partition a.Pipeline.outcomes_catastrophic in
  List.iter
    (fun (c : Testgen.Overlap.cell) ->
      Util.Table.add_row t
        [
          Format.asprintf "%a" Testgen.Detection.pp c.combination;
          pct (100. *. c.share);
        ])
    cells;
  Util.Table.add_separator t;
  List.iter
    (fun (name, share) ->
      Util.Table.add_row t
        [ name ^ " (total)"; pct (100. *. share) ])
    (Testgen.Overlap.mechanism_share cells);
  t

let venn_rows t label (venn : Testgen.Overlap.venn) =
  Util.Table.add_row t
    [
      label;
      pct (100. *. venn.voltage_only);
      pct (100. *. venn.both);
      pct (100. *. venn.current_only);
      pct (100. *. venn.undetected);
      pct (100. *. Testgen.Overlap.coverage venn);
    ]

let figure4 (g : Global.t) =
  let t =
    Util.Table.create
      ~columns:
        [
          "fault set", Util.Table.Left;
          "voltage only", Util.Table.Right;
          "both", Util.Table.Right;
          "current only", Util.Table.Right;
          "undetected", Util.Table.Right;
          "coverage", Util.Table.Right;
        ]
  in
  venn_rows t "catastrophic" (Global.venn g Fault.Types.Catastrophic);
  venn_rows t "non-catastrophic" (Global.venn g Fault.Types.Non_catastrophic);
  t

let macro_current (g : Global.t) =
  let t =
    Util.Table.create
      ~columns:
        [
          "macro", Util.Table.Left;
          "area weight", Util.Table.Right;
          "current detectable", Util.Table.Right;
        ]
  in
  List.iter
    (fun (name, share) ->
      Util.Table.add_row t
        [
          name;
          pct (100. *. Global.weight g name);
          pct (100. *. share);
        ])
    (Global.current_detectability g);
  t

let run_health (h : Pipeline.run_health) =
  let t =
    Util.Table.create
      ~columns:
        [
          "macro", Util.Table.Left;
          "classes", Util.Table.Right;
          "retried", Util.Table.Right;
          "degraded", Util.Table.Right;
          "unresolved", Util.Table.Right;
        ]
  in
  let row name classes retried degraded unresolved =
    Util.Table.add_row t
      [
        name;
        string_of_int classes;
        string_of_int retried;
        string_of_int degraded;
        string_of_int unresolved;
      ]
  in
  List.iter
    (fun (m : Pipeline.macro_health) ->
      row m.macro_name m.classes m.retried m.degraded m.unresolved)
    h.Pipeline.per_macro;
  Util.Table.add_separator t;
  row "total" h.Pipeline.total_classes h.Pipeline.total_retried
    h.Pipeline.total_degraded h.Pipeline.total_unresolved;
  t

let coverage_bounds (g : Global.t) =
  let t =
    Util.Table.create
      ~columns:
        [
          "fault set", Util.Table.Left;
          "pessimistic", Util.Table.Right;
          "coverage", Util.Table.Right;
          "optimistic", Util.Table.Right;
        ]
  in
  let row label severity =
    let pess, opt = Global.coverage_bounds g severity in
    Util.Table.add_row t
      [
        label;
        pct (100. *. pess);
        pct (100. *. Global.coverage g severity);
        pct (100. *. opt);
      ]
  in
  row "catastrophic" Fault.Types.Catastrophic;
  row "non-catastrophic" Fault.Types.Non_catastrophic;
  t

let summary (g : Global.t) =
  let t =
    Util.Table.create
      ~columns:[ "metric", Util.Table.Left; "value", Util.Table.Right ]
  in
  let cat = Global.partition g Fault.Types.Catastrophic in
  Util.Table.add_row t
    [
      "coverage (catastrophic)";
      pct (100. *. Global.coverage g Fault.Types.Catastrophic);
    ];
  Util.Table.add_row t
    [
      "coverage (non-catastrophic)";
      pct (100. *. Global.coverage g Fault.Types.Non_catastrophic);
    ];
  Util.Table.add_row t
    [
      "IDDQ-only share";
      pct (100. *. Testgen.Overlap.only_detected_by cat ~mechanism:"IDDQ");
    ];
  Util.Table.add_row t
    [
      "current-only share";
      pct
        (100.
        *. (Global.venn g Fault.Types.Catastrophic).Testgen.Overlap.current_only);
    ];
  Util.Table.add_row t
    [
      "simple-test time";
      Printf.sprintf "%.0f us" (Testgen.Test_time.total *. 1e6);
    ];
  t

let metrics ?elapsed (m : Util.Telemetry.Metrics.t) =
  let t =
    Util.Table.create
      ~columns:[ "counter", Util.Table.Left; "total", Util.Table.Right ]
  in
  List.iter
    (fun (name, total) -> Util.Table.add_row t [ name; string_of_int total ])
    m.Util.Telemetry.Metrics.counters;
  (* Derived throughput: the iteration ratio is a pure function of the
     counters (deterministic, like them); the per-second rates divide by
     caller-supplied wall-clock time and are marked as such — they vary
     run to run and are excluded from byte-identity comparisons. *)
  let counter name = List.assoc_opt name m.Util.Telemetry.Metrics.counters in
  let classes = Option.value ~default:0 (counter "classes_simulated") in
  let derived =
    (if classes > 0 then
       match counter "newton_iterations" with
       | Some iters ->
         [
           ( "newton_iterations_per_class",
             Util.Table.cell_float ~decimals:1
               (float_of_int iters /. float_of_int classes) );
         ]
       | None -> []
     else [])
    @
    match elapsed with
    | Some seconds when seconds > 0.0 ->
      List.filter_map
        (fun (label, name) ->
          match counter name with
          | Some total when total > 0 ->
            Some
              ( label ^ " (wall)",
                Util.Table.cell_float ~decimals:1
                  (float_of_int total /. seconds) )
          | Some _ | None -> None)
        [ "classes_per_s", "classes_simulated"; "solves_per_s", "engine.solves" ]
    | Some _ | None -> []
  in
  (match derived with
  | [] -> ()
  | rows ->
    Util.Table.add_separator t;
    List.iter (fun (name, value) -> Util.Table.add_row t [ name; value ]) rows);
  (match m.Util.Telemetry.Metrics.gauges with
  | [] -> ()
  | gauges ->
    Util.Table.add_separator t;
    List.iter
      (fun (name, value) ->
        Util.Table.add_row t
          [ name ^ " (max)"; Util.Table.cell_float ~decimals:1 value ])
      gauges);
  t

let cache_state (s : Util.Cache.stats) =
  if s.Util.Cache.hits > 0 then `Warm else `Cold

let cache_stats (s : Util.Cache.stats) =
  let t =
    Util.Table.create
      ~columns:[ "cache", Util.Table.Left; "count", Util.Table.Right ]
  in
  Util.Table.add_row t
    [
      "state";
      (match cache_state s with `Warm -> "warm" | `Cold -> "cold");
    ];
  List.iter
    (fun (name, count) -> Util.Table.add_row t [ name; string_of_int count ])
    [
      "hits", s.Util.Cache.hits;
      "misses", s.Util.Cache.misses;
      "stale", s.Util.Cache.stale;
      "evictions", s.Util.Cache.evictions;
      "write errors", s.Util.Cache.write_errors;
    ];
  t

let run_survival (config : Pipeline.Config.t) =
  let t =
    Util.Table.create
      ~columns:[ "survival", Util.Table.Left; "value", Util.Table.Right ]
  in
  let wall, iterations =
    match config.Pipeline.Config.deadline with
    | None -> "off", "off"
    | Some l ->
      ( (match l.Util.Watchdog.wall_seconds with
        | None -> "off"
        | Some s -> Printf.sprintf "%g s" s),
        (match l.Util.Watchdog.max_iterations with
        | None -> "off"
        | Some n -> Printf.sprintf "%d iterations" n) )
  in
  Util.Table.add_row t [ "deadline (wall-clock)"; wall ];
  Util.Table.add_row t [ "deadline (newton)"; iterations ];
  (match config.Pipeline.Config.checkpoint with
  | None -> Util.Table.add_row t [ "checkpointing"; "off" ]
  | Some registry ->
    let s = Checkpoint.stats registry in
    Util.Table.add_row t
      [
        "checkpointing";
        (if Checkpoint.resume_enabled registry then "on (resume)" else "on");
      ];
    Util.Table.add_row t
      [ "classes restored"; string_of_int s.Checkpoint.restored ];
    Util.Table.add_row t
      [ "classes checkpointed"; string_of_int s.Checkpoint.recorded ]);
  t

(* The deterministic tables of a run, titled and in print order: the CLI
   prints them and the service returns them, so the two agree byte for
   byte. Cache stats, run survival and metrics are not among them. *)
let macro_tables (a : Pipeline.macro_analysis) =
  [
    "Table 1: catastrophic faults and fault classes", table1 a;
    "Table 2: voltage fault signatures", table2 a;
    "Table 3: current fault signatures", table3 a;
    "Fig. 3: detectability of catastrophic faults", figure3 a;
    "Run health", run_health (Pipeline.run_health [ a ]);
  ]

let global_tables ~dft analyses =
  let g = Global.combine analyses in
  [
    ( (if dft then "Fig. 5: global detectability after DfT"
       else "Fig. 4: global detectability"),
      figure4 g );
    "Per-macro current detectability", macro_current g;
    "Summary", summary g;
    "Run health", run_health (Pipeline.run_health analyses);
    "Coverage bounds", coverage_bounds g;
  ]

(* The [`Json] schema is owned by {!Codec}: every JSON emitter of the
   library goes through that one surface. *)
let render ~format table =
  match format with
  | `Text -> Util.Table.render table
  | `Json -> Util.Json.to_string (Codec.table_to_json table)
  | `Csv -> Util.Table.render_csv table
