(** Renderers for the paper's tables and figures.

    Every artefact of the evaluation section has a renderer producing the
    same rows/series the paper reports, as aligned plain text. The
    benchmark harness prints these next to the paper's numbers. *)

(** Table 1: catastrophic faults and fault classes per fault type. *)
val table1 : Pipeline.macro_analysis -> Util.Table.t

(** Table 2: voltage fault signatures (catastrophic and non-catastrophic
    columns). *)
val table2 : Pipeline.macro_analysis -> Util.Table.t

(** Table 3: current fault signatures. *)
val table3 : Pipeline.macro_analysis -> Util.Table.t

(** Fig. 3: detectability overlap of catastrophic faults of one macro —
    one row per mechanism combination with its share. *)
val figure3 : Pipeline.macro_analysis -> Util.Table.t

(** Fig. 4 (or 5, on a DfT-measure run): global detectability Venn for
    both severities. *)
val figure4 : Global.t -> Util.Table.t

(** §3.3 per-macro current detectability. *)
val macro_current : Global.t -> Util.Table.t

(** Headline summary: coverages, only-IDDQ share, test time. *)
val summary : Global.t -> Util.Table.t

(** Run health: per-macro containment counters plus a totals row. Stage
    timings are deliberately excluded, so the rendered table is
    byte-identical across job counts. *)
val run_health : Pipeline.run_health -> Util.Table.t

(** Pessimistic / as-reported / optimistic coverage per severity (see
    {!Global.coverage_bounds}). On a clean run all three columns agree. *)
val coverage_bounds : Global.t -> Util.Table.t

(** Aggregated telemetry: one row per counter total, then derived
    throughput, then the gauge high-water marks. Counter totals — and the
    [newton_iterations_per_class] ratio derived purely from them — are
    deterministic across job counts. With [?elapsed] (an analysis
    wall-clock duration in seconds) the table additionally reports
    [classes_per_s]/[solves_per_s] rates; those rows are explicitly
    marked "(wall)" because they vary run to run and are excluded from
    any byte-identity contract. *)
val metrics : ?elapsed:float -> Util.Telemetry.Metrics.t -> Util.Table.t

(** Result-cache counters of one run: state (cold/warm), hits, misses,
    stale entries, LRU evictions and contained write errors. Unlike the
    coverage artefacts this table is {e not} part of the warm-vs-cold
    byte-identity contract — its whole point is to differ between those
    runs. *)
val cache_stats : Util.Cache.stats -> Util.Table.t

(** Run-survival settings and counters: the configured deadlines, the
    store's mode, and (when the run has a store) how many classes it
    served versus how many were simulated and stored. Like {!cache_stats}, this
    table deliberately differs between a resumed run and a clean one —
    it is excluded from byte-identity comparisons. *)
val run_survival : Pipeline.Config.t -> Util.Table.t

(** The deterministic tables of a single-macro run, titled and in print
    order: Tables 1–3, Fig. 3 and run health. [dotest comparator] /
    [scaled] print them and [dotest serve] returns them, so the two are
    byte-identical. Execution-dependent tables (cache stats, run
    survival, metrics) are not among them. *)
val macro_tables : Pipeline.macro_analysis -> (string * Util.Table.t) list

(** The deterministic tables of a five-macro run, likewise shared by
    [dotest global] and [dotest serve]: Fig. 4 (titled as Fig. 5 with
    [~dft:true]), per-macro current detectability, summary, run health
    and coverage bounds. *)
val global_tables :
  dft:bool -> Pipeline.macro_analysis list -> (string * Util.Table.t) list

(** [render ~format table] is the single rendering entry point behind the
    CLI's [--format {text,json,csv}]: every report artefact above is a
    {!Util.Table.t}, so one call covers coverage, bounds, run-health and
    metrics alike. [`Text] is {!Util.Table.render}, [`Json] an array of
    row objects keyed by column title (the schema is {!Codec.table_to_json},
    the library's single serialization surface), [`Csv] RFC-4180. *)
val render : format:[ `Text | `Json | `Csv ] -> Util.Table.t -> string
