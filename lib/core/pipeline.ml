module Config = struct
  type t = {
    tech : Process.Tech.t;
    defects : int;
    good_space_dies : int;
    sigma : float;
    seed : int;
    max_retries : int;
    strict : bool;
    failure_budget : int option;
    inject_failures : float option;
    cache : Util.Cache.t option;
    deadline : Util.Watchdog.limits option;
    checkpoint : Checkpoint.t option;
    solver : Circuit.Engine.solver;
  }

  let default =
    let r = Request.default in
    {
      tech = Process.Tech.cmos1um;
      defects = r.Request.defects;
      good_space_dies = r.Request.good_space_dies;
      sigma = r.Request.sigma;
      seed = r.Request.seed;
      max_retries = r.Request.max_retries;
      strict = r.Request.strict;
      failure_budget = None;
      inject_failures = r.Request.inject_failures;
      cache = None;
      deadline = r.Request.deadline;
      checkpoint = None;
      solver = r.Request.solver;
    }

  let with_tech tech config = { config with tech }
  let with_defects defects config = { config with defects }
  let with_good_space_dies good_space_dies config = { config with good_space_dies }
  let with_sigma sigma config = { config with sigma }
  let with_seed seed config = { config with seed }
  let with_max_retries max_retries config = { config with max_retries }
  let with_strict strict config = { config with strict }
  let with_failure_budget failure_budget config = { config with failure_budget }
  let with_inject_failures inject_failures config =
    { config with inject_failures }

  let with_cache_handle cache config = { config with cache }
  let with_deadline deadline config = { config with deadline }
  let with_checkpoint checkpoint config = { config with checkpoint }
  let with_solver solver config = { config with solver }
end

open Config

type macro_health = {
  macro_name : string;
  classes : int;
  retried : int;
  degraded : int;
  unresolved : int;
}

type run_health = {
  per_macro : macro_health list;
  total_classes : int;
  total_retried : int;
  total_degraded : int;
  total_unresolved : int;
}

type macro_analysis = {
  macro : Macro.Macro_cell.t;
  sprinkled : int;
  effective : int;
  good : Macro.Good_space.t;
  classes_catastrophic : Fault.Collapse.fault_class list;
  classes_non_catastrophic : Fault.Collapse.fault_class list;
  outcomes_catastrophic : Macro.Evaluate.outcome list;
  outcomes_non_catastrophic : Macro.Evaluate.outcome list;
  health : macro_health;
}

let src = Logs.Src.create "dotest.core" ~doc:"methodology pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* Health counters are derived from the merged, input-ordered outcome
   lists, never from worker-local state — that is what makes them
   byte-identical across job counts. *)
let count_outcomes outcomes (retried, degraded, unresolved) =
  List.fold_left
    (fun (r, d, u) (o : Macro.Evaluate.outcome) ->
      match o.Macro.Evaluate.status with
      | Macro.Evaluate.Converged -> r, d, u
      | Macro.Evaluate.Recovered _ -> r + 1, d + 1, u
      | Macro.Evaluate.Unresolved { attempts; _ } ->
        (if attempts > 1 then r + 1 else r), d, u + 1)
    (retried, degraded, unresolved)
    outcomes

let health_of ~macro_name ~outcomes =
  let retried, degraded, unresolved =
    List.fold_left (fun acc o -> count_outcomes o acc) (0, 0, 0) outcomes
  in
  {
    macro_name;
    classes = List.fold_left (fun acc o -> acc + List.length o) 0 outcomes;
    retried;
    degraded;
    unresolved;
  }

let run_health analyses =
  let per_macro = List.map (fun a -> a.health) analyses in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 per_macro in
  {
    per_macro;
    total_classes = sum (fun h -> h.classes);
    total_retried = sum (fun h -> h.retried);
    total_degraded = sum (fun h -> h.degraded);
    total_unresolved = sum (fun h -> h.unresolved);
  }

exception Budget_exhausted of { failures : int; limit : int }

let () =
  Printexc.register_printer (function
    | Budget_exhausted { failures; limit } ->
      Some
        (Printf.sprintf
           "Pipeline.Budget_exhausted: %d failures exceed the per-run budget \
            of %d"
           failures limit)
    | _ -> None)

let check_budget config ~unresolved =
  match config.failure_budget with
  | Some limit when unresolved > limit ->
    raise (Budget_exhausted { failures = unresolved; limit })
  | Some _ | None -> ()

let injection_of config =
  Option.map
    (fun fraction -> { Macro.Evaluate.seed = config.seed; fraction })
    config.inject_failures

(* Content address of one macro's analysis: everything the result is a
   function of. The macro's measure/classify closures are the one input a
   fingerprint cannot observe; changing their semantics requires bumping
   [Codec.version] (which both keys and envelope-stamps every entry). *)
let cache_key config (macro : Macro.Macro_cell.t) ~nominal_netlist ~cell =
  Util.Cache.fingerprint
    [
      "codec=" ^ Codec.version;
      "macro=" ^ macro.Macro.Macro_cell.name;
      "netlist=" ^ Codec.netlist_fingerprint nominal_netlist;
      "cell=" ^ Codec.cell_fingerprint cell;
      "tech=" ^ Codec.tech_fingerprint config.tech;
      "stats=" ^ Codec.stats_fingerprint Process.Defect_stats.default;
      Printf.sprintf "defects=%d" config.defects;
      (* The chunk size re-partitions draws over split PRNG streams, so
         it selects the defect sample. *)
      Printf.sprintf "sprinkle_chunk=%d" Defect.Simulate.chunk_size;
      Printf.sprintf "good_space_dies=%d" config.good_space_dies;
      Printf.sprintf "sigma=%h" config.sigma;
      Printf.sprintf "seed=%d" config.seed;
      Printf.sprintf "max_retries=%d" config.max_retries;
      Printf.sprintf "strict=%b" config.strict;
      (* Both solver policies are required to produce identical tables;
         the choice is still part of the content address so a policy
         regression can never poison a warm cache and a bisection against
         [dense] always re-simulates. *)
      "solver=" ^ Circuit.Engine.solver_name config.solver;
      Request.inject_part config.inject_failures;
      (* A deadline changes which classes end unresolved, so it is part
         of the content address. (Wall-clock caps are machine-dependent
         on top of that — see the .mli caveat.) *)
      Request.deadline_part config.deadline;
    ]

(* A class's store key, in two parts. Its faulty vector is a function of
   the macro's nominal netlist, built at [config.tech], and of its fault
   alone ([Fault.Inject.inject_instance] reads nothing else), under the
   solver, the retry bound, the deadline and, when failures are
   injected, the seed and the class's index in its batch. The defect
   sample, good space and sigma only decide which classes a run meets
   and how it reads them. [store_macro_key] is the part a macro's classes
   share; the store bounds its memory per macro by it. *)
let store_macro_key config (macro : Macro.Macro_cell.t) ~nominal_netlist =
  Util.Cache.fingerprint
    [
      "codec=" ^ Codec.version;
      "macro=" ^ macro.Macro.Macro_cell.name;
      "netlist=" ^ Codec.netlist_fingerprint nominal_netlist;
      "tech=" ^ Codec.tech_fingerprint config.tech;
    ]

let class_key config ~macro ~index (fc : Fault.Collapse.fault_class) =
  let injected =
    match config.inject_failures with
    | None -> []
    | Some _ ->
      [ Printf.sprintf "seed=%d" config.seed; Printf.sprintf "index=%d" index ]
  in
  let fault = fc.representative.Fault.Types.fault in
  (* The suffix tells a class entry from a result entry on disk. *)
  Util.Cache.fingerprint
    ([
       macro;
       "fault=" ^ Util.Json.to_string (Codec.fault.enc fault);
       "solver=" ^ Circuit.Engine.solver_name config.solver;
       Printf.sprintf "max_retries=%d" config.max_retries;
       Request.inject_part config.inject_failures;
       Request.deadline_part config.deadline;
     ]
    @ injected)
  ^ "-class"

let cached_analysis config (macro : Macro.Macro_cell.t) ~key =
  match config.cache with
  | None -> None
  | Some cache ->
    Option.bind (Util.Cache.find cache ~key) @@ fun payload ->
    (match Codec.analysis_of_json payload with
    | Ok (a : Codec.analysis) ->
      let health =
        health_of ~macro_name:macro.Macro.Macro_cell.name
          ~outcomes:[ a.outcomes_catastrophic; a.outcomes_non_catastrophic ]
      in
      Some
        {
          macro;
          sprinkled = a.Codec.sprinkled;
          effective = a.Codec.effective;
          good = a.Codec.good;
          classes_catastrophic = a.Codec.classes_catastrophic;
          classes_non_catastrophic = a.Codec.classes_non_catastrophic;
          outcomes_catastrophic = a.Codec.outcomes_catastrophic;
          outcomes_non_catastrophic = a.Codec.outcomes_non_catastrophic;
          health;
        }
    | Error e ->
      (* The version stamp should make this unreachable; treat it as a
         miss all the same — a cache must never fail a run. *)
      Log.warn (fun m ->
          m "[%s] undecodable cache entry (%s): re-simulating"
            macro.Macro.Macro_cell.name e);
      None)

let store_analysis config analysis ~key =
  Option.iter
    (fun cache ->
      Util.Cache.store cache ~key
        (Codec.analysis_to_json
           {
             Codec.sprinkled = analysis.sprinkled;
             effective = analysis.effective;
             good = analysis.good;
             classes_catastrophic = analysis.classes_catastrophic;
             classes_non_catastrophic = analysis.classes_non_catastrophic;
             outcomes_catastrophic = analysis.outcomes_catastrophic;
             outcomes_non_catastrophic = analysis.outcomes_non_catastrophic;
           }))
    config.cache

let analyze config (macro : Macro.Macro_cell.t) =
  (* The one place the config's solver is installed, around every stage
     that simulates: good space, golden and both evaluate stages. Under
     [analyze_all] this runs inside the pool worker that simulates. *)
  Circuit.Engine.with_solver config.solver @@ fun () ->
  Util.Telemetry.with_span
    ~attrs:[ "macro", Util.Telemetry.String macro.Macro.Macro_cell.name ]
    "pipeline.macro"
  @@ fun () ->
  (* Stage wall-clock varies run to run, so it is logged, never kept. *)
  let timed stage f =
    Util.Telemetry.with_span
      ~attrs:[ "stage", Util.Telemetry.String stage ]
      "pipeline.stage"
    @@ fun () ->
    let t0 = Util.Watchdog.now_seconds () in
    let result = f () in
    Log.info (fun m ->
        m "[%s] stage %-13s %.3f s" macro.Macro.Macro_cell.name stage
          (Util.Watchdog.now_seconds () -. t0));
    result
  in
  let prng = Util.Prng.create config.seed in
  let defect_prng = Util.Prng.split prng in
  let good_prng = Util.Prng.split prng in
  let cell = Lazy.force macro.Macro.Macro_cell.cell in
  let nominal_netlist =
    macro.Macro.Macro_cell.build (Process.Variation.nominal config.tech)
  in
  (* Fingerprinting is cheap next to simulation, but not free: skip it
     entirely when no cache is configured. *)
  let key =
    match config.cache with
    | None -> None
    | Some _ -> Some (cache_key config macro ~nominal_netlist ~cell)
  in
  let finish ~from_cache analysis =
    (if analysis.health.unresolved > 0 then
       Log.info (fun m ->
           m "[%s] degraded run: %d retried, %d recovered, %d unresolved"
             macro.Macro.Macro_cell.name analysis.health.retried
             analysis.health.degraded analysis.health.unresolved));
    check_budget config ~unresolved:analysis.health.unresolved;
    Util.Telemetry.count "macros_analyzed";
    Util.Telemetry.add_span_attrs
      [
        "classes", Util.Telemetry.Int analysis.health.classes;
        "unresolved", Util.Telemetry.Int analysis.health.unresolved;
        "cache", Util.Telemetry.String (if from_cache then "hit" else "miss");
      ];
    analysis
  in
  match
    Option.bind key (fun key -> cached_analysis config macro ~key)
  with
  | Some analysis ->
    Log.info (fun m ->
        m "[%s] cache hit: skipping simulation" macro.Macro.Macro_cell.name);
    finish ~from_cache:true analysis
  | None ->
  Log.info (fun m -> m "[%s] sprinkling %d defects" macro.Macro.Macro_cell.name config.defects);
  let defect_result =
    timed "sprinkle" (fun () ->
        Defect.Simulate.run ~tech:config.tech
          ~stats:Process.Defect_stats.default ~cell ~netlist:nominal_netlist
          defect_prng ~n:config.defects)
  in
  let classes_catastrophic, classes_non_catastrophic =
    timed "collapse" (fun () ->
        let cat =
          Fault.Collapse.collapse defect_result.Defect.Simulate.instances
        in
        cat, Fault.Collapse.derive_non_catastrophic ~tech:config.tech cat)
  in
  Log.info (fun m ->
      m "[%s] %d effective defects, %d + %d fault classes"
        macro.Macro.Macro_cell.name defect_result.Defect.Simulate.effective
        (List.length classes_catastrophic)
        (List.length classes_non_catastrophic));
  let good =
    timed "good-space" (fun () ->
        Macro.Good_space.compile ~n:config.good_space_dies ~k:config.sigma
          ~tech:config.tech macro good_prng)
  in
  let inject = injection_of config in
  (* The store is opened past the cache lookup: a hit never reaches it. *)
  let store =
    Option.map
      (fun store -> store, store_macro_key config macro ~nominal_netlist)
      config.checkpoint
  in
  (* Both evaluate stages classify against one golden vector, measured
     on the same nominal netlist as the good space and the faulty
     circuits, under the run's solver. It is measured on first use, so
     its cost falls inside the first evaluate stage. *)
  let golden =
    lazy
      (let measure () = Macro.Evaluate.golden ~macro nominal_netlist in
       match store with
       | None -> measure ()
       | Some (store, macro) -> Checkpoint.golden store ~macro measure)
  in
  let evaluate classes =
    let run store =
      Macro.Evaluate.run ~retries:config.max_retries ?inject
        ?deadline:config.deadline ?store ~strict:config.strict ~macro
        ~nominal:nominal_netlist ~golden:(Lazy.force golden) ~good classes
    in
    match store with
    | None -> run None
    | Some (store, macro) ->
      Checkpoint.evaluate store ~cache:config.cache ~macro
        ~key:(class_key config ~macro) (fun hook -> run (Some hook))
  in
  let outcomes_catastrophic =
    timed "evaluate-cat" (fun () -> evaluate classes_catastrophic)
  in
  let outcomes_non_catastrophic =
    timed "evaluate-ncat" (fun () -> evaluate classes_non_catastrophic)
  in
  let health =
    health_of ~macro_name:macro.Macro.Macro_cell.name
      ~outcomes:[ outcomes_catastrophic; outcomes_non_catastrophic ]
  in
  let analysis =
    {
      macro;
      sprinkled = defect_result.Defect.Simulate.sprinkled;
      effective = defect_result.Defect.Simulate.effective;
      good;
      classes_catastrophic;
      classes_non_catastrophic;
      outcomes_catastrophic;
      outcomes_non_catastrophic;
      health;
    }
  in
  Option.iter (fun key -> store_analysis config analysis ~key) key;
  finish ~from_cache:false analysis

let analyze_all config macros =
  Util.Telemetry.with_span
    ~attrs:[ "macros", Util.Telemetry.Int (List.length macros) ]
    "pipeline.run"
  @@ fun () ->
  (* Force every layout before the fan-out: lazies must not be forced
     concurrently, and the same macro value may appear more than once. *)
  List.iter
    (fun (m : Macro.Macro_cell.t) -> ignore (Lazy.force m.Macro.Macro_cell.cell))
    macros;
  (* The per-macro stages degrade to sequential inside pool workers, so
     this spawns at most [Util.Pool.jobs ()] domains in total. *)
  let analyses = Util.Pool.parallel_map (analyze config) macros in
  (* The per-run failure budget spans all macros; the check runs on the
     merged results so it is independent of the job count. *)
  check_budget config
    ~unresolved:
      (List.fold_left (fun acc a -> acc + a.health.unresolved) 0 analyses);
  analyses

let outcomes analysis = function
  | Fault.Types.Catastrophic -> analysis.outcomes_catastrophic
  | Fault.Types.Non_catastrophic -> analysis.outcomes_non_catastrophic

let fault_count analysis severity =
  List.fold_left
    (fun acc (o : Macro.Evaluate.outcome) ->
      acc + o.fault_class.Fault.Collapse.count)
    0
    (outcomes analysis severity)
