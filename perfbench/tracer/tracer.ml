(* tracer — the OCaml half of the benchmark.

   Two subcommands, each run in a fresh process by perfbench/run.py, for
   the layer figures the CLI's own --trace does not give:

   - [layout] builds the workload's macros, then synthesizes each cell
     and extracts it once, timing both: the pristine extraction
     [Defect.Simulate.run] starts with.
   - [replay-hit] replays a cached [global] request through the public
     functions the service uses for a hit, timing each part. *)

module J = Util.Json

type options = {
  mutable target : string;
  mutable bits : int;
  mutable defects : int option;
  mutable dies : int option;
  mutable seed : int;
  mutable out : string;
  mutable cache : string;
  mutable repeat : int;
}

(* The target and its options are spelled as on the dotest command line. *)
let usage = "tracer (layout|replay-hit) (global|scaled) [options] --out FILE"

let parse argv =
  let o =
    {
      target = "global";
      bits = 7;
      defects = None;
      dies = None;
      seed = Core.Pipeline.Config.default.seed;
      out = "";
      cache = "";
      repeat = 1;
    }
  in
  let specs =
    [
      "--bits", Arg.Int (fun n -> o.bits <- n), "scaled-core resolution";
      "--defects", Arg.Int (fun n -> o.defects <- Some n), "defects per macro";
      "--dies", Arg.Int (fun n -> o.dies <- Some n), "good-space dies";
      "--seed", Arg.Int (fun n -> o.seed <- n), "Config.seed";
      "--out", Arg.String (fun s -> o.out <- s), "result JSON file";
      "--cache", Arg.String (fun s -> o.cache <- s), "result-cache directory";
      "--repeat", Arg.Int (fun n -> o.repeat <- n), "replays";
    ]
  in
  Arg.parse_argv ~current:(ref 0) argv specs (fun target -> o.target <- target) usage;
  o

let macros_of o =
  match o.target with
  | "global" -> Dft.Measures.macro_set ~measures:[]
  | "scaled" -> [ Adc.Scaled.macro ~bits:o.bits () ]
  | other -> failwith ("unknown target " ^ other)

let write_json path fields =
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj fields));
  output_char oc '\n';
  close_out oc

let now = Unix.gettimeofday

(* --- layout -------------------------------------------------------------- *)

let layout o =
  let cell_json (m : Macro.Macro_cell.t) =
    let t0 = now () in
    let cell = Lazy.force m.Macro.Macro_cell.cell in
    let t1 = now () in
    ignore (Layout.Extract.extract cell);
    let t2 = now () in
    J.Obj
      [
        "macro", J.String m.Macro.Macro_cell.name;
        "synthesize_s", J.Float (t1 -. t0);
        "extract_s", J.Float (t2 -. t1);
        "shapes", J.Int (Array.length (Layout.Cell.shapes cell));
      ]
  in
  write_json o.out [ "cells", J.List (List.map cell_json (macros_of o)) ]

(* --- replay-hit ---------------------------------------------------------- *)

(* A [global] request as [Core.Service] configures it, pointed at the
   daemon's cache directory, on one worker as the daemon runs. *)
let replay_hit o =
  Util.Pool.set_jobs 1;
  let cache = Util.Cache.create ~dir:o.cache ~version:Core.Codec.version () in
  let d = Core.Pipeline.Config.default in
  let config =
    Core.Pipeline.Config.(
      default
      |> with_defects (Option.value o.defects ~default:d.defects)
      |> with_good_space_dies (Option.value o.dies ~default:d.good_space_dies)
      |> with_seed o.seed
      |> with_cache_handle (Some cache)
      |> with_checkpoint (Some (Core.Checkpoint.create ~resume:true ())))
  in
  let render title table =
    { Core.Request.title; body = Core.Report.render ~format:`Text table }
  in
  let replay () =
    let before = Util.Cache.stats cache in
    let t0 = now () in
    let macros = macros_of o in
    List.iter
      (fun (m : Macro.Macro_cell.t) -> ignore (Lazy.force m.Macro.Macro_cell.cell))
      macros;
    let t1 = now () in
    let analyses = Core.Pipeline.analyze_all config macros in
    let t2 = now () in
    (* The reply's tables, titled and ordered as the service renders them;
       the benchmark compares them with the daemon's reply. *)
    let g = Core.Global.combine analyses in
    let tables =
      [
        render "Fig. 4: global detectability" (Core.Report.figure4 g);
        render "Per-macro current detectability" (Core.Report.macro_current g);
        render "Summary" (Core.Report.summary g);
        render "Run health" (Core.Report.run_health (Core.Pipeline.run_health analyses));
        render "Coverage bounds" (Core.Report.coverage_bounds g);
      ]
    in
    let t3 = now () in
    let after = Util.Cache.stats cache in
    let cache_hits = after.Util.Cache.hits - before.Util.Cache.hits in
    let cache_misses = after.Util.Cache.misses - before.Util.Cache.misses in
    let reply =
      Ok
        {
          Core.Request.reply_id = None;
          tables;
          cache_hits;
          cache_misses;
          coalesced = false;
          queue_seconds = 0.;
          evaluate_seconds = t3 -. t0;
        }
    in
    ignore (J.to_string (Core.Codec.response_to_json reply));
    let t4 = now () in
    ( tables,
      J.Obj
        [
          "synthesize_s", J.Float (t1 -. t0);
          "analyze_s", J.Float (t2 -. t0);
          "render_s", J.Float (t3 -. t2);
          "encode_s", J.Float (t4 -. t3);
          "cache_hits", J.Int cache_hits;
          "cache_misses", J.Int cache_misses;
        ] )
  in
  let samples = List.init o.repeat (fun _ -> replay ()) in
  let tables = match samples with (tables, _) :: _ -> tables | [] -> [] in
  write_json o.out
    [
      "samples", J.List (List.map snd samples);
      ( "tables",
        J.List
          (List.map
             (fun { Core.Request.title; body } ->
               J.Obj [ "title", J.String title; "body", J.String body ])
             tables) );
    ]

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then begin
    prerr_endline usage;
    exit 2
  end;
  let o =
    try parse (Array.sub argv 1 (Array.length argv - 1)) with
    | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2
  in
  if o.out = "" then begin
    prerr_endline usage;
    exit 2
  end;
  match argv.(1) with
  | "layout" -> layout o
  | "replay-hit" -> replay_hit o
  | other ->
    prerr_endline ("tracer: unknown command " ^ other);
    exit 2