(* The service layer: Request/Response wire codecs (round-trip +
   adversarial decode), coalescing and admission control, contained
   failures as error codes, and the serve-vs-direct byte-identity
   contract over a real Unix socket. *)

open Core

(* ------------------------------------------------------------------ *)
(* QCheck round-trips for the wire codecs                              *)
(* ------------------------------------------------------------------ *)

let gen_request =
  let open QCheck.Gen in
  let limits =
    map2
      (fun wall_seconds max_iterations ->
        { Util.Watchdog.wall_seconds; max_iterations })
      (option (float_range 0.001 3600.0))
      (option (int_range 1 1_000_000))
  in
  let target =
    map2
      (fun comparator dft ->
        if comparator then Request.Comparator { dft }
        else Request.Global { dft })
      bool bool
  in
  let id = option (map (Printf.sprintf "req-%d") (int_range 0 100000)) in
  map
    (fun ( (id, target, defects, dies, sigma),
           (seed, retries, strict, inject, deadline),
           (solver, format) ) ->
      {
        Request.id;
        target;
        defects;
        good_space_dies = dies;
        sigma;
        seed;
        max_retries = retries;
        strict;
        inject_failures = inject;
        deadline;
        solver;
        format;
      })
    (triple
       (tup5 id target (int_range 0 1_000_000) (int_range 1 10_000)
          (float_range 0.1 10.0))
       (tup5 (int_range 0 1_000_000) (int_range 0 9) bool
          (option (float_range 0.0 1.0))
          (option limits))
       (pair (oneofl Circuit.Engine.all_solvers) (oneofl Request.all_formats)))

let arbitrary_request = QCheck.make gen_request

let gen_reply =
  let open QCheck.Gen in
  let table =
    map2
      (fun title body -> { Request.title; body })
      (oneofl [ "Summary"; "Run health"; "Fig. 4: global detectability" ])
      (map (String.concat "\n") (small_list string_printable))
  in
  map
    (fun ((id, tables, hits, misses), (coalesced, queue_s, evaluate_s)) ->
      {
        Request.reply_id = id;
        tables;
        cache_hits = hits;
        cache_misses = misses;
        coalesced;
        queue_seconds = queue_s;
        evaluate_seconds = evaluate_s;
      })
    (pair
       (tup4
          (option (map (Printf.sprintf "r%d") (int_range 0 10000)))
          (list_size (int_range 0 5) table)
          (int_range 0 100) (int_range 0 100))
       (triple bool (float_range 0.0 100.0) (float_range 0.0 100.0)))

let gen_response =
  let open QCheck.Gen in
  let error =
    map
      (fun (id, code, message, retry) ->
        Error
          {
            Request.error_id = id;
            code;
            message;
            retry_after =
              (if code = Request.Overloaded then retry else None);
          })
      (tup4
         (option (map (Printf.sprintf "e%d") (int_range 0 10000)))
         (oneofl Request.all_error_codes)
         string_printable
         (option (float_range 0.0 60.0)))
  in
  oneof [ map Result.ok gen_reply; error ]

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"request json round-trip" ~count:300 arbitrary_request
      (fun r ->
        match Codec.request_of_json (Codec.request_to_json r) with
        | Ok r' -> r' = r
        | Error e -> Test.fail_reportf "decode failed: %s" e);
    Test.make ~name:"request fingerprint ignores id" ~count:100
      arbitrary_request (fun r ->
        Request.fingerprint r
        = Request.fingerprint (Request.with_id (Some "other") r));
    Test.make ~name:"response json round-trip" ~count:300
      (QCheck.make gen_response) (fun resp ->
        match Codec.response_of_json (Codec.response_to_json resp) with
        | Ok resp' -> resp' = resp
        | Error e -> Test.fail_reportf "decode failed: %s" e);
    (* Decoder totality under truncation: every strict prefix of a valid
       request line must yield a structured error, never an exception. *)
    Test.make ~name:"truncated request decodes to Error" ~count:60
      arbitrary_request (fun r ->
        let line = Util.Json.to_string (Codec.request_to_json r) in
        let n = String.length line in
        let step = max 1 (n / 37) in
        let rec check i =
          if i >= n then true
          else
            match
              Result.bind
                (Util.Json.of_string (String.sub line 0 i))
                Codec.request_of_json
            with
            | Ok _ -> Test.fail_reportf "prefix %d of %d decoded as Ok" i n
            | Error _ -> check (i + step)
        in
        check 1);
  ]

(* ------------------------------------------------------------------ *)
(* handle_line: hostile input becomes structured error responses       *)
(* ------------------------------------------------------------------ *)

let decode_response line =
  match Result.bind (Util.Json.of_string line) Codec.response_of_json with
  | Ok r -> r
  | Error e -> Alcotest.fail ("response line does not decode: " ^ e)

let error_code = function
  | Ok _ -> Alcotest.fail "expected an error response"
  | Error e -> e.Request.code

let test_handle_line_errors () =
  let service = Service.create ~max_pending:2 () in
  let code line = error_code (decode_response (Service.handle_line service line)) in
  Alcotest.(check string) "garbage" "bad_request"
    (Request.error_code_name (code "not json at all"));
  Alcotest.(check string) "trailing garbage" "bad_request"
    (Request.error_code_name (code "{} {}"));
  Alcotest.(check string) "wrong api" "unsupported_version"
    (Request.error_code_name
       (code "{\"api\":\"dotest-api/999\",\"target\":\"global\"}"));
  Alcotest.(check string) "missing api" "bad_request"
    (Request.error_code_name (code "{\"target\":\"global\"}"));
  Alcotest.(check string) "unknown target" "bad_request"
    (Request.error_code_name
       (code "{\"api\":\"dotest-api/1\",\"target\":\"adder\"}"));
  Alcotest.(check string) "negative defects" "bad_request"
    (Request.error_code_name
       (code "{\"api\":\"dotest-api/1\",\"target\":\"global\",\"defects\":-1}"));
  Alcotest.(check string) "unknown solver" "bad_request"
    (Request.error_code_name
       (code
          "{\"api\":\"dotest-api/1\",\"target\":\"global\",\"solver\":\"cholesky\"}"));
  (* The json bomb from the depth-limit satellite, arriving as a wire
     line: still just a bad_request. *)
  Alcotest.(check string) "nesting bomb" "bad_request"
    (Request.error_code_name (code (String.make 50_000 '[')));
  (* The id is echoed even when the body is malformed. *)
  match
    decode_response
      (Service.handle_line service
         "{\"api\":\"dotest-api/1\",\"target\":\"nope\",\"id\":\"corr-7\"}")
  with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
    Alcotest.(check (option string)) "id echoed" (Some "corr-7")
      e.Request.error_id

(* ------------------------------------------------------------------ *)
(* The service end to end                                              *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let small_request =
  Request.(
    default
    |> with_target (Comparator { dft = false })
    |> with_defects 400 |> with_good_space_dies 6)

(* What the CLI prints for the request's target and parameters, in print
   order, from macros of its own — the reference for the byte-identity
   contract. *)
let expected_tables (r : Request.t) =
  let config =
    Pipeline.Config.(
      default |> with_defects r.Request.defects
      |> with_good_space_dies r.Request.good_space_dies
      |> with_sigma r.Request.sigma |> with_seed r.Request.seed
      |> with_solver r.Request.solver)
  in
  let render title table =
    { Request.title; body = Report.render ~format:r.Request.format table }
  in
  match r.Request.target with
  | Request.Comparator { dft } ->
    let analysis =
      Pipeline.analyze config
        (Adc.Comparator.macro
           (if dft then Adc.Comparator.dft_options
            else Adc.Comparator.default_options))
    in
    [
      render "Table 1: catastrophic faults and fault classes"
        (Report.table1 analysis);
      render "Table 2: voltage fault signatures" (Report.table2 analysis);
      render "Table 3: current fault signatures" (Report.table3 analysis);
      render "Fig. 3: detectability of catastrophic faults"
        (Report.figure3 analysis);
      render "Run health" (Report.run_health (Pipeline.run_health [ analysis ]));
    ]
  | Request.Global { dft } ->
    let analyses =
      Pipeline.analyze_all config
        (Dft.Measures.macro_set
           ~measures:(if dft then Dft.Measures.all_measures else []))
    in
    let g = Global.combine analyses in
    [
      render
        (if dft then "Fig. 5: global detectability after DfT"
         else "Fig. 4: global detectability")
        (Report.figure4 g);
      render "Per-macro current detectability" (Report.macro_current g);
      render "Summary" (Report.summary g);
      render "Run health" (Report.run_health (Pipeline.run_health analyses));
      render "Coverage bounds" (Report.coverage_bounds g);
    ]

let check_tables what expected (reply : Request.reply) =
  Alcotest.(check int)
    (what ^ ": table count")
    (List.length expected)
    (List.length reply.Request.tables);
  List.iter2
    (fun (e : Request.table) (got : Request.table) ->
      Alcotest.(check string) (what ^ ": title") e.Request.title got.Request.title;
      Alcotest.(check string)
        (what ^ ": " ^ e.Request.title)
        e.Request.body got.Request.body)
    expected reply.Request.tables

let test_serve_concurrent_clients () =
  let dir = temp_dir "dotest-serve-test" in
  let cache =
    Util.Cache.create
      ~dir:(Filename.concat dir "cache")
      ~version:Codec.version ()
  in
  let service = Service.create ~cache ~max_pending:32 () in
  let address = Service.Unix_socket (Filename.concat dir "test.sock") in
  let listening = ref false in
  let lock = Mutex.create () and cond = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Service.serve
          ~on_ready:(fun _ ->
            Mutex.lock lock;
            listening := true;
            Condition.broadcast cond;
            Mutex.unlock lock)
          service address)
      ()
  in
  Mutex.lock lock;
  while not !listening do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let expected = expected_tables small_request in
  let expected_alt =
    expected_tables (Request.with_seed 1996 small_request)
  in
  (* 8 concurrent clients over the real socket: evens ask for the same
     analysis (one flight, coalesced), odds share a second key. *)
  let results = Array.make 8 None in
  let clients =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            let r =
              if i mod 2 = 0 then small_request
              else Request.with_seed 1996 small_request
            in
            let r = Request.with_id (Some (Printf.sprintf "client-%d" i)) r in
            results.(i) <- Some (Service.call address r))
          ())
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun i result ->
      match result with
      | None -> Alcotest.fail "client thread did not record a result"
      | Some (Error e) ->
        Alcotest.failf "client %d failed: %s" i e.Request.message
      | Some (Ok reply) ->
        Alcotest.(check (option string))
          "id echoed"
          (Some (Printf.sprintf "client-%d" i))
          reply.Request.reply_id;
        check_tables
          (Printf.sprintf "client %d" i)
          (if i mod 2 = 0 then expected else expected_alt)
          reply)
    results;
  let s = Service.stats service in
  Alcotest.(check int) "submitted" 8 s.Service.submitted;
  Alcotest.(check bool) "duplicates coalesced" true (s.Service.coalesced >= 1);
  Alcotest.(check int) "nothing shed" 0 s.Service.shed;
  Alcotest.(check int) "no failures" 0 s.Service.failed;
  (* Warm repeat over the same socket: pure cache hits, same bytes. *)
  (match Service.call address small_request with
  | Error e -> Alcotest.fail e.Request.message
  | Ok reply ->
    check_tables "warm" expected reply;
    Alcotest.(check bool) "warm run hits the cache" true
      (reply.Request.cache_hits >= 1));
  (* Graceful drain: serve returns, the server thread joins, and new
     submissions are refused with shutting_down. *)
  Service.initiate_shutdown service;
  Thread.join server;
  Alcotest.(check string) "draining refuses" "shutting_down"
    (Request.error_code_name (error_code (Service.submit service small_request)))

let test_contained_failures_map_to_codes () =
  (* The two contained failure modes the pipeline raises reach the
     client as their own codes, not as internal_error. *)
  let service = Service.create ~failure_budget:0 () in
  let code r = Request.error_code_name (error_code (Service.submit service r)) in
  Alcotest.(check string) "over budget" "budget_exhausted"
    (code
       Request.(
         default |> with_defects 2000 |> with_good_space_dies 8
         |> with_inject_failures (Some 0.2)));
  Alcotest.(check string) "strict" "simulation_failed"
    (code
       Request.(
         default
         |> with_target (Comparator { dft = false })
         |> with_defects 1000 |> with_good_space_dies 4 |> with_strict true
         |> with_inject_failures (Some 0.5)))

let test_submit_coalesces_and_sheds () =
  (* max_pending=1: while one cold flight runs, an identical request
     attaches to it, and a different one is shed with retry_after. *)
  let service = Service.create ~max_pending:1 () in
  let slow =
    Request.(
      small_request |> with_defects 2_000 |> with_good_space_dies 8
      |> with_seed 77)
  in
  let leader = ref None and twin = ref None in
  let t_leader =
    Thread.create (fun () -> leader := Some (Service.submit service slow)) ()
  in
  (* Admit the leader before racing the twin and the shed probe. *)
  let rec wait_admitted n =
    if n = 0 then Alcotest.fail "leader never admitted";
    if (Service.stats service).Service.submitted < 1 then begin
      Thread.delay 0.01;
      wait_admitted (n - 1)
    end
  in
  wait_admitted 500;
  Thread.delay 0.05;
  let t_twin =
    Thread.create (fun () -> twin := Some (Service.submit service slow)) ()
  in
  Thread.delay 0.05;
  let probe = Service.submit service (Request.with_seed 78 slow) in
  (match probe with
  | Ok _ -> Alcotest.fail "distinct request should have been shed"
  | Error e ->
    Alcotest.(check string) "shed code" "overloaded"
      (Request.error_code_name e.Request.code);
    Alcotest.(check bool) "retry hint" true (e.Request.retry_after <> None));
  Thread.join t_leader;
  Thread.join t_twin;
  match !leader, !twin with
  | Some (Ok lead), Some (Ok tw) ->
    Alcotest.(check bool) "leader not coalesced" false lead.Request.coalesced;
    Alcotest.(check bool) "twin coalesced" true tw.Request.coalesced;
    List.iter2
      (fun (a : Request.table) (b : Request.table) ->
        Alcotest.(check string) "same bytes" a.Request.body b.Request.body)
      lead.Request.tables tw.Request.tables;
    let s = Service.stats service in
    Alcotest.(check int) "one shed" 1 s.Service.shed;
    Alcotest.(check int) "one coalesced" 1 s.Service.coalesced;
    Alcotest.(check int) "one completed" 1 s.Service.completed
  | _ -> Alcotest.fail "leader or twin did not complete"

(* Cache entries a run of [small_request]'s parameters leaves for the
   four targets, recorded before the service kept its macros: the full
   cache keys of the five paper macros and the DfT comparator. *)
let small_request_keys =
  [
    "010d4fe066545e542b2202f598dcd320.json";
    "274a21c498bd920fbb920fc249e9f18c.json";
    "7b0b005a0b20c9e8c105ed2ff97c55e5.json";
    "afa9e2cd9dedf257d750189291bb7398.json";
    "b53fd2491cef50922a9ef60b195f7d41.json";
    "ca23c037b0494239ddc04706fef7af57.json";
  ]

let test_service_keeps_targets_apart () =
  (* One service keeps a macro set per target; a later request for one
     variant must never be answered from another's. *)
  let dir = temp_dir "dotest-serve-targets" in
  let cache_dir = Filename.concat dir "cache" in
  let cache = Util.Cache.create ~dir:cache_dir ~version:Codec.version () in
  let service = Service.create ~cache () in
  (* A cold macro misses once: reading its class entries beside the
     result lookup counts nothing. *)
  let steps =
    Request.
      [
        "global", Global { dft = false }, (0, 5);
        (* Only the DfT comparator differs from the plain set. *)
        "global --dft", Global { dft = true }, (4, 1);
        "comparator", Comparator { dft = false }, (1, 0);
        "comparator --dft", Comparator { dft = true }, (1, 0);
        "global again", Global { dft = false }, (5, 0);
      ]
  in
  List.iter
    (fun (what, target, hits_misses) ->
      let r = Request.with_target target small_request in
      match Service.submit service r with
      | Error e -> Alcotest.failf "%s failed: %s" what e.Request.message
      | Ok reply ->
        check_tables what (expected_tables r) reply;
        Alcotest.(check (pair int int))
          (what ^ ": cache hits, misses")
          hits_misses
          (reply.Request.cache_hits, reply.Request.cache_misses))
    steps;
  Alcotest.(check (list string))
    "cache keys unchanged" small_request_keys
    (Sys.readdir cache_dir |> Array.to_list
    |> List.filter (fun name -> not (Filename.check_suffix name "-class.json"))
    |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* The class store                                                     *)
(* ------------------------------------------------------------------ *)

let memo_request =
  Request.(default |> with_defects 500 |> with_good_space_dies 6 |> with_seed 11)

(* A service whose telemetry is kept in memory, and a submit that
   returns a reply with the counters its request added. *)
let observed_service ?cache () =
  let memory = Util.Telemetry.in_memory () in
  let service =
    Service.create ?cache ~telemetry:(Util.Telemetry.memory_sink memory) ()
  in
  let counters () =
    (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters
  in
  let submit r =
    let before = counters () in
    match Service.submit service r with
    | Error e -> Alcotest.fail e.Request.message
    | Ok reply ->
      let after = counters () in
      let delta name =
        let get cs = Option.value ~default:0 (List.assoc_opt name cs) in
        get after - get before
      in
      reply, delta
  in
  submit

let fresh_reply r = fst (observed_service () r)

let test_memo_reuses_across_seeds () =
  (* A later seed meets many of an earlier seed's fault classes; the
     service serves those from its store and replies with the bytes a
     fresh service would, having done less Newton work. *)
  let submit = observed_service () in
  let b = Request.with_seed 12 memo_request in
  let _ = submit memo_request in
  let reply, delta = submit b in
  let fresh, fresh_delta = observed_service () b in
  check_tables "seed B after seed A" fresh.Request.tables reply;
  check_tables "seed B against the CLI" (expected_tables b) reply;
  Alcotest.(check bool) "classes reused" true (delta "classes_reused" > 0);
  Alcotest.(check int) "fresh service reuses nothing" 0
    (fresh_delta "classes_reused");
  Alcotest.(check int) "every class served"
    (fresh_delta "classes_simulated")
    (delta "classes_simulated" + delta "classes_reused");
  Alcotest.(check bool) "fewer Newton iterations" true
    (delta "newton_iterations" < fresh_delta "newton_iterations")

let test_memo_keyed_apart () =
  (* Solver, retry bound and DfT variant each select different results
     (or different macros), so none may reuse another's classes. Dense
     and auto print the same tables, so only the counter can tell. *)
  let submit = observed_service () in
  let _ = submit memo_request in
  List.iter
    (fun (what, r) ->
      let reply, delta = submit r in
      check_tables what (expected_tables r) reply;
      Alcotest.(check int) (what ^ ": classes reused") 0
        (delta "classes_reused"))
    Request.
      [
        "dense", with_solver Circuit.Engine.Dense memo_request;
        "max_retries 2", with_max_retries 2 memo_request;
        "dft", with_target (Global { dft = true }) memo_request;
      ];
  let _, again = submit memo_request in
  Alcotest.(check int) "the plain request is served whole"
    (again "classes_reused")
    (again "classes_reused" + again "classes_simulated")

let test_store_keys_contained_runs_apart () =
  (* Injection and deadlines are kept apart by their class keys: such a
     request reuses no plain request's class (the replies equal a fresh
     service's, health included), and a later plain request reuses none
     of theirs (it still equals a fresh service's). *)
  let submit = observed_service () in
  let _ = submit memo_request in
  List.iter
    (fun (what, r) ->
      let reply, delta = submit r in
      check_tables what (fresh_reply r).Request.tables reply;
      Alcotest.(check int) (what ^ ": classes reused") 0
        (delta "classes_reused"))
    Request.
      [
        "inject", with_inject_failures (Some 0.3) memo_request;
        ( "deadline",
          with_deadline
            (Some (Util.Watchdog.limits ~max_iterations:3_000 ()))
            memo_request );
      ];
  (* Injection hits a class by its index, so its key holds the index: a
     fault the injected request met is simulated again where a larger
     defect sample meets it at another index. *)
  let shifted =
    Request.(memo_request |> with_defects 600 |> with_inject_failures (Some 0.3))
  in
  check_tables "inject at 600 defects" (fresh_reply shifted).Request.tables
    (fst (submit shifted));
  let later = Request.with_seed 13 memo_request in
  check_tables "plain after both" (fresh_reply later).Request.tables
    (fst (submit later))

let test_memo_refill_past_bound () =
  (* A store far smaller than one analysis evicts on every run; the
     tables stay those of a run without it, and what it keeps does not
     depend on the job count: the same sequence reuses the same classes
     at jobs 1 and 4. *)
  let macros = Dft.Measures.macro_set ~measures:[] in
  let config seed =
    Pipeline.Config.(
      default |> with_defects 300 |> with_good_space_dies 4 |> with_seed seed)
  in
  let tables analyses =
    List.map
      (fun (title, t) -> title, Report.render ~format:`Text t)
      (Report.global_tables ~dft:false analyses)
  in
  let expected =
    List.map (fun seed -> tables (Pipeline.analyze_all (config seed) macros))
      [ 21; 22; 21 ]
  in
  let sequence jobs =
    let saved = Util.Pool.jobs () in
    Util.Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Util.Pool.set_jobs saved) @@ fun () ->
    let store = Checkpoint.create ~capacity:4 () in
    List.map2
      (fun seed want ->
        let memory = Util.Telemetry.in_memory () in
        let analyses =
          Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory)
            (fun () ->
              Pipeline.analyze_all
                Pipeline.Config.(config seed |> with_checkpoint (Some store))
                macros)
        in
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "seed %d at jobs %d" seed jobs)
          want (tables analyses);
        Alcotest.(check bool) "bounded" true
          (Checkpoint.size store <= 4 * List.length macros);
        List.assoc_opt "classes_reused"
          (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters)
      [ 21; 22; 21 ] expected
  in
  let reused = sequence 1 in
  Alcotest.(check bool) "the store was used" true
    (List.exists (fun n -> n <> None) reused);
  Alcotest.(check (list (option int))) "same reuse at jobs 4" reused
    (sequence 4)

let test_store_read_back_from_disk () =
  (* A second service over the first one's cache directory serves a
     fresh seed from the class entries on disk: it reuses classes,
     replies with a fresh service's tables, and counts no result-cache
     hit. *)
  let cache_dir = Filename.concat (temp_dir "dotest-serve-store") "cache" in
  let cache () = Util.Cache.create ~dir:cache_dir ~version:Codec.version () in
  let _ = observed_service ~cache:(cache ()) () memo_request in
  let b = Request.with_seed 12 memo_request in
  let reply, delta = observed_service ~cache:(cache ()) () b in
  check_tables "seed B from disk" (fresh_reply b).Request.tables reply;
  Alcotest.(check bool) "classes reused" true (delta "classes_reused" > 0);
  Alcotest.(check int) "no result-cache hit" 0 reply.Request.cache_hits

let test_handle_line_matches_submit () =
  (* The wire entry point returns the same reply as a direct submit,
     modulo the execution-dependent counters. *)
  let service = Service.create () in
  let direct =
    match Service.submit service small_request with
    | Ok reply -> reply
    | Error e -> Alcotest.fail e.Request.message
  in
  let line =
    Service.handle_line service
      (Util.Json.to_string (Codec.request_to_json small_request))
  in
  match decode_response line with
  | Error e -> Alcotest.fail e.Request.message
  | Ok wire -> check_tables "wire" direct.Request.tables wire

let test_rank1_decodes_as_auto () =
  (* "rank1" named a solver backend that has since merged into auto. A
     request still spelling it decodes as [Auto], re-encodes as "auto"
     and addresses the same result as the same request sent as "auto". *)
  let decode solver =
    let line =
      Printf.sprintf
        "{\"api\":\"dotest-api/1\",\"target\":\"global\",\"defects\":500,\"solver\":%S}"
        solver
    in
    match Result.bind (Util.Json.of_string line) Codec.request_of_json with
    | Ok r -> r
    | Error e -> Alcotest.fail ("request line does not decode: " ^ e)
  in
  let legacy = decode "rank1" and auto = decode "auto" in
  Alcotest.(check string) "decodes as auto" "auto"
    (Circuit.Engine.solver_name legacy.Request.solver);
  Alcotest.(check bool) "re-encodes as auto" true
    (Util.Json.member "solver" (Codec.request_to_json legacy)
    = Some (Util.Json.String "auto"));
  Alcotest.(check string) "same fingerprint" (Request.fingerprint auto)
    (Request.fingerprint legacy)

let test_address_parsing () =
  let round s = Result.map Service.address_to_string (Service.address_of_string s) in
  Alcotest.(check bool) "unix prefix" true
    (round "unix:/tmp/x.sock" = Ok "unix:/tmp/x.sock");
  Alcotest.(check bool) "bare path" true
    (round "/tmp/x.sock" = Ok "unix:/tmp/x.sock");
  Alcotest.(check bool) "host:port" true
    (round "127.0.0.1:7777" = Ok "127.0.0.1:7777");
  Alcotest.(check bool) "empty host defaults" true
    (round ":7777" = Ok "127.0.0.1:7777");
  Alcotest.(check bool) "path with colon stays a path" true
    (round "/tmp/x:1" = Ok "unix:/tmp/x:1");
  Alcotest.(check bool) "bad port is an error" true
    (Result.is_error (Service.address_of_string "host:notaport"))

let suites =
  [
    ( "serve.codec",
      Alcotest.test_case "hostile wire lines" `Quick test_handle_line_errors
      :: Alcotest.test_case "address parsing" `Quick test_address_parsing
      :: Alcotest.test_case "rank1 decodes as auto" `Quick
           test_rank1_decodes_as_auto
      :: List.map QCheck_alcotest.to_alcotest qcheck_props );
    ( "serve.service",
      [
        Alcotest.test_case "8 concurrent clients, byte-identical" `Slow
          test_serve_concurrent_clients;
        Alcotest.test_case "coalesce + shed under max_pending=1" `Slow
          test_submit_coalesces_and_sheds;
        Alcotest.test_case "contained failures map to error codes" `Quick
          test_contained_failures_map_to_codes;
        Alcotest.test_case "wire equals direct submit" `Slow
          test_handle_line_matches_submit;
        Alcotest.test_case "target variants kept apart" `Slow
          test_service_keeps_targets_apart;
        Alcotest.test_case "memo reuses classes across seeds" `Slow
          test_memo_reuses_across_seeds;
        Alcotest.test_case "memo keyed by solver, retries, dft" `Slow
          test_memo_keyed_apart;
        Alcotest.test_case "injection, deadlines keyed apart" `Slow
          test_store_keys_contained_runs_apart;
        Alcotest.test_case "memo refilled past its bound" `Slow
          test_memo_refill_past_bound;
        Alcotest.test_case "store read back from disk" `Slow
          test_store_read_back_from_disk;
      ] );
  ]
