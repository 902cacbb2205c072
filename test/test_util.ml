(* Unit and property tests for the dotest.util library. *)

open Util

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_prng_split_independent () =
  let parent = Prng.create 3 in
  let child = Prng.split parent in
  let child_first = Prng.bits64 child in
  (* Same construction must be reproducible. *)
  let parent' = Prng.create 3 in
  let child' = Prng.split parent' in
  Alcotest.(check int64) "split reproducible" child_first (Prng.bits64 child')

let test_prng_int_range () =
  let prng = Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.int prng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let prng = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int prng 0))

let test_prng_float_range () =
  let prng = Prng.create 13 in
  for _ = 1 to 10_000 do
    let v = Prng.float prng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_prng_uniform_mean () =
  let prng = Prng.create 17 in
  let acc = Stats.accumulator () in
  for _ = 1 to 50_000 do
    Stats.add acc (Prng.uniform prng ~lo:(-1.0) ~hi:1.0)
  done;
  check_floatish "mean near 0" 0.02 0.0 (Stats.mean acc)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_known_values () =
  let acc = Stats.accumulator () in
  List.iter (Stats.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.mean acc);
  check_floatish "stddev (sample)" 1e-9 (sqrt (32. /. 7.)) (Stats.stddev acc);
  Alcotest.(check int) "count" 8 (Stats.count acc)

let test_stats_empty_mean () =
  let acc = Stats.accumulator () in
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Stats.mean: empty accumulator") (fun () ->
      ignore (Stats.mean acc))

let test_stats_single_value_variance () =
  let acc = Stats.accumulator () in
  Stats.add acc 42.0;
  check_float "variance of singleton" 0.0 (Stats.variance acc)

let test_stats_sigma_window () =
  let acc = Stats.accumulator () in
  List.iter (Stats.add acc) [ 9.; 10.; 11. ];
  let w = Stats.sigma_window ~k:3.0 acc in
  Alcotest.(check bool) "mean inside" true (Stats.inside w 10.0);
  Alcotest.(check bool) "far value outside" false (Stats.inside w 20.0);
  let wide = Stats.widen w ~by:10.0 in
  Alcotest.(check bool) "widened catches it" true (Stats.inside wide 20.0)

(* ------------------------------------------------------------------ *)
(* Distribution                                                        *)
(* ------------------------------------------------------------------ *)

let test_normal_moments () =
  let prng = Prng.create 29 in
  let acc = Stats.accumulator () in
  for _ = 1 to 100_000 do
    Stats.add acc (Distribution.normal prng ~mean:5.0 ~sigma:2.0)
  done;
  check_floatish "mean" 0.05 5.0 (Stats.mean acc);
  check_floatish "sigma" 0.05 2.0 (Stats.stddev acc)

let test_truncated_normal_bounds () =
  let prng = Prng.create 31 in
  for _ = 1 to 10_000 do
    let x =
      Distribution.truncated_normal prng ~mean:0.0 ~sigma:5.0 ~lo:(-1.0) ~hi:1.0
    in
    Alcotest.(check bool) "in bounds" true (x >= -1.0 && x <= 1.0)
  done

let test_truncated_normal_unreachable_window () =
  (* Regression: a window 10 sigma away from the mean defeats rejection
     sampling; the redraw loop must give up after its cap and clamp to
     the bound nearer the mean instead of spinning (or recursing) forever. *)
  let prng = Prng.create 53 in
  for _ = 1 to 100 do
    let x =
      Distribution.truncated_normal prng ~mean:0.0 ~sigma:1.0 ~lo:10.0 ~hi:11.0
    in
    Alcotest.(check (float 1e-12)) "clamped to nearer bound" 10.0 x
  done;
  for _ = 1 to 100 do
    let x =
      Distribution.truncated_normal prng ~mean:0.0 ~sigma:1.0 ~lo:(-11.0)
        ~hi:(-10.0)
    in
    Alcotest.(check (float 1e-12)) "negative side clamps to hi" (-10.0) x
  done

let test_power_law_bounds_and_shape () =
  let prng = Prng.create 37 in
  let small = ref 0 and total = 10_000 in
  for _ = 1 to total do
    let x = Distribution.power_law_size prng ~x_min:100. ~x_max:10_000. in
    Alcotest.(check bool) "in bounds" true (x >= 100. && x <= 10_000.);
    if x < 200. then incr small
  done;
  (* For f ∝ x^-3 on [100, 10000], P(x < 200) = (100^-2 - 200^-2)/(100^-2 -
     10000^-2) ≈ 0.7501: small defects must dominate. *)
  check_floatish "P(x<2*x_min)" 0.02 0.7501
    (float_of_int !small /. float_of_int total)

let test_discrete_weights () =
  let prng = Prng.create 41 in
  let d = Distribution.discrete [ 1.0, `A; 3.0, `B ] in
  let hits_b = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    match Distribution.draw prng d with `A -> () | `B -> incr hits_b
  done;
  check_floatish "weight ratio" 0.02 0.75 (float_of_int !hits_b /. float_of_int n)

let test_discrete_drops_zero_weights () =
  let prng = Prng.create 43 in
  let d = Distribution.discrete [ 0.0, `Never; 1.0, `Always ] in
  for _ = 1 to 1000 do
    match Distribution.draw prng d with
    | `Always -> ()
    | `Never -> Alcotest.fail "zero-weight case drawn"
  done

let test_discrete_rejects_all_zero () =
  Alcotest.check_raises "no positive weights"
    (Invalid_argument "Distribution.discrete: no positive weights") (fun () ->
      ignore (Distribution.discrete [ 0.0, `A ]))

(* ------------------------------------------------------------------ *)
(* Union_find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.set_count uf);
  Alcotest.(check bool) "union merges" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 0 1);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "set count" 4 (Union_find.set_count uf)

let test_uf_transitivity () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "0~2" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "3~4" true (Union_find.same uf 3 4);
  Alcotest.(check bool) "0!~3" false (Union_find.same uf 0 3)

let test_uf_groups () =
  let uf = Union_find.create 5 in
  ignore (Union_find.union uf 0 2);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check (list (list int)))
    "groups sorted" [ [ 0; 2 ]; [ 1; 3 ]; [ 4 ] ] (Union_find.groups uf)

let test_uf_empty () =
  let uf = Union_find.create 0 in
  Alcotest.(check int) "no sets" 0 (Union_find.set_count uf);
  Alcotest.(check (list (list int))) "no groups" [] (Union_find.groups uf)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t =
    Table.create ~columns:[ "name", Table.Left; "value", Table.Right ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains cell" true (contains_substring s "alpha");
  Alcotest.(check bool) "contains header" true (contains_substring s "name")

let test_table_alignment () =
  let t = Table.create ~columns:[ "h", Table.Right ] in
  Table.add_row t [ "x" ];
  Table.add_row t [ "long" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* Right-aligned short cell must be padded on the left. *)
  let has_padded = List.exists (fun line -> contains_substring line "|    x |") lines in
  Alcotest.(check bool) "right aligned" true has_padded

let test_table_cells () =
  Alcotest.(check string) "pct" "93.3%" (Table.cell_pct 93.3);
  Alcotest.(check string) "pct decimals" "93%" (Table.cell_pct ~decimals:0 93.3);
  Alcotest.(check string) "float" "1.50" (Table.cell_float ~decimals:2 1.5)

let test_table_csv_quoting () =
  let t =
    Table.create ~columns:[ "metric", Table.Left; "value, n", Table.Right ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b \"q\""; "2,5" ];
  Alcotest.(check string) "csv"
    "metric,\"value, n\"\nalpha,1\n\"b \"\"q\"\"\",\"2,5\""
    (Table.render_csv t)

let test_table_json_rows () =
  let t = Table.create ~columns:[ "a", Table.Left; "b", Table.Right ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "y" ] (* short row pads with an empty cell *);
  Alcotest.(check string) "json"
    "[{\"a\":\"x\",\"b\":\"1\"},{\"a\":\"y\",\"b\":\"\"}]"
    (Json.to_string (Table.to_json t))

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_print_parse_roundtrip () =
  let v =
    Json.Obj
      [
        "s", Json.String "a \"b\"\n\t";
        "i", Json.Int (-42);
        "f", Json.Float 0.1;
        "t", Json.Bool true;
        "n", Json.Null;
        "l", Json.List [ Json.Int 1; Json.Float 2.5; Json.Obj [] ];
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = v)
  | Error e -> Alcotest.fail e

let test_json_parse_basics () =
  Alcotest.(check bool) "ws + nesting" true
    (Json.of_string " { \"a\" : [ 1 , true , \"x\" ] } "
    = Ok (Json.Obj [ "a", Json.List [ Json.Int 1; Json.Bool true; Json.String "x" ] ]));
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"\\u0041\"" = Ok (Json.String "A"));
  Alcotest.(check bool) "float vs int" true
    (Json.of_string "[1, 1.5, 1e2]"
    = Ok (Json.List [ Json.Int 1; Json.Float 1.5; Json.Float 100.0 ]))

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "trailing garbage" true (bad "1 x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "nope");
  Alcotest.(check bool) "unclosed object" true (bad "{\"a\":1")

(* Adversarial nesting must come back as [Error], not blow the OCaml
   stack: the parser refuses anything deeper than [Json.max_depth]. *)
let test_json_depth_limit () =
  let nested n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Json.of_string (nested Json.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("max_depth should still parse: " ^ e));
  (match Json.of_string (nested (Json.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "too-deep array must be rejected"
  | Error e -> Alcotest.(check bool) "has a message" true (String.length e > 0));
  (* A 100k-deep bomb would overflow an unguarded recursive descent;
     here it is a cheap structured error. *)
  match Json.of_string (String.make 100_000 '{') with
  | Ok _ -> Alcotest.fail "object bomb must be rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_null_is_free () =
  (* With the null sink every instrumentation call is a plain passthrough. *)
  Alcotest.(check bool) "disabled" false (Telemetry.enabled ());
  Telemetry.count "never";
  Telemetry.gauge "never" 1.0;
  Alcotest.(check int) "with_span is f()" 7
    (Telemetry.with_span "s" (fun () -> 7));
  Alcotest.(check bool) "no current span" true (Telemetry.current_span () = None)

let test_telemetry_in_memory_aggregates () =
  let memory = Telemetry.in_memory () in
  Telemetry.with_sink (Telemetry.memory_sink memory) (fun () ->
      Telemetry.with_span "outer" (fun () ->
          Telemetry.count "hits";
          Telemetry.count ~by:4 "hits";
          Telemetry.gauge "level" 2.0;
          Telemetry.gauge "level" 5.0;
          Telemetry.gauge "level" 3.0;
          Telemetry.with_span "inner" (fun () -> Telemetry.count "hits")));
  let m = Telemetry.metrics memory in
  Alcotest.(check bool) "counter summed" true
    (List.assoc_opt "hits" m.Telemetry.Metrics.counters = Some 6);
  Alcotest.(check bool) "gauge keeps max" true
    (List.assoc_opt "level" m.Telemetry.Metrics.gauges = Some 5.0)

let test_telemetry_span_nesting_and_error () =
  (* Collect raw events; check parent links and the error attribute. *)
  let events = ref [] in
  let sink =
    { Telemetry.emit = (fun e -> events := e :: !events); flush = ignore }
  in
  (try
     Telemetry.with_sink sink (fun () ->
         Telemetry.with_span "outer" (fun () ->
             Telemetry.with_span "inner" (fun () -> failwith "boom")))
   with Failure _ -> ());
  let events = List.rev !events in
  let span_parent name =
    List.find_map
      (function
        | Telemetry.Span_start { name = n; id; parent; _ } when n = name ->
          Some (id, parent)
        | _ -> None)
      events
  in
  let outer_id, outer_parent = Option.get (span_parent "outer") in
  let _, inner_parent = Option.get (span_parent "inner") in
  Alcotest.(check bool) "outer is a root" true (outer_parent = None);
  Alcotest.(check bool) "inner under outer" true (inner_parent = Some outer_id);
  let errored name =
    List.exists
      (function
        | Telemetry.Span_end { name = n; attrs; _ } when n = name ->
          List.mem ("error", Telemetry.Bool true) attrs
        | _ -> false)
      events
  in
  Alcotest.(check bool) "inner errored" true (errored "inner");
  Alcotest.(check bool) "outer errored" true (errored "outer");
  Alcotest.(check bool) "ambient restored" false (Telemetry.enabled ())

let test_telemetry_event_json_roundtrip () =
  let samples =
    [
      Telemetry.Span_start { id = 3; parent = None; name = "a"; wall = 1.5 };
      Telemetry.Span_start { id = 4; parent = Some 3; name = "b"; wall = 2.5 };
      Telemetry.Span_end
        {
          id = 4;
          parent = Some 3;
          name = "b";
          attrs =
            [
              "k", Telemetry.Int 1;
              "s", Telemetry.String "x";
              "f", Telemetry.Float 0.25;
              "b", Telemetry.Bool false;
            ];
          wall = 3.5;
          duration_ns = 123_456_789L;
        };
      Telemetry.Counter { name = "c"; delta = 7; span = Some 4 };
      Telemetry.Gauge { name = "g"; value = 2.0; span = None };
    ]
  in
  List.iter
    (fun event ->
      match Telemetry.event_of_json (Telemetry.event_to_json event) with
      | Ok decoded -> Alcotest.(check bool) "round-trips" true (decoded = event)
      | Error e -> Alcotest.fail e)
    samples

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"prng: int always in bounds"
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let prng = Prng.create seed in
        let v = Prng.int prng bound in
        v >= 0 && v < bound);
    Test.make ~name:"stats: mean within [min, max]"
      (list_of_size (Gen.int_range 1 50) (float_range (-1e6) 1e6))
      (fun xs ->
        let acc = Stats.accumulator () in
        List.iter (Stats.add acc) xs;
        let m = Stats.mean acc in
        let lo = List.fold_left Float.min infinity xs in
        let hi = List.fold_left Float.max neg_infinity xs in
        m >= lo -. 1e-6 && m <= hi +. 1e-6);
    Test.make ~name:"stats: sigma window contains mean"
      (list_of_size (Gen.int_range 2 50) (float_range (-1e3) 1e3))
      (fun xs ->
        let acc = Stats.accumulator () in
        List.iter (Stats.add acc) xs;
        Stats.inside (Stats.sigma_window acc) (Stats.mean acc));
    Test.make ~name:"union_find: groups partition the universe"
      (pair (int_range 1 40) (small_list (pair (int_range 0 39) (int_range 0 39))))
      (fun (n, unions) ->
        let uf = Union_find.create n in
        List.iter (fun (i, j) -> if i < n && j < n then ignore (Union_find.union uf i j)) unions;
        let members = List.concat (Union_find.groups uf) in
        List.sort compare members = List.init n Fun.id);
    Test.make ~name:"union_find: set_count matches groups"
      (pair (int_range 1 40) (small_list (pair (int_range 0 39) (int_range 0 39))))
      (fun (n, unions) ->
        let uf = Union_find.create n in
        List.iter (fun (i, j) -> if i < n && j < n then ignore (Union_find.union uf i j)) unions;
        Union_find.set_count uf = List.length (Union_find.groups uf));
  ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_empty () =
  Alcotest.(check (list int)) "empty in, empty out" []
    (Pool.parallel_map ~jobs:4 (fun x -> x + 1) [])

let test_pool_single () =
  Alcotest.(check (list int)) "single item" [ 43 ]
    (Pool.parallel_map ~jobs:4 (fun x -> x + 1) [ 42 ])

let test_pool_matches_list_map () =
  let xs = List.init 257 Fun.id in
  let f x = (x * x) + 7 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals List.map" jobs)
        (List.map f xs)
        (Pool.parallel_map ~jobs f xs))
    [ 1; 2; 4; 13 ]

let test_pool_mapi_order () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string)) "indices line up"
    [ "0a"; "1b"; "2c"; "3d"; "4e" ]
    (Pool.parallel_mapi ~jobs:3 (fun i s -> string_of_int i ^ s) xs)

let test_pool_exception_propagates () =
  Alcotest.check_raises "worker failure reaches the caller, wrapped"
    (Pool.Worker_failure (5, Failure "item 5"))
    (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4
           (fun x -> if x = 5 then failwith "item 5" else x)
           (List.init 20 Fun.id)))

let test_pool_first_failure_wins () =
  (* Several items fail; the lowest index must be the one re-raised, for
     any job count — including the sequential paths (jobs=1, singleton). *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d reports lowest index" jobs)
        (Pool.Worker_failure (3, Failure "item 3"))
        (fun () ->
          ignore
            (Pool.parallel_map ~jobs
               (fun x ->
                 if x >= 3 then failwith (Printf.sprintf "item %d" x) else x)
               (List.init 16 Fun.id))))
    [ 1; 4 ]

let test_pool_singleton_failure_wrapped () =
  Alcotest.check_raises "singleton path wraps too"
    (Pool.Worker_failure (0, Failure "only item"))
    (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4 (fun _ -> failwith "only item") [ () ]))

let test_pool_worker_failure_printer () =
  let s = Printexc.to_string (Pool.Worker_failure (7, Failure "boom")) in
  Alcotest.(check bool) "mentions the item index" true
    (contains_substring s "7");
  Alcotest.(check bool) "mentions the cause" true (contains_substring s "boom")

let test_pool_chunk_ranges () =
  Alcotest.(check (list (pair int int))) "exact split"
    [ 0, 4; 4, 4; 8, 4 ]
    (Pool.chunk_ranges ~n:12 ~chunk_size:4);
  Alcotest.(check (list (pair int int))) "ragged tail"
    [ 0, 5; 5, 5; 10, 2 ]
    (Pool.chunk_ranges ~n:12 ~chunk_size:5);
  Alcotest.(check (list (pair int int))) "empty" []
    (Pool.chunk_ranges ~n:0 ~chunk_size:8);
  Alcotest.check_raises "bad chunk size"
    (Invalid_argument "Pool.chunk_ranges: chunk_size must be positive")
    (fun () -> ignore (Pool.chunk_ranges ~n:3 ~chunk_size:0))

let test_pool_nested_stays_sequential () =
  (* A parallel_map inside a worker must not spawn further domains; it
     still has to produce correct, ordered results. *)
  let result =
    Pool.parallel_map ~jobs:4
      (fun x -> Pool.parallel_map ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ])
      [ 10; 20 ]
  in
  Alcotest.(check (list (list int))) "nested result"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    result

let test_pool_set_jobs_floor () =
  let before = Pool.jobs () in
  Pool.set_jobs (-3);
  let clamped = Pool.jobs () in
  Pool.set_jobs before;
  Alcotest.(check int) "clamped to 1" 1 clamped

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

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

let payload = Json.Obj [ "answer", Json.Int 42 ]

let test_cache_store_find_roundtrip () =
  with_cache_dir @@ fun dir ->
  let c = Cache.create ~dir ~version:"v1" () in
  let key = Cache.fingerprint [ "some"; "inputs" ] in
  Alcotest.(check bool) "absent before store" true (Cache.find c ~key = None);
  Cache.store c ~key payload;
  Alcotest.(check bool) "memory hit" true (Cache.find c ~key = Some payload);
  (* A fresh handle on the same directory must hit from disk. *)
  let c2 = Cache.create ~dir ~version:"v1" () in
  Alcotest.(check bool) "disk hit" true (Cache.find c2 ~key = Some payload);
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "nothing stale" 0 s.Cache.stale

let test_cache_corrupt_entry_is_a_miss () =
  with_cache_dir @@ fun dir ->
  let c = Cache.create ~dir ~version:"v1" () in
  let key = Cache.fingerprint [ "corrupt" ] in
  Cache.store c ~key payload;
  (* Truncate the entry mid-file: a torn write from a crashed process. *)
  let path = Filename.concat dir (key ^ ".json") in
  let oc = open_out path in
  output_string oc "{\"schema\":\"dotest-ca";
  close_out oc;
  (* Fresh handle so the LRU cannot mask the damaged file. *)
  let c2 = Cache.create ~dir ~version:"v1" () in
  Alcotest.(check bool) "corrupt entry misses" true (Cache.find c2 ~key = None);
  let s = Cache.stats c2 in
  Alcotest.(check int) "counted stale" 1 s.Cache.stale;
  Alcotest.(check int) "also counted miss" 1 s.Cache.misses;
  (* And it can be overwritten and found again. *)
  Cache.store c2 ~key payload;
  Alcotest.(check bool) "recovers" true (Cache.find c2 ~key = Some payload)

let test_cache_version_mismatch_invalidates () =
  with_cache_dir @@ fun dir ->
  let c = Cache.create ~dir ~version:"v1" () in
  let key = Cache.fingerprint [ "versioned" ] in
  Cache.store c ~key payload;
  let c2 = Cache.create ~dir ~version:"v2" () in
  Alcotest.(check bool) "old version misses" true (Cache.find c2 ~key = None);
  Alcotest.(check int) "counted stale" 1 (Cache.stats c2).Cache.stale;
  (* The original handle still reads its own entry. *)
  let c3 = Cache.create ~dir ~version:"v1" () in
  Alcotest.(check bool) "same version still hits" true
    (Cache.find c3 ~key = Some payload)

let test_cache_lru_eviction_counted () =
  with_cache_dir @@ fun dir ->
  let c = Cache.create ~capacity:2 ~dir ~version:"v1" () in
  let key i = Cache.fingerprint [ "entry"; string_of_int i ] in
  List.iter (fun i -> Cache.store c ~key:(key i) payload) [ 1; 2; 3 ];
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  (* Evicted from memory, not from disk: still findable. *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "still stored" true
        (Cache.find c ~key:(key i) = Some payload))
    [ 1; 2; 3 ]

let test_cache_fingerprint_boundaries () =
  Alcotest.(check bool) "parts cannot alias" true
    (Cache.fingerprint [ "ab"; "c" ] <> Cache.fingerprint [ "a"; "bc" ]);
  Alcotest.(check bool) "order matters" true
    (Cache.fingerprint [ "a"; "b" ] <> Cache.fingerprint [ "b"; "a" ]);
  Alcotest.(check string) "deterministic"
    (Cache.fingerprint [ "a"; "b" ])
    (Cache.fingerprint [ "a"; "b" ]);
  String.iter
    (fun ch ->
      Alcotest.(check bool) "hex digest" true
        ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
    (Cache.fingerprint [ "x" ])

let test_cache_telemetry_counters () =
  with_cache_dir @@ fun dir ->
  let memory = Telemetry.in_memory () in
  Telemetry.with_sink (Telemetry.memory_sink memory) @@ fun () ->
  let c = Cache.create ~dir ~version:"v1" () in
  let key = Cache.fingerprint [ "telemetry" ] in
  ignore (Cache.find c ~key);
  Cache.store c ~key payload;
  ignore (Cache.find c ~key);
  let m = Telemetry.metrics memory in
  Alcotest.(check (option int)) "cache.misses counted" (Some 1)
    (List.assoc_opt "cache.misses" m.Telemetry.Metrics.counters);
  Alcotest.(check (option int)) "cache.hits counted" (Some 1)
    (List.assoc_opt "cache.hits" m.Telemetry.Metrics.counters)

let test_cache_write_failure_degrades () =
  with_cache_dir @@ fun dir ->
  let c = Cache.create ~dir ~version:"v1" () in
  (* Pull the directory out from under the handle: every later store
     fails to open its temp file. (A chmod-based read-only directory
     would not do — these tests may run as root, which bypasses
     permission bits.) *)
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  Sys.rmdir dir;
  let key i = Cache.fingerprint [ "degraded"; string_of_int i ] in
  Cache.store c ~key:(key 1) payload;
  Cache.store c ~key:(key 2) payload;
  let s = Cache.stats c in
  Alcotest.(check int) "every failed write counted" 2 s.Cache.write_errors;
  (* Degraded, not broken: a fresh handle sees nothing on disk. *)
  Unix.mkdir dir 0o700;
  let c2 = Cache.create ~dir ~version:"v1" () in
  Alcotest.(check bool) "nothing persisted" true (Cache.find c2 ~key:(key 1) = None);
  Alcotest.(check int) "fresh handle clean" 0 (Cache.stats c2).Cache.write_errors

let test_cache_side_entries_uncounted () =
  (* [put] and [peek] serve side entries: neither counts a hit or a miss,
     and neither pushes a result entry out of the LRU. *)
  with_cache_dir @@ fun dir ->
  let c = Cache.create ~capacity:1 ~dir ~version:"v1" () in
  let key = Cache.fingerprint [ "result" ] in
  Cache.store c ~key payload;
  let side i = Cache.fingerprint [ "side"; string_of_int i ] in
  List.iter (fun i -> Cache.put c ~key:(side i) payload) [ 1; 2; 3 ];
  Alcotest.(check bool) "side entry read back" true
    (Cache.peek c ~key:(side 2) = Some payload);
  Alcotest.(check bool) "absent side entry" true
    (Cache.peek c ~key:(side 4) = None);
  Alcotest.(check bool) "result still found" true (Cache.find c ~key = Some payload);
  let s = Cache.stats c in
  Alcotest.(check (list int)) "hits, misses, evictions" [ 1; 0; 0 ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.evictions ]

(* Envelope fuzzing: the bytes of one entry file are replaced, then read
   through a fresh handle so no in-memory entry can mask the file. *)

let fuzz_key = Cache.fingerprint [ "fuzz" ]

let entry_file dir = Filename.concat dir (fuzz_key ^ ".json")

let read_entry dir =
  In_channel.with_open_bin (entry_file dir) In_channel.input_all

let find_entry_bytes dir bytes =
  Out_channel.with_open_bin (entry_file dir) (fun oc ->
      Out_channel.output_string oc bytes);
  let c = Cache.create ~dir ~version:"v1" () in
  let found = Cache.find c ~key:fuzz_key in
  found, Cache.stats c

let gen_payload =
  QCheck.Gen.(
    sized_size (0 -- 2) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Json.Null;
              map (fun i -> Json.Int i) small_signed_int;
              map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
              map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 6));
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Json.List l) (list_size (0 -- 3) (self (n - 1)));
              map
                (fun l -> Json.Obj l)
                (list_size (0 -- 3)
                   (pair (string_size ~gen:printable (1 -- 4)) (self (n - 1))));
            ]))

(* Mostly near-misses: envelopes with a wrong, mistyped or missing field,
   fields in any order, and cut, spliced or noisy copies of them. Pure
   noise alone would never reach the field checks. *)
let gen_entry_bytes ~schema =
  let open QCheck.Gen in
  let field name ~right ~wrong =
    frequency
      [
        8, return [ name, Json.String right ];
        1, return [ name, Json.String wrong ];
        1, return [ name, Json.Int 1 ];
        1, return [];
      ]
  in
  let envelope =
    let* s = field "schema" ~right:schema ~wrong:"dotest-cache/0" in
    let* v = field "version" ~right:"v1" ~wrong:"v2" in
    let* k = field "key" ~right:fuzz_key ~wrong:(Cache.fingerprint [ "other" ]) in
    let* p =
      frequency [ 5, map (fun j -> [ "payload", j ]) gen_payload; 1, return [] ]
    in
    let* fields = shuffle_l (s @ v @ k @ p) in
    return (Json.to_string (Json.Obj fields) ^ "\n")
  in
  let mutate bytes =
    let n = String.length bytes in
    let* i = 0 -- n in
    let* noise = string_size ~gen:char (1 -- 8) in
    frequencyl
      [
        3, bytes;
        1, String.sub bytes 0 i;
        1, String.sub bytes 0 i ^ noise ^ String.sub bytes i (n - i);
        ( 1,
          let j = min n (i + String.length noise) in
          String.sub bytes 0 i ^ String.sub bytes j (n - j) );
      ]
  in
  frequency [ 1, string_size ~gen:char (0 -- 64); 5, envelope >>= mutate ]

(* What [find] may answer: the payload of an envelope with this schema,
   version and key, and nothing for any other bytes. *)
let envelope_payload ~schema bytes =
  match Json.of_string bytes with
  | Error _ -> None
  | Ok json ->
    let field name = Option.bind (Json.member name json) Json.to_str in
    if
      field "schema" = Some schema
      && field "version" = Some "v1"
      && field "key" = Some fuzz_key
    then Json.member "payload" json
    else None

let schema_of_stored dir =
  let c = Cache.create ~dir ~version:"v1" () in
  Cache.store c ~key:fuzz_key payload;
  match Json.of_string (read_entry dir) with
  | Ok json -> Option.get (Option.bind (Json.member "schema" json) Json.to_str)
  | Error e -> Alcotest.fail e

let fuzz_rand () = Random.State.make [| 1995 |]

let test_cache_fuzzed_entries () =
  with_cache_dir @@ fun dir ->
  let schema = schema_of_stored dir in
  QCheck.Test.check_exn ~rand:(fuzz_rand ())
    (QCheck.Test.make ~name:"fuzzed entry bytes" ~count:1000
       (QCheck.make ~print:String.escaped (gen_entry_bytes ~schema))
       (fun bytes ->
         let found, s = find_entry_bytes dir bytes in
         found = envelope_payload ~schema bytes
         &&
         match found with
         | Some _ -> s.Cache.hits = 1 && s.Cache.stale = 0
         | None -> s.Cache.misses = 1 && s.Cache.stale = 1))

let test_cache_truncated_entries () =
  with_cache_dir @@ fun dir ->
  QCheck.Test.check_exn ~rand:(fuzz_rand ())
    (QCheck.Test.make ~name:"truncated entries" ~count:300
       (QCheck.make
          ~print:(fun (p, cut) ->
            Printf.sprintf "cut %d of %s" cut (Json.to_string p))
          QCheck.Gen.(pair gen_payload nat))
       (fun (p, cut) ->
         let c = Cache.create ~dir ~version:"v1" () in
         Cache.store c ~key:fuzz_key p;
         let whole = read_entry dir in
         (* Any cut before the trailing newline loses part of the JSON. *)
         let cut = cut mod (String.length whole - 1) in
         let found, s = find_entry_bytes dir (String.sub whole 0 cut) in
         found = None && s.Cache.stale = 1 && s.Cache.misses = 1))

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let test_watchdog_iteration_cap () =
  Alcotest.(check bool) "unarmed outside" false (Watchdog.armed ());
  (* Unarmed ticks are free no-ops. *)
  Watchdog.tick ();
  Watchdog.with_limits
    (Watchdog.limits ~max_iterations:10 ())
    (fun () ->
      Alcotest.(check bool) "armed inside" true (Watchdog.armed ());
      for _ = 1 to 10 do
        Watchdog.tick ()
      done);
  (match
     Watchdog.with_limits
       (Watchdog.limits ~max_iterations:10 ())
       (fun () ->
         for _ = 1 to 11 do
           Watchdog.tick ()
         done)
   with
  | () -> Alcotest.fail "the 11th tick must expire"
  | exception Watchdog.Deadline_exceeded (Watchdog.Iterations { limit }) ->
    Alcotest.(check int) "configured limit carried" 10 limit
  | exception Watchdog.Deadline_exceeded _ -> Alcotest.fail "wrong expiry kind");
  Alcotest.(check bool) "disarmed after" false (Watchdog.armed ())

let test_watchdog_wall_checked_in_batches () =
  (* A zero wall budget expires at the first wall-clock read, which the
     amortization contract schedules for the 32nd tick — not the 1st. *)
  let ticked = ref 0 in
  match
    Watchdog.with_limits
      (Watchdog.limits ~wall_seconds:0.0 ())
      (fun () ->
        for _ = 1 to 100 do
          Watchdog.tick ();
          incr ticked
        done)
  with
  | () -> Alcotest.fail "zero wall budget must expire"
  | exception Watchdog.Deadline_exceeded (Watchdog.Wall_clock { limit }) ->
    Alcotest.(check (float 0.0)) "configured limit carried" 0.0 limit;
    Alcotest.(check int) "expired at the first batched check" 31 !ticked
  | exception Watchdog.Deadline_exceeded _ -> Alcotest.fail "wrong expiry kind"

let test_watchdog_tick_by () =
  match
    Watchdog.with_limits
      (Watchdog.limits ~max_iterations:10 ())
      (fun () -> Watchdog.tick ~by:11 ())
  with
  | () -> Alcotest.fail "bulk tick past the cap must expire"
  | exception Watchdog.Deadline_exceeded (Watchdog.Iterations { limit }) ->
    Alcotest.(check int) "limit" 10 limit
  | exception Watchdog.Deadline_exceeded _ -> Alcotest.fail "wrong expiry kind"

let test_watchdog_scale () =
  let l = Watchdog.limits ~wall_seconds:1.5 ~max_iterations:10 () in
  let s = Watchdog.scale l ~factor:4 in
  Alcotest.(check (option (float 1e-12))) "wall scaled" (Some 6.0)
    s.Watchdog.wall_seconds;
  Alcotest.(check (option int)) "iterations scaled" (Some 40)
    s.Watchdog.max_iterations;
  let clamped = Watchdog.scale l ~factor:0 in
  Alcotest.(check (option int)) "factor clamps to 1" (Some 10)
    clamped.Watchdog.max_iterations;
  let unlimited = Watchdog.scale Watchdog.no_limits ~factor:8 in
  Alcotest.(check bool) "no_limits stays unlimited" true
    (unlimited = Watchdog.no_limits)

let test_watchdog_nesting_restores () =
  Watchdog.with_limits
    (Watchdog.limits ~max_iterations:100 ())
    (fun () ->
      (* An inner deadline shadows the outer one; its expiry must leave
         the outer budget armed and untouched. *)
      (match
         Watchdog.with_limits
           (Watchdog.limits ~max_iterations:2 ())
           (fun () ->
             for _ = 1 to 3 do
               Watchdog.tick ()
             done)
       with
      | () -> Alcotest.fail "inner deadline must expire"
      | exception Watchdog.Deadline_exceeded (Watchdog.Iterations { limit }) ->
        Alcotest.(check int) "inner limit" 2 limit
      | exception Watchdog.Deadline_exceeded _ ->
        Alcotest.fail "wrong expiry kind");
      Alcotest.(check bool) "outer still armed" true (Watchdog.armed ());
      for _ = 1 to 50 do
        Watchdog.tick ()
      done);
  Alcotest.(check bool) "fully disarmed" false (Watchdog.armed ())

let test_watchdog_expiry_messages_deterministic () =
  (* These strings persist inside cached Unresolved payloads: they must
     be pure functions of the configured limit. *)
  Alcotest.(check string) "iterations"
    "deadline of 500 solver iterations exceeded"
    (Watchdog.expiry_message (Watchdog.Iterations { limit = 500 }));
  Alcotest.(check string) "wall" "wall-clock deadline of 2.5s exceeded"
    (Watchdog.expiry_message (Watchdog.Wall_clock { limit = 2.5 }))

let test_watchdog_shutdown_flag () =
  Fun.protect ~finally:Watchdog.reset_shutdown @@ fun () ->
  Watchdog.reset_shutdown ();
  Alcotest.(check bool) "clear initially" false (Watchdog.shutdown_requested ());
  Watchdog.check_shutdown ();
  Watchdog.request_shutdown ~reason:"first" ();
  Watchdog.request_shutdown ~reason:"second" ();
  Alcotest.(check (option string)) "first request wins" (Some "first")
    (Watchdog.shutdown_reason ());
  (match Watchdog.check_shutdown () with
  | () -> Alcotest.fail "must raise once requested"
  | exception Watchdog.Interrupted reason ->
    Alcotest.(check string) "reason carried" "first" reason);
  Watchdog.reset_shutdown ();
  Alcotest.(check bool) "reset clears" false (Watchdog.shutdown_requested ())

(* ------------------------------------------------------------------ *)
(* Pool cancellation                                                   *)
(* ------------------------------------------------------------------ *)

let test_pool_cancels_after_failure () =
  (* Prompt cancellation: after item 0 fails, dispatch stops — with
     thousands of items queued, most must never run. The propagated
     exception is still the lowest-indexed failure. *)
  let n = 5_000 in
  let processed = Atomic.make 0 in
  (match
     Pool.parallel_mapi ~jobs:4
       (fun i _ ->
         Atomic.incr processed;
         if i = 0 then begin
           Unix.sleepf 0.05;
           failwith "boom"
         end
         else Unix.sleepf 0.001)
       (List.init n Fun.id)
   with
  | _ -> Alcotest.fail "failure must propagate"
  | exception Pool.Worker_failure (0, Failure msg) ->
    Alcotest.(check string) "original exception carried" "boom" msg);
  Alcotest.(check bool) "dispatch stopped early" true
    (Atomic.get processed < n)

let test_pool_shutdown_interrupts_parallel () =
  Fun.protect ~finally:Watchdog.reset_shutdown @@ fun () ->
  Watchdog.reset_shutdown ();
  (match
     Pool.parallel_mapi ~jobs:2
       (fun i _ ->
         if i = 0 then Watchdog.request_shutdown ~reason:"test shutdown" ();
         i)
       (List.init 1_000 Fun.id)
   with
  | _ -> Alcotest.fail "shutdown must interrupt the map"
  | exception Watchdog.Interrupted reason ->
    Alcotest.(check string) "reason carried" "test shutdown" reason)

let test_pool_shutdown_interrupts_sequential () =
  Fun.protect ~finally:Watchdog.reset_shutdown @@ fun () ->
  Watchdog.reset_shutdown ();
  let ran = ref [] in
  (match
     Pool.parallel_mapi ~jobs:1
       (fun i _ ->
         ran := i :: !ran;
         if i = 1 then Watchdog.request_shutdown ~reason:"seq" ();
         i)
       [ 10; 11; 12; 13 ]
   with
  | _ -> Alcotest.fail "shutdown must interrupt the map"
  | exception Watchdog.Interrupted _ ->
    (* The item that requested shutdown still completed; the next one
       was never started. *)
    Alcotest.(check (list int)) "stopped before item 2" [ 1; 0 ] !ran)

let suites =
  [
    ( "util.pool",
      [
        Alcotest.test_case "empty input" `Quick test_pool_empty;
        Alcotest.test_case "single item" `Quick test_pool_single;
        Alcotest.test_case "matches List.map" `Quick test_pool_matches_list_map;
        Alcotest.test_case "mapi order" `Quick test_pool_mapi_order;
        Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
        Alcotest.test_case "first failure wins" `Quick test_pool_first_failure_wins;
        Alcotest.test_case "singleton failure wrapped" `Quick test_pool_singleton_failure_wrapped;
        Alcotest.test_case "failure printer" `Quick test_pool_worker_failure_printer;
        Alcotest.test_case "chunk ranges" `Quick test_pool_chunk_ranges;
        Alcotest.test_case "nested sequential" `Quick test_pool_nested_stays_sequential;
        Alcotest.test_case "set_jobs floor" `Quick test_pool_set_jobs_floor;
        Alcotest.test_case "cancels after failure" `Quick
          test_pool_cancels_after_failure;
        Alcotest.test_case "shutdown interrupts parallel" `Quick
          test_pool_shutdown_interrupts_parallel;
        Alcotest.test_case "shutdown interrupts sequential" `Quick
          test_pool_shutdown_interrupts_sequential;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "split reproducible" `Quick test_prng_split_independent;
        Alcotest.test_case "int range" `Quick test_prng_int_range;
        Alcotest.test_case "int invalid bound" `Quick test_prng_int_invalid;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "known values" `Quick test_stats_known_values;
        Alcotest.test_case "empty mean raises" `Quick test_stats_empty_mean;
        Alcotest.test_case "singleton variance" `Quick test_stats_single_value_variance;
        Alcotest.test_case "sigma window" `Quick test_stats_sigma_window;
      ] );
    ( "util.distribution",
      [
        Alcotest.test_case "normal moments" `Quick test_normal_moments;
        Alcotest.test_case "truncated normal bounds" `Quick test_truncated_normal_bounds;
        Alcotest.test_case "truncated normal unreachable window" `Quick test_truncated_normal_unreachable_window;
        Alcotest.test_case "power law shape" `Quick test_power_law_bounds_and_shape;
        Alcotest.test_case "discrete weights" `Quick test_discrete_weights;
        Alcotest.test_case "discrete drops zero weights" `Quick test_discrete_drops_zero_weights;
        Alcotest.test_case "discrete rejects all-zero" `Quick test_discrete_rejects_all_zero;
      ] );
    ( "util.union_find",
      [
        Alcotest.test_case "basic" `Quick test_uf_basic;
        Alcotest.test_case "transitivity" `Quick test_uf_transitivity;
        Alcotest.test_case "groups" `Quick test_uf_groups;
        Alcotest.test_case "empty" `Quick test_uf_empty;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "alignment" `Quick test_table_alignment;
        Alcotest.test_case "cell formatting" `Quick test_table_cells;
        Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
        Alcotest.test_case "json rows" `Quick test_table_json_rows;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "print/parse round-trip" `Quick
          test_json_print_parse_roundtrip;
        Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "depth limit" `Quick test_json_depth_limit;
      ] );
    ( "util.cache",
      [
        Alcotest.test_case "store/find round-trip" `Quick
          test_cache_store_find_roundtrip;
        Alcotest.test_case "corrupt entry is a miss" `Quick
          test_cache_corrupt_entry_is_a_miss;
        Alcotest.test_case "version mismatch invalidates" `Quick
          test_cache_version_mismatch_invalidates;
        Alcotest.test_case "LRU eviction counted" `Quick
          test_cache_lru_eviction_counted;
        Alcotest.test_case "fingerprint boundaries" `Quick
          test_cache_fingerprint_boundaries;
        Alcotest.test_case "telemetry counters" `Quick
          test_cache_telemetry_counters;
        Alcotest.test_case "write failure degrades" `Quick
          test_cache_write_failure_degrades;
        Alcotest.test_case "side entries uncounted" `Quick
          test_cache_side_entries_uncounted;
        Alcotest.test_case "fuzzed entry bytes never raise" `Quick
          test_cache_fuzzed_entries;
        Alcotest.test_case "truncated entries are stale" `Quick
          test_cache_truncated_entries;
      ] );
    ( "util.watchdog",
      [
        Alcotest.test_case "iteration cap" `Quick test_watchdog_iteration_cap;
        Alcotest.test_case "wall checked in batches" `Quick
          test_watchdog_wall_checked_in_batches;
        Alcotest.test_case "bulk tick" `Quick test_watchdog_tick_by;
        Alcotest.test_case "scale" `Quick test_watchdog_scale;
        Alcotest.test_case "nesting restores" `Quick
          test_watchdog_nesting_restores;
        Alcotest.test_case "expiry messages deterministic" `Quick
          test_watchdog_expiry_messages_deterministic;
        Alcotest.test_case "shutdown flag" `Quick test_watchdog_shutdown_flag;
      ] );
    ( "util.telemetry",
      [
        Alcotest.test_case "null sink is free" `Quick test_telemetry_null_is_free;
        Alcotest.test_case "in-memory aggregates" `Quick
          test_telemetry_in_memory_aggregates;
        Alcotest.test_case "span nesting and error" `Quick
          test_telemetry_span_nesting_and_error;
        Alcotest.test_case "event json round-trip" `Quick
          test_telemetry_event_json_roundtrip;
      ] );
    "util.properties", List.map QCheck_alcotest.to_alcotest qcheck_props;
  ]
