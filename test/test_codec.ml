(* Core.Codec: round-trip properties and decode-error totality.

   The codec is the library's single (de)serialization surface; the
   result cache depends on [of_json (to_json v) = Ok v] holding exactly
   (floats included), and on decoders returning [Error] — never raising —
   on arbitrary junk. *)

let roundtrip (c : _ Core.Codec.t) v =
  match c.dec (c.enc v) with
  | Ok v' -> v' = v
  | Error e -> QCheck.Test.fail_reportf "decode error: %s" e

(* Also through the printed form: the cache stores rendered strings. *)
let roundtrip_printed (c : _ Core.Codec.t) v =
  match Util.Json.of_string (Util.Json.to_string (c.enc v)) with
  | Error e -> QCheck.Test.fail_reportf "reparse error: %s" e
  | Ok j -> (
    match c.dec j with
    | Ok v' -> v' = v
    | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

(* --- generators -------------------------------------------------------- *)

let gen_name =
  QCheck.Gen.(
    map
      (fun (c, s) -> Printf.sprintf "n%c%s" c s)
      (pair (char_range 'a' 'z') (string_size ~gen:(char_range 'a' 'z') (0 -- 6))))

(* Finite floats only: NaN never round-trips under (=) and infinities are
   not JSON. Mix awkward magnitudes with plain ones. *)
let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; -0.0; 1.0; 500.0; 0.1; 3.14159; 1e-15; 6.02e23; ~-.7.25 ];
        float_bound_inclusive 1e6;
        map (fun f -> ~-.f) (float_bound_inclusive 1e3);
      ])

let gen_mechanism =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Process.Defect_stats.Extra_material l) (oneofl Process.Layer.all);
        map (fun l -> Process.Defect_stats.Missing_material l) (oneofl Process.Layer.all);
        oneofl
          Process.Defect_stats.
            [
              Gate_oxide_pinhole;
              Junction_pinhole;
              Thick_oxide_pinhole;
              Extra_contact;
              Missing_contact;
            ];
      ])

let gen_bridge_origin =
  QCheck.Gen.oneofl
    Fault.Types.[ Short; Extra_contact; Thick_oxide_pinhole ]

let gen_fault =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (net_a, net_b, resistance, capacitance, origin) ->
            Fault.Types.Bridge { net_a; net_b; resistance; capacitance; origin })
          (tup5 gen_name gen_name gen_float (opt gen_float) gen_bridge_origin);
        map
          (fun (nets, resistance, capacitance, origin) ->
            Fault.Types.Bridge_cluster { nets; resistance; capacitance; origin })
          (tup4 (list_size (3 -- 5) gen_name) gen_float (opt gen_float)
             gen_bridge_origin);
        map
          (fun (net, far_pins) -> Fault.Types.Node_split { net; far_pins })
          (pair gen_name (list_size (0 -- 4) (pair gen_name gen_name)));
        map
          (fun (device, site, resistance) ->
            Fault.Types.Gate_pinhole { device; site; resistance })
          (tup3 gen_name
             (oneofl Fault.Types.[ To_source; To_drain; To_channel ])
             gen_float);
        map
          (fun (net, bulk_net, resistance) ->
            Fault.Types.Junction_leak { net; bulk_net; resistance })
          (tup3 gen_name gen_name gen_float);
        map
          (fun (device, resistance) ->
            Fault.Types.Device_ds_short { device; resistance })
          (pair gen_name gen_float);
        map
          (fun (gate_net, net_a, net_b) ->
            Fault.Types.Parasitic_mos { gate_net; net_a; net_b })
          (tup3 gen_name gen_name gen_name);
      ])

let gen_instance =
  QCheck.Gen.(
    map
      (fun (fault, severity, mechanism) ->
        { Fault.Types.fault; severity; mechanism })
      (tup3 gen_fault
         (oneofl Fault.Types.[ Catastrophic; Non_catastrophic ])
         gen_mechanism))

let gen_fault_class =
  QCheck.Gen.(
    map
      (fun (representative, count) -> { Fault.Collapse.representative; count })
      (pair gen_instance (1 -- 10_000)))

let gen_signature =
  QCheck.Gen.(
    map
      (fun (voltage, currents) -> { Macro.Signature.voltage; currents })
      (pair
         (oneofl Macro.Signature.all_voltage)
         (oneofl
            ([ [] ]
            @ List.map (fun c -> [ c ]) Macro.Signature.all_current
            @ [ Macro.Signature.all_current ]))))

let gen_status =
  QCheck.Gen.(
    oneof
      [
        return Macro.Evaluate.Converged;
        map (fun attempts -> Macro.Evaluate.Recovered { attempts }) (1 -- 5);
        map
          (fun (attempts, error) -> Macro.Evaluate.Unresolved { attempts; error })
          (pair (1 -- 5) gen_name);
      ])

let gen_outcome =
  QCheck.Gen.(
    map
      (fun (fault_class, signature, status) ->
        { Macro.Evaluate.fault_class; signature; status })
      (tup3 gen_fault_class gen_signature gen_status))

let gen_good_space =
  QCheck.Gen.(
    map Macro.Good_space.of_windows
      (list_size (0 -- 6)
         (pair gen_name
            (map
               (fun (low, high) -> { Util.Stats.low; high })
               (pair gen_float gen_float)))))

let gen_analysis =
  QCheck.Gen.(
    map
      (fun ( sprinkled,
             effective,
             good,
             (classes_catastrophic, classes_non_catastrophic),
             (outcomes_catastrophic, outcomes_non_catastrophic) ) ->
        {
          Core.Codec.sprinkled;
          effective;
          good;
          classes_catastrophic;
          classes_non_catastrophic;
          outcomes_catastrophic;
          outcomes_non_catastrophic;
        })
      (tup5 (0 -- 100_000) (0 -- 10_000) gen_good_space
         (pair
            (list_size (0 -- 3) gen_fault_class)
            (list_size (0 -- 3) gen_fault_class))
         (pair
            (list_size (0 -- 3) gen_outcome)
            (list_size (0 -- 3) gen_outcome))))

let gen_partial_outcomes =
  QCheck.Gen.(
    list_size (0 -- 4)
      (map
         (fun (section, index, outcome) -> { Core.Codec.section; index; outcome })
         (triple (oneofl [ "cat"; "ncat" ]) (0 -- 10_000) gen_outcome)))

let gen_limits =
  QCheck.Gen.(
    map
      (fun (wall_seconds, max_iterations) ->
        { Util.Watchdog.wall_seconds; max_iterations })
      (pair (opt gen_float) (opt (0 -- 1_000_000))))

(* --- round-trip properties --------------------------------------------- *)

let prop name ?(count = 500) gen codec =
  QCheck.Test.make ~name ~count (QCheck.make gen) (fun v ->
      roundtrip codec v && roundtrip_printed codec v)

let qcheck_props =
  [
    prop "voltage round-trips"
      (QCheck.Gen.oneofl Macro.Signature.all_voltage)
      Core.Codec.voltage;
    prop "current kind round-trips"
      (QCheck.Gen.oneofl Macro.Signature.all_current)
      Core.Codec.current_kind;
    prop "signature round-trips" gen_signature Core.Codec.signature;
    prop "fault round-trips" gen_fault Core.Codec.fault;
    prop "instance round-trips" gen_instance Core.Codec.instance;
    prop "fault class round-trips" gen_fault_class Core.Codec.fault_class;
    prop "status round-trips" gen_status Core.Codec.status;
    prop "outcome round-trips" gen_outcome Core.Codec.outcome;
    prop "good space round-trips" gen_good_space Core.Codec.good_space;
    prop "analysis round-trips" ~count:200 gen_analysis Core.Codec.analysis;
    prop "partial outcomes round-trip" ~count:200 gen_partial_outcomes
      Core.Codec.partial_outcomes;
    prop "limits round-trip" gen_limits Core.Codec.limits;
    prop "request round-trips" ~count:300 Test_serve.gen_request
      Core.Codec.request;
    prop "response round-trips" ~count:300 Test_serve.gen_response
      Core.Codec.response;
  ]

(* --- decoder totality -------------------------------------------------- *)

(* Arbitrary JSON values: every decoder must answer Ok/Error, not raise. *)
let gen_json =
  QCheck.Gen.(
    sized_size (0 -- 3) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Util.Json.Null;
              map (fun b -> Util.Json.Bool b) bool;
              map (fun i -> Util.Json.Int i) (-5 -- 5);
              map (fun f -> Util.Json.Float f) gen_float;
              map (fun s -> Util.Json.String s) gen_name;
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Util.Json.List l) (list_size (0 -- 3) (self (n - 1)));
              map
                (fun l -> Util.Json.Obj l)
                (list_size (0 -- 3) (pair gen_name (self (n - 1))));
            ]))

let decoders : (string * (Util.Json.t -> (unit, string) result)) list =
  let hide (c : _ Core.Codec.t) j = Result.map (fun _ -> ()) (c.dec j) in
  [
    "voltage", hide Core.Codec.voltage;
    "current_kind", hide Core.Codec.current_kind;
    "signature", hide Core.Codec.signature;
    "fault", hide Core.Codec.fault;
    "instance", hide Core.Codec.instance;
    "fault_class", hide Core.Codec.fault_class;
    "status", hide Core.Codec.status;
    "outcome", hide Core.Codec.outcome;
    "good_space", hide Core.Codec.good_space;
    "analysis", hide Core.Codec.analysis;
    "partial_outcomes", hide Core.Codec.partial_outcomes;
    "limits", hide Core.Codec.limits;
    "request", hide Core.Codec.request;
    "response", hide Core.Codec.response;
  ]

let decoders_total =
  QCheck.Test.make ~name:"decoders never raise" ~count:1000 (QCheck.make gen_json)
    (fun j ->
      List.for_all
        (fun (name, decode) ->
          match decode j with
          | Ok _ | Error _ -> true
          | exception e ->
            QCheck.Test.fail_reportf "%s decoder raised %s" name
              (Printexc.to_string e))
        decoders)

(* --- targeted decode errors -------------------------------------------- *)

let test_decode_errors_are_descriptive () =
  (match Core.Codec.voltage.dec (Util.Json.String "not-a-voltage") with
  | Error e ->
    Alcotest.(check bool) "names the bad value" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown voltage must not decode");
  (match Core.Codec.fault.dec (Util.Json.Obj [ "kind", Util.Json.String "warp-core" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault tag must not decode");
  match Core.Codec.analysis_of_json Util.Json.Null with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "null is not an analysis"

let test_mechanism_encoding_injective () =
  (* mechanism_name maps Extra_material Contact and Extra_contact to the
     same string; the codec must keep them distinct. *)
  let a = Process.Defect_stats.Extra_material Process.Layer.Contact in
  let b = Process.Defect_stats.Extra_contact in
  let inst mechanism =
    {
      Fault.Types.fault =
        Fault.Types.Device_ds_short { device = "m1"; resistance = 100.0 };
      severity = Fault.Types.Catastrophic;
      mechanism;
    }
  in
  let encode i = Util.Json.to_string (Core.Codec.instance.enc (inst i)) in
  Alcotest.(check bool) "encodings differ" true (encode a <> encode b);
  List.iter
    (fun m ->
      match Core.Codec.instance.dec (Core.Codec.instance.enc (inst m)) with
      | Ok i -> Alcotest.(check bool) "mechanism survives" true (i.mechanism = m)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [ a; b ]

(* --- cache-key golden values ---------------------------------------------- *)

(* Every result-cache key is built from these digests. They were recorded
   before the cell fingerprint was memoized and must never move by
   accident: a changed value silently turns every warm cache cold. A
   deliberate change re-records them and says why. *)
let paper_macros () =
  Dft.Measures.macro_set ~measures:[]
  @ [ Adc.Comparator.macro Adc.Comparator.dft_options ]

let golden_fingerprints =
  [
    ( "comparator",
      "bf8bd03103068c36c88c83ac625fc79f",
      "7593db0821ec26ba852dd01d14ea9619" );
    ( "ladder",
      "2f95e6b06ea9eeac80812b86a05a949f",
      "21e8e0ca5b0499b4a6c1274fe3b6ad70" );
    ( "bias generator",
      "7a3c115b46bfda9782566c17f497a49a",
      "a00aa3d87d9f706bc447baf67f6c7a43" );
    ( "clock generator",
      "17dbc1c5eb848702bcbe7bbc7579a0a5",
      "90fe8f4136c402bbb506ac8ae05ae45c" );
    ( "decoder",
      "3d81456159880e60a40c2c0853b30d4d",
      "2754f24f82b382368665ca2e2bed77ca" );
    ( "comparator",
      "0fecc85dce6d52c00b306138fa948765",
      "38ac726c6f315bd71fa908f682080975" );
  ]

let test_cache_keys_pinned () =
  let config = Core.Pipeline.Config.default in
  let cell (m : Macro.Macro_cell.t) = Lazy.force m.Macro.Macro_cell.cell in
  let memoized = paper_macros () and fresh = paper_macros () in
  List.iteri
    (fun i ((m : Macro.Macro_cell.t), (name, cell_hex, netlist_hex)) ->
      let what = Printf.sprintf "%d %s" i name in
      Alcotest.(check string) (what ^ ": name") name m.Macro.Macro_cell.name;
      Alcotest.(check string)
        (what ^ ": cell")
        cell_hex
        (Core.Codec.cell_fingerprint (cell m));
      Alcotest.(check string)
        (what ^ ": netlist")
        netlist_hex
        (Core.Codec.netlist_fingerprint
           (m.Macro.Macro_cell.build (Process.Variation.nominal config.tech))))
    (List.combine memoized golden_fingerprints);
  (* The first call memoized each digest; a newly synthesized copy of the
     same layout must spell out to the same bytes. *)
  List.iter2
    (fun (m : Macro.Macro_cell.t) (copy : Macro.Macro_cell.t) ->
      Alcotest.(check bool) "a distinct cell value" true (cell m != cell copy);
      Alcotest.(check string)
        (m.Macro.Macro_cell.name ^ ": fresh copy")
        (Core.Codec.cell_fingerprint (cell m))
        (Core.Codec.cell_fingerprint (cell copy)))
    memoized fresh;
  Alcotest.(check string) "tech" "db5621bd1ceaacc6d03e1a28d34574ab"
    (Core.Codec.tech_fingerprint config.tech);
  Alcotest.(check string) "defect statistics" "74b0cd4b2de5ba538ac9285b33898faa"
    (Core.Codec.stats_fingerprint Process.Defect_stats.default)

(* --- encoded bytes pinned ---------------------------------------------------- *)

(* The round-trip properties above would still pass if an encoding
   changed in both directions at once. Cache entries and checkpoint
   partials written by an older build, and every client of the wire
   protocol, read these exact bytes, so they are pinned here: a change
   that moves one of them must bump [Codec.version] (payloads) or
   [Codec.api_version] (wire lines) and re-record the string. The
   fixtures reach every case and every optional member of each schema. *)
let golden_outcomes =
  let open Fault.Types in
  let module D = Process.Defect_stats in
  let outcome fault severity mechanism count voltage currents status =
    {
      Macro.Evaluate.fault_class =
        { Fault.Collapse.representative = { fault; severity; mechanism }; count };
      signature = { Macro.Signature.voltage; currents };
      status;
    }
  in
  [
    outcome
      (Bridge
         { net_a = "inp"; net_b = "leakmid"; resistance = 0.2;
           capacitance = None; origin = Extra_contact })
      Catastrophic D.Extra_contact 15 Macro.Signature.Output_stuck_at
      [ Macro.Signature.IVdd; Macro.Signature.Iinput ] Macro.Evaluate.Converged;
    outcome
      (Bridge
         { net_a = "a\"b"; net_b = "c\nd"; resistance = 500.0;
           capacitance = Some 1e-15; origin = Short })
      Non_catastrophic (D.Extra_material Process.Layer.Metal1) 3
      Macro.Signature.Offset_too_large [] (Macro.Evaluate.Recovered { attempts = 2 });
    outcome
      (Bridge_cluster
         { nets = [ "n1"; "n2"; "n3" ]; resistance = 0.1;
           capacitance = Some 2.5e-3; origin = Thick_oxide_pinhole })
      Catastrophic D.Thick_oxide_pinhole 1 Macro.Signature.Mixed
      [ Macro.Signature.IDDQ ]
      (Macro.Evaluate.Unresolved { attempts = 2; error = "no DC operating point" });
    outcome
      (Node_split { net = "out"; far_pins = [ "M1", "d"; "RL", "-" ] })
      Catastrophic (D.Missing_material Process.Layer.Poly) 7
      Macro.Signature.Clock_value [] Macro.Evaluate.Converged;
    outcome
      (Gate_pinhole { device = "M3"; site = To_drain; resistance = 2000.0 })
      Catastrophic D.Gate_oxide_pinhole 4 Macro.Signature.No_voltage_deviation
      [ Macro.Signature.IVdd ] Macro.Evaluate.Converged;
    outcome
      (Junction_leak { net = "tail"; bulk_net = "gnd"; resistance = 6.02e23 })
      Catastrophic D.Junction_pinhole 2 Macro.Signature.Output_stuck_at []
      Macro.Evaluate.Converged;
    outcome
      (Device_ds_short { device = "M9"; resistance = -7.25 })
      Catastrophic D.Missing_contact 9 Macro.Signature.Mixed [] Macro.Evaluate.Converged;
    outcome
      (Parasitic_mos { gate_net = "clk"; net_a = "x"; net_b = "y" })
      Catastrophic (D.Extra_material Process.Layer.Poly) 1
      Macro.Signature.Output_stuck_at [] Macro.Evaluate.Converged;
  ]

(* The first two outcomes, as a one-class-per-severity analysis. *)
let golden_analysis =
  let cat = List.nth golden_outcomes 0 and ncat = List.nth golden_outcomes 1 in
  {
    Core.Codec.sprinkled = 25_000;
    effective = 1_234;
    good =
      Macro.Good_space.of_windows
        [
          "vout", { Util.Stats.low = -0.1; high = 3.0 };
          "ivdd", { Util.Stats.low = 1e-6; high = 0.00125 };
        ];
    classes_catastrophic = [ cat.Macro.Evaluate.fault_class ];
    classes_non_catastrophic = [ ncat.Macro.Evaluate.fault_class ];
    outcomes_catastrophic = [ cat ];
    outcomes_non_catastrophic = [ ncat ];
  }

(* Every outcome, so every fault kind, mechanism and status is pinned. *)
let golden_partials =
  List.mapi
    (fun i outcome ->
      {
        Core.Codec.section = (if i = 1 then "ncat" else "cat");
        index = 7 * i;
        outcome;
      })
    golden_outcomes

let full_request =
  Core.Request.(
    default
    |> with_id (Some "req-1")
    |> with_target (Comparator { dft = true })
    |> with_defects 400 |> with_good_space_dies 6 |> with_sigma 2.5
    |> with_seed 7 |> with_max_retries 3 |> with_strict true
    |> with_inject_failures (Some 0.25)
    |> with_deadline
         (Some { Util.Watchdog.wall_seconds = Some 1.5; max_iterations = Some 800 })
    |> with_solver Circuit.Engine.Dense
    |> with_format `Csv)

let ok_response : Core.Request.response =
  Ok
    {
      Core.Request.reply_id = Some "r-9";
      tables =
        [
          { Core.Request.title = "Summary"; body = "a | b\n\"q\"\t1" };
          { Core.Request.title = "Run health"; body = "" };
        ];
      cache_hits = 5;
      cache_misses = 0;
      coalesced = true;
      queue_seconds = 0.125;
      evaluate_seconds = 3.0;
    }

let error_response : Core.Request.response =
  Error
    {
      Core.Request.error_id = None;
      code = Core.Request.Overloaded;
      message = "16 analyses already pending; try again later";
      retry_after = Some 8.0;
    }

(* [codec_golden.txt] holds one "name json" line per fixture. *)
let golden_lines =
  lazy
    (In_channel.with_open_text "codec_golden.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.index_opt line ' ' with
           | Some i ->
             Some
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) )
           | None -> None))

let test_encoded_bytes_pinned () =
  let pin name json decode value =
    let line = Util.Json.to_string json in
    (match List.assoc_opt name (Lazy.force golden_lines) with
    | Some expected -> Alcotest.(check string) (name ^ ": bytes") expected line
    | None -> Alcotest.failf "%s: no golden line" name);
    match Result.bind (Util.Json.of_string line) decode with
    | Ok v -> Alcotest.(check bool) (name ^ ": decodes back") true (v = value)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  pin "analysis"
    (Core.Codec.analysis_to_json golden_analysis)
    Core.Codec.analysis_of_json golden_analysis;
  pin "partials"
    (Core.Codec.partial_outcomes_to_json golden_partials)
    Core.Codec.partial_outcomes_of_json golden_partials;
  pin "default-request"
    (Core.Codec.request_to_json Core.Request.default)
    Core.Codec.request_of_json Core.Request.default;
  pin "full-request"
    (Core.Codec.request_to_json full_request)
    Core.Codec.request_of_json full_request;
  pin "ok-response"
    (Core.Codec.response_to_json ok_response)
    Core.Codec.response_of_json ok_response;
  pin "error-response"
    (Core.Codec.response_to_json error_response)
    Core.Codec.response_of_json error_response;
  (* A minimal request: every member but "api" and "target" defaults. *)
  match
    Result.bind
      (Util.Json.of_string {|{"api":"dotest-api/1","target":"global"}|})
      Core.Codec.request_of_json
  with
  | Ok r ->
    Alcotest.(check bool) "minimal request is the default" true
      (r = Core.Request.default)
  | Error e -> Alcotest.failf "minimal request: %s" e

let test_version_stamp_shape () =
  Alcotest.(check bool) "version is non-empty" true
    (String.length Core.Codec.version > 0)

let suites =
  [
    ( "core.codec",
      List.map QCheck_alcotest.to_alcotest (qcheck_props @ [ decoders_total ])
      @ [
          Alcotest.test_case "decode errors" `Quick
            test_decode_errors_are_descriptive;
          Alcotest.test_case "mechanism encoding injective" `Quick
            test_mechanism_encoding_injective;
          Alcotest.test_case "version stamp" `Quick test_version_stamp_shape;
          Alcotest.test_case "cache keys pinned" `Quick test_cache_keys_pinned;
          Alcotest.test_case "encoded bytes pinned" `Quick
            test_encoded_bytes_pinned;
        ] );
  ]
