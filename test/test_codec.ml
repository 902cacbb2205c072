(* Core.Codec: round-trip properties and decode-error totality.

   The codec is the library's single (de)serialization surface; the
   result cache depends on [of_json (to_json v) = Ok v] holding exactly
   (floats included), and on decoders returning [Error] — never raising —
   on arbitrary junk. *)

let roundtrip ~to_json ~of_json v =
  match of_json (to_json v) with
  | Ok v' -> v' = v
  | Error e -> QCheck.Test.fail_reportf "decode error: %s" e

(* Also through the printed form: the cache stores rendered strings. *)
let roundtrip_printed ~to_json ~of_json v =
  match Util.Json.of_string (Util.Json.to_string (to_json v)) with
  | Error e -> QCheck.Test.fail_reportf "reparse error: %s" e
  | Ok j -> (
    match of_json j with
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

(* --- round-trip properties --------------------------------------------- *)

let prop name ?(count = 500) gen ~to_json ~of_json =
  QCheck.Test.make ~name ~count (QCheck.make gen) (fun v ->
      roundtrip ~to_json ~of_json v && roundtrip_printed ~to_json ~of_json v)

let qcheck_props =
  [
    prop "voltage round-trips"
      (QCheck.Gen.oneofl Macro.Signature.all_voltage)
      ~to_json:Core.Codec.voltage_to_json ~of_json:Core.Codec.voltage_of_json;
    prop "current kind round-trips"
      (QCheck.Gen.oneofl Macro.Signature.all_current)
      ~to_json:Core.Codec.current_kind_to_json
      ~of_json:Core.Codec.current_kind_of_json;
    prop "signature round-trips" gen_signature
      ~to_json:Core.Codec.signature_to_json
      ~of_json:Core.Codec.signature_of_json;
    prop "fault round-trips" gen_fault ~to_json:Core.Codec.fault_to_json
      ~of_json:Core.Codec.fault_of_json;
    prop "instance round-trips" gen_instance
      ~to_json:Core.Codec.instance_to_json ~of_json:Core.Codec.instance_of_json;
    prop "fault class round-trips" gen_fault_class
      ~to_json:Core.Codec.fault_class_to_json
      ~of_json:Core.Codec.fault_class_of_json;
    prop "status round-trips" gen_status ~to_json:Core.Codec.status_to_json
      ~of_json:Core.Codec.status_of_json;
    prop "outcome round-trips" gen_outcome ~to_json:Core.Codec.outcome_to_json
      ~of_json:Core.Codec.outcome_of_json;
    prop "good space round-trips" gen_good_space
      ~to_json:Core.Codec.good_space_to_json
      ~of_json:Core.Codec.good_space_of_json;
    prop "analysis round-trips" ~count:200 gen_analysis
      ~to_json:Core.Codec.analysis_to_json
      ~of_json:Core.Codec.analysis_of_json;
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
  let hide decode j = Result.map (fun _ -> ()) (decode j) in
  [
    "voltage", hide Core.Codec.voltage_of_json;
    "current_kind", hide Core.Codec.current_kind_of_json;
    "signature", hide Core.Codec.signature_of_json;
    "fault", hide Core.Codec.fault_of_json;
    "instance", hide Core.Codec.instance_of_json;
    "fault_class", hide Core.Codec.fault_class_of_json;
    "status", hide Core.Codec.status_of_json;
    "outcome", hide Core.Codec.outcome_of_json;
    "good_space", hide Core.Codec.good_space_of_json;
    "analysis", hide Core.Codec.analysis_of_json;
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
  (match Core.Codec.voltage_of_json (Util.Json.String "not-a-voltage") with
  | Error e ->
    Alcotest.(check bool) "names the bad value" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown voltage must not decode");
  (match Core.Codec.fault_of_json (Util.Json.Obj [ "kind", Util.Json.String "warp-core" ]) with
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
  let encode i = Util.Json.to_string (Core.Codec.instance_to_json (inst i)) in
  Alcotest.(check bool) "encodings differ" true (encode a <> encode b);
  List.iter
    (fun m ->
      match Core.Codec.instance_of_json (Core.Codec.instance_to_json (inst m)) with
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
    (Core.Codec.stats_fingerprint config.stats)

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
        ] );
  ]
