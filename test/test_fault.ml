(* Tests for the dotest.fault library: taxonomy, collapsing, injection. *)

let mech = Process.Defect_stats.Extra_material Process.Layer.Metal1

let instance ?(severity = Fault.Types.Catastrophic) fault =
  { Fault.Types.fault; severity; mechanism = mech }

let bridge ?(r = 0.2) ?c a b =
  Fault.Types.Bridge
    { net_a = a; net_b = b; resistance = r; capacitance = c;
      origin = Fault.Types.Short }

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_canonical_key_symmetric () =
  Alcotest.(check string) "order-insensitive"
    (Fault.Types.canonical_key (bridge "a" "b"))
    (Fault.Types.canonical_key (bridge "b" "a"))

let test_canonical_key_distinguishes () =
  Alcotest.(check bool) "different nets differ" true
    (Fault.Types.canonical_key (bridge "a" "b")
    <> Fault.Types.canonical_key (bridge "a" "c"));
  Alcotest.(check bool) "resistance matters" true
    (Fault.Types.canonical_key (bridge ~r:0.2 "a" "b")
    <> Fault.Types.canonical_key (bridge ~r:500.0 "a" "b"))

let test_open_key_pin_order_insensitive () =
  let k1 =
    Fault.Types.canonical_key
      (Fault.Types.Node_split { net = "n"; far_pins = [ "M1", "d"; "M2", "g" ] })
  in
  let k2 =
    Fault.Types.canonical_key
      (Fault.Types.Node_split { net = "n"; far_pins = [ "M2", "g"; "M1", "d" ] })
  in
  Alcotest.(check string) "same class" k1 k2

let test_type_of_fault () =
  Alcotest.(check string) "bridge" "short"
    (Fault.Types.fault_type_name (Fault.Types.type_of_fault (bridge "a" "b")));
  Alcotest.(check string) "open" "open"
    (Fault.Types.fault_type_name
       (Fault.Types.type_of_fault
          (Fault.Types.Node_split { net = "n"; far_pins = [] })))

(* ------------------------------------------------------------------ *)
(* Collapse                                                            *)
(* ------------------------------------------------------------------ *)

let test_collapse_merges_equivalent () =
  let faults =
    [ instance (bridge "a" "b"); instance (bridge "b" "a"); instance (bridge "a" "c") ]
  in
  let classes = Fault.Collapse.collapse faults in
  Alcotest.(check int) "two classes" 2 (List.length classes);
  Alcotest.(check int) "total preserved" 3 (Fault.Collapse.total_count classes);
  match classes with
  | first :: _ -> Alcotest.(check int) "biggest first" 2 first.Fault.Collapse.count
  | [] -> Alcotest.fail "no classes"

let test_collapse_severity_separates () =
  let faults =
    [
      instance (bridge "a" "b");
      instance ~severity:Fault.Types.Non_catastrophic (bridge "a" "b");
    ]
  in
  Alcotest.(check int) "catastrophic and near-miss distinct" 2
    (List.length (Fault.Collapse.collapse faults))

let test_collapse_idempotent () =
  let faults = [ instance (bridge "a" "b"); instance (bridge "a" "b") ] in
  let classes = Fault.Collapse.collapse faults in
  let again =
    Fault.Collapse.collapse
      (List.concat_map
         (fun (c : Fault.Collapse.fault_class) ->
           List.init c.count (fun _ -> c.representative))
         classes)
  in
  Alcotest.(check int) "same classes" (List.length classes) (List.length again);
  Alcotest.(check int) "same total"
    (Fault.Collapse.total_count classes)
    (Fault.Collapse.total_count again)

let test_by_type_shares_sum_to_one () =
  let faults =
    [
      instance (bridge "a" "b");
      instance (bridge "a" "c");
      instance (Fault.Types.Node_split { net = "n"; far_pins = [ "M1", "d" ] });
    ]
  in
  let tab = Fault.Collapse.by_type (Fault.Collapse.collapse faults) in
  let fault_sum = List.fold_left (fun acc (_, fs, _) -> acc +. fs) 0. tab in
  let class_sum = List.fold_left (fun acc (_, _, cs) -> acc +. cs) 0. tab in
  Alcotest.(check (float 1e-9)) "fault shares" 1.0 fault_sum;
  Alcotest.(check (float 1e-9)) "class shares" 1.0 class_sum

let test_derive_non_catastrophic () =
  let tech = Process.Tech.cmos1um in
  let classes =
    Fault.Collapse.collapse
      [
        instance (bridge ~r:0.2 "a" "b");
        instance (bridge ~r:50.0 "a" "b");  (* poly short, same nets *)
        instance (Fault.Types.Node_split { net = "n"; far_pins = [ "M1", "d" ] });
      ]
  in
  let derived = Fault.Collapse.derive_non_catastrophic ~tech classes in
  (* Two catastrophic short classes collapse onto one 500-ohm near-miss;
     the open yields nothing. *)
  Alcotest.(check int) "one near-miss class" 1 (List.length derived);
  match derived with
  | [ c ] ->
    Alcotest.(check int) "magnitude preserved" 2 c.Fault.Collapse.count;
    (match c.representative.Fault.Types.fault with
    | Fault.Types.Bridge { resistance; capacitance; _ } ->
      Alcotest.(check (float 1e-9)) "500 ohm" 500.0 resistance;
      Alcotest.(check bool) "has 1 fF" true (capacitance = Some 1e-15)
    | _ -> Alcotest.fail "expected a bridge");
    Alcotest.(check bool) "non-catastrophic" true
      (c.representative.Fault.Types.severity = Fault.Types.Non_catastrophic)
  | _ -> Alcotest.fail "expected exactly one class"

(* ------------------------------------------------------------------ *)
(* Inject                                                              *)
(* ------------------------------------------------------------------ *)

let divider () =
  let nl = Circuit.Netlist.create () in
  let vin = Circuit.Netlist.node nl "in" in
  let mid = Circuit.Netlist.node nl "mid" in
  Circuit.Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc 10.0);
  Circuit.Netlist.add_resistor nl ~name:"R1" vin mid 1_000.0;
  Circuit.Netlist.add_resistor nl ~name:"R2" mid Circuit.Netlist.ground 3_000.0;
  nl

let v_mid nl =
  let sol = Circuit.Engine.dc_operating_point nl in
  Circuit.Engine.voltage sol (Circuit.Netlist.node nl "mid")

let test_inject_bridge_changes_output () =
  let nl = divider () in
  let faulty = Fault.Inject.inject nl (bridge ~r:1.0 "mid" "0") in
  Alcotest.(check bool) "golden untouched" true
    (Float.abs (v_mid nl -. 7.5) < 1e-6);
  Alcotest.(check bool) "output pulled down" true (v_mid faulty < 0.1)

let test_inject_bridge_with_cap () =
  let nl = divider () in
  let faulty =
    Fault.Inject.inject nl (bridge ~r:500.0 ~c:1e-15 "mid" "0")
  in
  Alcotest.(check bool) "cap added" true
    (Circuit.Netlist.has_device faulty "FLT_Cbridge");
  Alcotest.(check bool) "near-miss sags output" true (v_mid faulty < 7.5)

let test_inject_open_floats_pins () =
  let nl = divider () in
  let faulty =
    Fault.Inject.inject nl
      (Fault.Types.Node_split { net = "mid"; far_pins = [ "R2", "+" ] })
  in
  (* R2 is cut away from mid: the divider becomes unloaded. *)
  Alcotest.(check (float 1e-3)) "unloaded divider" 10.0 (v_mid faulty)

let test_inject_open_ignores_foreign_pins () =
  let nl = divider () in
  let faulty =
    Fault.Inject.inject nl
      (Fault.Types.Node_split { net = "mid"; far_pins = [ "NOPE", "x" ] })
  in
  Alcotest.(check (float 1e-6)) "no effect" 7.5 (v_mid faulty)

let test_inject_unknown_net_rejected () =
  let nl = divider () in
  Alcotest.check_raises "unknown net"
    (Invalid_argument "Fault.Inject: unknown net \"ghost\"") (fun () ->
      ignore (Fault.Inject.inject nl (bridge "ghost" "mid")))

let mos_netlist () =
  let nl = Circuit.Netlist.create () in
  let vdd = Circuit.Netlist.node nl "vdd" in
  let out = Circuit.Netlist.node nl "out" in
  let vin = Circuit.Netlist.node nl "in" in
  Circuit.Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc 5.0);
  Circuit.Netlist.add_vsource nl ~name:"VIN" ~pos:vin ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc 0.0);
  Circuit.Netlist.add_resistor nl ~name:"RL" vdd out 10_000.0;
  Circuit.Netlist.add_mosfet nl ~name:"M1" ~drain:out ~gate:vin
    ~source:Circuit.Netlist.ground ~bulk:Circuit.Netlist.ground
    {
      Circuit.Netlist.polarity = Circuit.Mos_model.Nmos;
      params = Circuit.Mos_model.default_nmos;
      w = 10e-6;
      l = 1e-6;
    };
  nl

let v_out nl =
  let sol = Circuit.Engine.dc_operating_point nl in
  Circuit.Engine.voltage sol (Circuit.Netlist.node nl "out")

let test_inject_device_short () =
  let nl = mos_netlist () in
  (* Gate low: output should be high; a D-S short pulls it down. *)
  Alcotest.(check bool) "fault-free high" true (v_out nl > 4.9);
  let faulty =
    Fault.Inject.inject nl
      (Fault.Types.Device_ds_short { device = "M1"; resistance = 100.0 })
  in
  Alcotest.(check bool) "shorted low" true (v_out faulty < 0.1)

let test_inject_gate_pinhole_sites () =
  let nl = mos_netlist () in
  let inject site =
    Fault.Inject.inject nl
      (Fault.Types.Gate_pinhole { device = "M1"; site; resistance = 2_000.0 })
  in
  (* A gate-drain leak pulls the gate up, turning the device on. *)
  Alcotest.(check bool) "to-drain turns on" true (v_out (inject Fault.Types.To_drain) < 4.0);
  (* To-channel splits into two 2R paths — both legs must exist. *)
  let chan = inject Fault.Types.To_channel in
  Alcotest.(check bool) "two channel legs" true
    (Circuit.Netlist.has_device chan "FLT_Rgox_s"
    && Circuit.Netlist.has_device chan "FLT_Rgox_d")

let test_inject_parasitic_mos () =
  let nl = mos_netlist () in
  let faulty =
    Fault.Inject.inject nl
      (Fault.Types.Parasitic_mos { gate_net = "vdd"; net_a = "out"; net_b = "0" })
  in
  (* A parasitic NMOS gated by vdd conducts: output sags. *)
  Alcotest.(check bool) "parasitic conducts" true (v_out faulty < 4.0)

let test_inject_junction_leak () =
  let nl = mos_netlist () in
  let faulty =
    Fault.Inject.inject nl
      (Fault.Types.Junction_leak { net = "out"; bulk_net = "0"; resistance = 2_000.0 })
  in
  Alcotest.(check bool) "leak pulls down" true (v_out faulty < 2.0)

(* ------------------------------------------------------------------ *)
(* Defect simulator                                                    *)
(* ------------------------------------------------------------------ *)

let synth_cell () =
  let nl = mos_netlist () in
  let cell = Layout.Synthesize.synthesize nl ~name:"defect_target" in
  nl, cell

let test_defect_run_deterministic () =
  let nl, cell = synth_cell () in
  let run seed =
    Defect.Simulate.run ~tech:Process.Tech.cmos1um
      ~stats:Process.Defect_stats.default ~cell ~netlist:nl
      (Util.Prng.create seed) ~n:5_000
  in
  let r1 = run 7 and r2 = run 7 in
  Alcotest.(check int) "same effective" r1.Defect.Simulate.effective
    r2.Defect.Simulate.effective;
  Alcotest.(check int) "same instances"
    (List.length r1.Defect.Simulate.instances)
    (List.length r2.Defect.Simulate.instances)

let test_defect_shorts_dominate () =
  let nl, cell = synth_cell () in
  let r =
    Defect.Simulate.run ~tech:Process.Tech.cmos1um
      ~stats:Process.Defect_stats.default ~cell ~netlist:nl
      (Util.Prng.create 11) ~n:50_000
  in
  let classes = Fault.Collapse.collapse r.Defect.Simulate.instances in
  match Fault.Collapse.by_type classes with
  | (ft, share, _) :: _ ->
    Alcotest.(check string) "shorts on top" "short" (Fault.Types.fault_type_name ft);
    Alcotest.(check bool) "dominant" true (share > 0.8)
  | [] -> Alcotest.fail "no faults"

let test_defect_faults_are_injectable () =
  (* Every fault the simulator produces must inject cleanly into the
     netlist it was derived from — the pipeline contract. *)
  let nl, cell = synth_cell () in
  let r =
    Defect.Simulate.run ~tech:Process.Tech.cmos1um
      ~stats:Process.Defect_stats.default ~cell ~netlist:nl
      (Util.Prng.create 13) ~n:20_000
  in
  List.iter
    (fun (i : Fault.Types.instance) -> ignore (Fault.Inject.inject_instance nl i))
    r.Defect.Simulate.instances;
  Alcotest.(check bool) "found some faults" true
    (List.length r.Defect.Simulate.instances > 0)

let test_defect_analyze_miss_is_benign () =
  let nl, cell = synth_cell () in
  let extraction = Layout.Extract.extract cell in
  (* A tiny defect in empty space produces nothing. *)
  let far_corner =
    Geometry.Circle.create ~cx:(-100_000) ~cy:(-100_000) ~radius:200.0
  in
  Alcotest.(check int) "benign" 0
    (List.length
       (Defect.Simulate.analyze ~tech:Process.Tech.cmos1um ~cell ~netlist:nl
          ~extraction (Process.Defect_stats.Extra_material Process.Layer.Metal1)
          far_corner))

let test_defect_directed_short () =
  (* Place an extra-metal defect squarely across two routing tracks and
     check it reports a short between their nets. *)
  let nl, cell = synth_cell () in
  let extraction = Layout.Extract.extract cell in
  (* Find segments of two vertically adjacent metal1 tracks near x = the
     first segment's centre. *)
  let segments =
    Array.to_list (Layout.Cell.shapes cell)
    |> List.filter_map (fun (s : Layout.Cell.shape) ->
           match s.owner with
           | Layout.Cell.Wire net
             when Process.Layer.equal s.layer Process.Layer.Metal1
                  && Geometry.Rect.width s.rect > 10_000 ->
             Some (s.rect, net)
           | _ -> None)
  in
  let tracks =
    segments
    |> List.filter (fun (r, _) -> fst (Geometry.Rect.center r) < 15_000)
    |> List.sort (fun (r1, _) (r2, _) ->
           compare (snd (Geometry.Rect.center r1)) (snd (Geometry.Rect.center r2)))
  in
  match tracks with
  | (r1, n1) :: (r2, n2) :: _ ->
    let cx = fst (Geometry.Rect.center r1) in
    let cy = (snd (Geometry.Rect.center r1) + snd (Geometry.Rect.center r2)) / 2 in
    let gap = Geometry.Rect.separation r1 r2 in
    let circle = Geometry.Circle.create ~cx ~cy ~radius:(gap +. 2_000.) in
    let faults =
      Defect.Simulate.analyze ~tech:Process.Tech.cmos1um ~cell ~netlist:nl
        ~extraction (Process.Defect_stats.Extra_material Process.Layer.Metal1)
        circle
    in
    let is_short (i : Fault.Types.instance) =
      match i.fault with
      | Fault.Types.Bridge { net_a; net_b; _ } ->
        (net_a = n1 && net_b = n2) || (net_a = n2 && net_b = n1)
      | Fault.Types.Bridge_cluster { nets; _ } ->
        List.mem n1 nets && List.mem n2 nets
      | _ -> false
    in
    Alcotest.(check bool) "reports the short" true (List.exists is_short faults)
  | _ -> Alcotest.fail "expected two tracks"

let test_defect_directed_open () =
  (* Sever the "out" track between its two pins (RL.- and M1.d): a
     missing-metal hole wider than the track must report an open that
     disconnects one of the pins. *)
  let nl, cell = synth_cell () in
  let extraction = Layout.Extract.extract cell in
  let shapes = Array.to_list (Layout.Cell.shapes cell) in
  (* Riser x positions of the "out" net (tall metal2 strips). *)
  let riser_xs =
    List.filter_map
      (fun (s : Layout.Cell.shape) ->
        match s.owner with
        | Layout.Cell.Wire "out"
          when Process.Layer.equal s.layer Process.Layer.Metal2 ->
          Some (fst (Geometry.Rect.center s.rect))
        | _ -> None)
      shapes
    |> List.sort compare
  in
  match riser_xs with
  | x1 :: rest when rest <> [] ->
    let x2 = List.nth rest (List.length rest - 1) in
    let cut_x = (x1 + x2) / 2 in
    (* The "out" track segment at that x. *)
    let segment =
      List.find_map
        (fun (s : Layout.Cell.shape) ->
          match s.owner with
          | Layout.Cell.Wire "out"
            when Process.Layer.equal s.layer Process.Layer.Metal1
                 && Geometry.Rect.width s.rect > Geometry.Rect.height s.rect
                 && Geometry.Rect.contains s.rect (cut_x, snd (Geometry.Rect.center s.rect)) ->
            Some s.rect
          | _ -> None)
        shapes
    in
    (match segment with
    | None -> Alcotest.fail "no out-track segment at the cut point"
    | Some rect ->
      let cy = snd (Geometry.Rect.center rect) in
      let radius = float_of_int (Geometry.Rect.height rect) +. 1_000. in
      let circle = Geometry.Circle.create ~cx:cut_x ~cy ~radius in
      let faults =
        Defect.Simulate.analyze ~tech:Process.Tech.cmos1um ~cell ~netlist:nl
          ~extraction
          (Process.Defect_stats.Missing_material Process.Layer.Metal1) circle
      in
      let is_open (i : Fault.Types.instance) =
        match i.fault with
        | Fault.Types.Node_split { net = "out"; far_pins } -> far_pins <> []
        | _ -> false
      in
      Alcotest.(check bool) "reports the open" true (List.exists is_open faults))
  | _ -> Alcotest.fail "expected two out risers"

let test_defect_open_anchor_tie () =
  (* A labelled wire with a pin at each end, cut in the middle into two
     halves of equal wire area: neither side outweighs the other, so the
     side holding the lowest shape id stays the net and the far pin is
     the one on the higher-id side. *)
  let metal1 = Process.Layer.Metal1 in
  let b = Layout.Cell.builder "tie" in
  let add x w owner =
    ignore
      (Layout.Cell.add_shape b ~layer:metal1
         ~rect:(Geometry.Rect.of_size ~x ~y:0 ~w ~h:10) ~owner)
  in
  add 0 10 (Layout.Cell.Device_terminal { device = "R1"; terminal = "p" });
  add 10 100 (Layout.Cell.Wire "n");
  add 110 20 (Layout.Cell.Wire "n");
  add 130 100 (Layout.Cell.Wire "n");
  add 230 10 (Layout.Cell.Device_terminal { device = "R2"; terminal = "p" });
  let cell = Layout.Cell.finish b in
  let faults =
    Defect.Simulate.analyze ~tech:Process.Tech.cmos1um ~cell
      ~netlist:(Circuit.Netlist.create ())
      ~extraction:(Layout.Extract.extract cell)
      (Process.Defect_stats.Missing_material metal1)
      (Geometry.Circle.create ~cx:120 ~cy:5 ~radius:9.0)
  in
  let splits =
    List.filter_map
      (fun (i : Fault.Types.instance) ->
        match i.fault with
        | Fault.Types.Node_split { net; far_pins } -> Some (net, far_pins)
        | _ -> None)
      faults
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "far pin on the higher-id side" [ "n", [ "R2", "p" ] ] splits

let test_defect_vertical_bridge_once () =
  (* An extra contact over three shapes whose hits, in shape-id order,
     meet net "b", then "a", then "b" again: both metal1 "b" shapes cross
     the metal2 "a" strip. The spot bridges one net pair, so it must
     report one bridge, in the orientation the pair first appears in. *)
  let b = Layout.Cell.builder "bab" in
  let add layer x y w h net =
    ignore
      (Layout.Cell.add_shape b ~layer
         ~rect:(Geometry.Rect.of_size ~x ~y ~w ~h)
         ~owner:(Layout.Cell.Wire net))
  in
  add Process.Layer.Metal1 0 5 100 10 "b";
  add Process.Layer.Metal2 40 0 20 40 "a";
  add Process.Layer.Metal1 0 10 100 20 "b";
  let cell = Layout.Cell.finish b in
  let faults =
    Defect.Simulate.analyze ~tech:Process.Tech.cmos1um ~cell
      ~netlist:(Circuit.Netlist.create ())
      ~extraction:(Layout.Extract.extract cell)
      Process.Defect_stats.Extra_contact
      (Geometry.Circle.create ~cx:50 ~cy:15 ~radius:10.0)
  in
  let bridges =
    List.filter_map
      (fun (i : Fault.Types.instance) ->
        match i.fault with
        | Fault.Types.Bridge { net_a; net_b; _ } -> Some (net_a, net_b)
        | _ -> None)
      faults
  in
  Alcotest.(check (list (pair string string)))
    "one bridge per net pair" [ "b", "a" ] bridges

(* ------------------------------------------------------------------ *)
(* Shared-nominal warm start                                           *)
(* ------------------------------------------------------------------ *)

(* The scaled-3b analog core: 11 unknowns with every net (vrl, tap1..7,
   vrh) and device (RSEG0..7, MRD1..7) name known, so faults can aim at
   real structure. *)
let scaled_nominal () =
  Adc.Scaled.bench_netlist ~bits:3
    (Process.Variation.nominal Process.Tech.cmos1um)

(* Regression for the shared-nominal miss path: faults that are not a
   pure R/C addition (an open's node split, a parasitic transistor) must
   start cold — counted as misses, never warm-started. *)
let test_shared_nominal_inexpressible_fresh () =
  let memory = Util.Telemetry.in_memory () in
  (* Counter deltas are buffered per domain and flushed when [with_sink]
     restores — snapshot the aggregate only after it returns. *)
  (Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) @@ fun () ->
   Circuit.Engine.with_solver Circuit.Engine.Auto @@ fun () ->
   let sn =
     Circuit.Engine.shared_nominal ~strip:Fault.Inject.is_fault_device ()
   in
   Circuit.Engine.with_shared_nominal sn @@ fun () ->
   let nominal = scaled_nominal () in
   let solve fault =
     ignore
       (Circuit.Engine.dc_operating_point (Fault.Inject.inject nominal fault))
   in
   solve (bridge ~r:500.0 "tap2" "tap5");
   solve
     (Fault.Types.Parasitic_mos
        { gate_net = "tap3"; net_a = "tap1"; net_b = "tap2" });
   solve (Fault.Types.Node_split { net = "tap2"; far_pins = [ "RSEG2", "+" ] }));
  let counters = (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters in
  let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
  Alcotest.(check int) "bridge warm-starts from the shared nominal" 1
    (counter "engine.shared_nominal_hits");
  Alcotest.(check int) "open and parasitic mos start cold" 2
    (counter "engine.shared_nominal_misses")

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  let net_gen = Gen.oneofl [ "a"; "b"; "c"; "d" ] in
  let arb_bridge =
    QCheck.make
      Gen.(
        let* na = net_gen in
        let* nb = net_gen in
        let* r = float_range 0.1 1000.0 in
        return (na, nb, r))
  in
  [
    Test.make ~name:"collapse: total count is preserved"
      (list_of_size (Gen.int_range 0 100) arb_bridge)
      (fun bridges ->
        let faults =
          List.filter_map
            (fun (a, b, r) -> if a = b then None else Some (instance (bridge ~r a b)))
            bridges
        in
        Fault.Collapse.total_count (Fault.Collapse.collapse faults)
        = List.length faults);
    Test.make ~name:"collapse: classes have distinct keys"
      (list_of_size (Gen.int_range 0 100) arb_bridge)
      (fun bridges ->
        let faults =
          List.filter_map
            (fun (a, b, r) -> if a = b then None else Some (instance (bridge ~r a b)))
            bridges
        in
        let classes = Fault.Collapse.collapse faults in
        let keys =
          List.map
            (fun (c : Fault.Collapse.fault_class) ->
              Fault.Types.canonical_key c.representative.Fault.Types.fault)
            classes
        in
        List.length keys = List.length (List.sort_uniq compare keys));
  ]

let suites =
  [
    ( "fault.types",
      [
        Alcotest.test_case "key symmetric" `Quick test_canonical_key_symmetric;
        Alcotest.test_case "key distinguishes" `Quick test_canonical_key_distinguishes;
        Alcotest.test_case "open key pin order" `Quick test_open_key_pin_order_insensitive;
        Alcotest.test_case "type of fault" `Quick test_type_of_fault;
      ] );
    ( "fault.collapse",
      [
        Alcotest.test_case "merges equivalent" `Quick test_collapse_merges_equivalent;
        Alcotest.test_case "severity separates" `Quick test_collapse_severity_separates;
        Alcotest.test_case "idempotent" `Quick test_collapse_idempotent;
        Alcotest.test_case "shares sum to 1" `Quick test_by_type_shares_sum_to_one;
        Alcotest.test_case "derive non-catastrophic" `Quick test_derive_non_catastrophic;
      ] );
    ( "fault.inject",
      [
        Alcotest.test_case "bridge" `Quick test_inject_bridge_changes_output;
        Alcotest.test_case "bridge with cap" `Quick test_inject_bridge_with_cap;
        Alcotest.test_case "open floats pins" `Quick test_inject_open_floats_pins;
        Alcotest.test_case "open ignores foreign pins" `Quick test_inject_open_ignores_foreign_pins;
        Alcotest.test_case "unknown net rejected" `Quick test_inject_unknown_net_rejected;
        Alcotest.test_case "device short" `Quick test_inject_device_short;
        Alcotest.test_case "gate pinhole sites" `Quick test_inject_gate_pinhole_sites;
        Alcotest.test_case "parasitic mos" `Quick test_inject_parasitic_mos;
        Alcotest.test_case "junction leak" `Quick test_inject_junction_leak;
      ] );
    ( "defect.simulate",
      [
        Alcotest.test_case "deterministic" `Quick test_defect_run_deterministic;
        Alcotest.test_case "shorts dominate" `Quick test_defect_shorts_dominate;
        Alcotest.test_case "faults injectable" `Quick test_defect_faults_are_injectable;
        Alcotest.test_case "miss is benign" `Quick test_defect_analyze_miss_is_benign;
        Alcotest.test_case "directed short" `Quick test_defect_directed_short;
        Alcotest.test_case "directed open" `Quick test_defect_directed_open;
        Alcotest.test_case "open anchor tie" `Quick test_defect_open_anchor_tie;
        Alcotest.test_case "vertical bridge once per pair" `Quick
          test_defect_vertical_bridge_once;
      ] );
    ( "fault.shared_nominal",
      [
        Alcotest.test_case "inexpressible faults get fresh factors" `Quick
          test_shared_nominal_inexpressible_fresh;
      ] );
    "fault.properties", List.map QCheck_alcotest.to_alcotest qcheck_props;
  ]
