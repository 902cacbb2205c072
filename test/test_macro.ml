(* Tests for the dotest.macro library: signatures, good space, evaluate. *)

let tech = Process.Tech.cmos1um

(* A toy macro: a resistor divider whose ratio shifts with the process
   sample; measurements expose the mid voltage and the supply current. *)
let toy_build (s : Process.Variation.sample) =
  let nl = Circuit.Netlist.create () in
  let vin = Circuit.Netlist.node nl "in" in
  let mid = Circuit.Netlist.node nl "mid" in
  Circuit.Netlist.add_vsource nl ~name:"VDDA" ~pos:vin ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc s.Process.Variation.vdd);
  Circuit.Netlist.add_resistor nl ~name:"R1" vin mid
    (1_000.0 *. s.Process.Variation.resistance_factor);
  Circuit.Netlist.add_resistor nl ~name:"R2" mid Circuit.Netlist.ground
    (3_000.0 *. s.Process.Variation.resistance_factor);
  nl

let toy_measure nl =
  let sol = Circuit.Engine.dc_operating_point nl in
  [
    "v:mid", Circuit.Engine.voltage sol (Circuit.Netlist.node nl "mid");
    "ivdd:supply", Circuit.Engine.source_current sol "VDDA";
  ]

let toy_classify ~golden ~faulty =
  let g = Macro.Macro_cell.get golden "v:mid" in
  let f = Macro.Macro_cell.get faulty "v:mid" in
  if Float.abs (f -. g) > 1.0 then Macro.Signature.Output_stuck_at
  else if Float.abs (f -. g) > 0.05 then Macro.Signature.Offset_too_large
  else Macro.Signature.No_voltage_deviation

let toy_macro () =
  {
    Macro.Macro_cell.name = "toy divider";
    build = toy_build;
    cell = lazy (Layout.Synthesize.synthesize (toy_build (Process.Variation.nominal tech)) ~name:"toy");
    measure = toy_measure;
    classify_voltage = toy_classify;
    instances = 1;
  }

(* ------------------------------------------------------------------ *)
(* Signature                                                           *)
(* ------------------------------------------------------------------ *)

let test_signature_prefixes () =
  let check name expect =
    Alcotest.(check bool) name true
      (Macro.Signature.current_kind_of_measurement name = expect)
  in
  check "ivdd:sample" (Some Macro.Signature.IVdd);
  check "iddq:phase1" (Some Macro.Signature.IDDQ);
  check "iin:vin:hi" (Some Macro.Signature.Iinput);
  check "v:dec:p8" None;
  check "ivd" None

let test_signature_names_unique () =
  let names = List.map Macro.Signature.voltage_name Macro.Signature.all_voltage in
  Alcotest.(check int) "distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Good_space                                                          *)
(* ------------------------------------------------------------------ *)

let compile_good ?(n = 24) ?(k = 3.0) () =
  Macro.Good_space.compile ~n ~k ~tech (toy_macro ()) (Util.Prng.create 5)

let test_good_space_contains_nominal () =
  let good = compile_good () in
  let nominal = toy_measure (toy_build (Process.Variation.nominal tech)) in
  Alcotest.(check (list string)) "nominal inside" []
    (Macro.Good_space.deviating good nominal)

let test_good_space_flags_outlier () =
  let good = compile_good () in
  Alcotest.(check bool) "far voltage flagged" true
    (List.mem "v:mid"
       (Macro.Good_space.deviating good [ "v:mid", 0.0; "ivdd:supply", 2.5e-3 ]))

let test_good_space_current_floor () =
  (* Fault-free supply current ~1.25 mA with an 8 % sigma resistor spread;
     a 0.1 uA shift must stay inside the window (the 2 uA floor). *)
  let good = compile_good () in
  match Macro.Good_space.window good "ivdd:supply" with
  | None -> Alcotest.fail "no window"
  | Some w ->
    Alcotest.(check bool) "floor honoured" true
      (w.Util.Stats.high -. w.Util.Stats.low >= 4e-6)

let test_good_space_deviating_currents () =
  let good = compile_good () in
  let kinds =
    Macro.Good_space.deviating_currents good
      [ "v:mid", 3.75; "ivdd:supply", 0.5 ]
  in
  Alcotest.(check bool) "current kind mapped" true
    (kinds = [ Macro.Signature.IVdd ])

let test_good_space_widen () =
  let good = compile_good () in
  let wide = Macro.Good_space.widen good ~name:"ivdd:supply" ~by:10.0 in
  Alcotest.(check (list string)) "everything inside now" []
    (Macro.Good_space.deviating wide [ "ivdd:supply", 5.0 ])

let test_good_space_sigma_scales () =
  let narrow = compile_good ~k:1.0 () in
  let wide = compile_good ~k:6.0 () in
  let width t =
    match Macro.Good_space.window t "v:mid" with
    | Some w -> w.Util.Stats.high -. w.Util.Stats.low
    | None -> Alcotest.fail "no window"
  in
  Alcotest.(check bool) "wider k, wider window" true (width wide > width narrow)

(* ------------------------------------------------------------------ *)
(* Evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let mech = Process.Defect_stats.Extra_material Process.Layer.Metal1

let fault_class fault =
  {
    Fault.Collapse.representative =
      { Fault.Types.fault; severity = Fault.Types.Catastrophic; mechanism = mech };
    count = 3;
  }

(* One class through [Evaluate.run], against the toy's own golden vector:
   the macro under test may swap [measure] for one that raises. One
   escalated retry unless told otherwise. *)
let evaluate_one ?(retries = 1) ~macro fc =
  let nominal = toy_build (Process.Variation.nominal tech) in
  match
    Macro.Evaluate.run ~retries ~macro ~nominal ~golden:(toy_measure nominal)
      ~good:(compile_good ()) [ fc ]
  with
  | [ o ] -> o
  | _ -> Alcotest.fail "one class in, one outcome out"

let test_evaluate_detects_hard_short () =
  let macro = toy_macro () in
  let fc =
    fault_class
      (Fault.Types.Bridge
         { net_a = "mid"; net_b = "0"; resistance = 1.0; capacitance = None;
           origin = Fault.Types.Short })
  in
  let o = evaluate_one ~macro fc in
  Alcotest.(check bool) "stuck" true
    (o.signature.Macro.Signature.voltage = Macro.Signature.Output_stuck_at);
  Alcotest.(check bool) "IVdd deviates" true
    (List.mem Macro.Signature.IVdd o.signature.Macro.Signature.currents);
  Alcotest.(check bool) "simulation fine" false
    (Macro.Evaluate.simulation_failed o);
  Alcotest.(check bool) "converged first try" true
    (o.status = Macro.Evaluate.Converged)

let test_evaluate_benign_fault () =
  let macro = toy_macro () in
  (* A 10 Mohm bridge moves nothing measurable. *)
  let fc =
    fault_class
      (Fault.Types.Bridge
         { net_a = "mid"; net_b = "0"; resistance = 1e7; capacitance = None;
           origin = Fault.Types.Short })
  in
  let o = evaluate_one ~macro fc in
  Alcotest.(check bool) "no deviation" true
    (o.signature = Macro.Signature.fault_free)

let test_evaluate_sim_failure_is_gross () =
  let macro =
    { (toy_macro ()) with
      Macro.Macro_cell.measure =
        (fun _ -> raise (Circuit.Engine.No_convergence "forced"))
    }
  in
  let fc =
    fault_class
      (Fault.Types.Bridge
         { net_a = "mid"; net_b = "0"; resistance = 1.0; capacitance = None;
           origin = Fault.Types.Short })
  in
  let o = evaluate_one ~macro fc in
  Alcotest.(check bool) "flagged" true (Macro.Evaluate.simulation_failed o);
  (match o.status with
  | Macro.Evaluate.Unresolved { attempts; error } ->
    (* one escalated retry after the first failure *)
    Alcotest.(check int) "attempts" 2 attempts;
    Alcotest.(check bool) "error recorded" true (error = "forced")
  | Macro.Evaluate.Converged | Macro.Evaluate.Recovered _ ->
    Alcotest.fail "expected Unresolved");
  Alcotest.(check bool) "stuck with all currents" true
    (o.signature.Macro.Signature.voltage = Macro.Signature.Output_stuck_at
    && o.signature.Macro.Signature.currents = Macro.Signature.all_current)

(* Eight copies of a benign class, indexes 0..7; with fraction 1.0 every
   index is injected — about half persistently (Unresolved), the rest
   only on the first attempt (Recovered on the escalated retry). *)
let injected_classes =
  List.init 8 (fun _ ->
      fault_class
        (Fault.Types.Bridge
           { net_a = "mid"; net_b = "0"; resistance = 1e7; capacitance = None;
             origin = Fault.Types.Short }))

(* [Evaluate.run] against the toy macro's nominal netlist and golden
   vector, as the pipeline hands them over. *)
let run_toy ?jobs ?(retries = 1) ?inject ?strict ~(macro : Macro.Macro_cell.t)
    ~good classes =
  let nominal = toy_build (Process.Variation.nominal tech) in
  Macro.Evaluate.run ?jobs ~retries ?inject ?strict ~macro ~nominal
    ~golden:(Macro.Evaluate.golden ~macro nominal)
    ~good classes

let test_evaluate_injection_exercises_both_paths () =
  let macro = toy_macro () in
  let good = compile_good () in
  let inject = { Macro.Evaluate.seed = 42; fraction = 1.0 } in
  let outcomes = run_toy ~inject ~macro ~good injected_classes in
  let recovered, unresolved =
    List.fold_left
      (fun (r, u) (o : Macro.Evaluate.outcome) ->
        match o.status with
        | Macro.Evaluate.Recovered { attempts } ->
          Alcotest.(check int) "recovered on retry" 2 attempts;
          r + 1, u
        | Macro.Evaluate.Unresolved { attempts; _ } ->
          Alcotest.(check int) "exhausted retries" 2 attempts;
          r, u + 1
        | Macro.Evaluate.Converged -> Alcotest.fail "injection missed a class")
      (0, 0) outcomes
  in
  Alcotest.(check bool) "both paths hit" true (recovered > 0 && unresolved > 0);
  Alcotest.(check int) "all classes accounted" 8 (recovered + unresolved)

let test_evaluate_injection_jobs_invariant () =
  let macro = toy_macro () in
  let good = compile_good () in
  let inject = { Macro.Evaluate.seed = 42; fraction = 0.5 } in
  let statuses jobs =
    List.map
      (fun (o : Macro.Evaluate.outcome) -> o.status)
      (run_toy ~jobs ~inject ~macro ~good injected_classes)
  in
  Alcotest.(check bool) "same statuses at jobs 1 and 4" true
    (statuses 1 = statuses 4)

let test_evaluate_no_retries_means_one_attempt () =
  let macro = toy_macro () in
  let good = compile_good () in
  let inject = { Macro.Evaluate.seed = 42; fraction = 1.0 } in
  let outcomes =
    run_toy ~retries:0 ~inject ~macro ~good injected_classes
  in
  List.iter
    (fun (o : Macro.Evaluate.outcome) ->
      match o.status with
      | Macro.Evaluate.Unresolved { attempts; _ } ->
        Alcotest.(check int) "single attempt" 1 attempts
      | Macro.Evaluate.Converged | Macro.Evaluate.Recovered _ ->
        Alcotest.fail "with zero retries every injected class is unresolved")
    outcomes

let test_evaluate_strict_fails_fast_with_index () =
  let macro = toy_macro () in
  let good = compile_good () in
  let inject = { Macro.Evaluate.seed = 42; fraction = 1.0 } in
  (* The reference (contained) run tells us the lowest unresolved index. *)
  let outcomes = run_toy ~inject ~macro ~good injected_classes in
  let first_unresolved =
    let rec scan i = function
      | [] -> Alcotest.fail "no unresolved class in reference run"
      | o :: rest ->
        if Macro.Evaluate.simulation_failed o then i else scan (i + 1) rest
    in
    scan 0 outcomes
  in
  let check_strict jobs =
    match run_toy ~jobs ~strict:true ~inject ~macro ~good
            injected_classes
    with
    | _ -> Alcotest.fail "strict run must raise"
    | exception
        Util.Pool.Worker_failure
          (i, Macro.Evaluate.Simulation_failed { index; attempts; _ }) ->
      Alcotest.(check int) "wrapped index" first_unresolved i;
      Alcotest.(check int) "payload index" first_unresolved index;
      Alcotest.(check int) "attempts reported" 2 attempts
  in
  check_strict 1;
  check_strict 4

let test_evaluate_fatal_exception_not_contained () =
  let calls = ref 0 in
  let macro =
    { (toy_macro ()) with
      Macro.Macro_cell.measure =
        (fun _ ->
          incr calls;
          failwith "programming error")
    }
  in
  let fc =
    fault_class
      (Fault.Types.Bridge
         { net_a = "mid"; net_b = "0"; resistance = 1.0; capacitance = None;
           origin = Fault.Types.Short })
  in
  match evaluate_one ~retries:3 ~macro fc with
  | _ -> Alcotest.fail "fatal exception must propagate"
  | exception Util.Pool.Worker_failure (0, Failure msg) ->
    Alcotest.(check string) "original exception" "programming error" msg;
    Alcotest.(check int) "never retried" 1 !calls

let test_voltage_table_sums_to_one () =
  let macro = toy_macro () in
  let good = compile_good () in
  let classes =
    [
      fault_class
        (Fault.Types.Bridge
           { net_a = "mid"; net_b = "0"; resistance = 1.0; capacitance = None;
             origin = Fault.Types.Short });
      fault_class
        (Fault.Types.Bridge
           { net_a = "in"; net_b = "mid"; resistance = 1.0; capacitance = None;
             origin = Fault.Types.Short });
    ]
  in
  let outcomes = run_toy ~macro ~good classes in
  let table = Macro.Evaluate.voltage_table outcomes in
  let sum = List.fold_left (fun acc (_, share) -> acc +. share) 0.0 table in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 sum;
  let currents, none = Macro.Evaluate.current_table outcomes in
  Alcotest.(check bool) "current shares within [0,1]" true
    (List.for_all (fun (_, share) -> share >= 0. && share <= 1.) currents
    && none >= 0. && none <= 1.)

let test_area_weight_scales_with_instances () =
  let one = toy_macro () in
  let many = { one with Macro.Macro_cell.instances = 5 } in
  Alcotest.(check (float 1e-6)) "5x weight"
    (5.0 *. Macro.Macro_cell.area_weight one)
    (Macro.Macro_cell.area_weight many)

let suites =
  [
    ( "macro.signature",
      [
        Alcotest.test_case "prefixes" `Quick test_signature_prefixes;
        Alcotest.test_case "names unique" `Quick test_signature_names_unique;
      ] );
    ( "macro.good_space",
      [
        Alcotest.test_case "contains nominal" `Quick test_good_space_contains_nominal;
        Alcotest.test_case "flags outlier" `Quick test_good_space_flags_outlier;
        Alcotest.test_case "current floor" `Quick test_good_space_current_floor;
        Alcotest.test_case "deviating currents" `Quick test_good_space_deviating_currents;
        Alcotest.test_case "widen" `Quick test_good_space_widen;
        Alcotest.test_case "sigma scales window" `Quick test_good_space_sigma_scales;
      ] );
    ( "macro.evaluate",
      [
        Alcotest.test_case "hard short detected" `Quick test_evaluate_detects_hard_short;
        Alcotest.test_case "benign fault" `Quick test_evaluate_benign_fault;
        Alcotest.test_case "sim failure is gross" `Quick test_evaluate_sim_failure_is_gross;
        Alcotest.test_case "injection: both paths" `Quick test_evaluate_injection_exercises_both_paths;
        Alcotest.test_case "injection: jobs invariant" `Quick test_evaluate_injection_jobs_invariant;
        Alcotest.test_case "zero retries" `Quick test_evaluate_no_retries_means_one_attempt;
        Alcotest.test_case "strict fails fast" `Quick test_evaluate_strict_fails_fast_with_index;
        Alcotest.test_case "fatal not contained" `Quick test_evaluate_fatal_exception_not_contained;
        Alcotest.test_case "voltage table sums" `Quick test_voltage_table_sums_to_one;
        Alcotest.test_case "area weight" `Quick test_area_weight_scales_with_instances;
      ] );
  ]
