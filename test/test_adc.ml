(* Tests for the dotest.adc case-study library. *)

let nominal = Process.Variation.nominal Process.Tech.cmos1um

let get = Macro.Macro_cell.get

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_consistency () =
  Alcotest.(check int) "levels" 256 Adc.Params.levels;
  Alcotest.(check (float 1e-9)) "lsb" ((3.0 -. 1.0) /. 256.0) Adc.Params.lsb;
  Alcotest.(check bool) "offset limit about one lsb" true
    (Adc.Params.offset_limit > Adc.Params.lsb *. 0.9);
  Alcotest.(check bool) "measure times inside second cycle" true
    (Adc.Params.mid_sample > Adc.Params.period
    && Adc.Params.decision_time < 2.0 *. Adc.Params.period)

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_phases_complementary () =
  let t_mid i = (float_of_int (i - 1) +. 0.5) *. Adc.Params.phase in
  List.iter
    (fun i ->
      let raw = Circuit.Waveform.value (Adc.Clocks.raw_phase i) (t_mid i) in
      let direct = Circuit.Waveform.value (Adc.Clocks.direct_phase i) (t_mid i) in
      Alcotest.(check (float 1e-9)) "raw low in own phase" 0.0 raw;
      Alcotest.(check (float 1e-9)) "direct high in own phase" 5.0 direct;
      let other = t_mid (1 + (i mod 3)) in
      Alcotest.(check (float 1e-9)) "raw high elsewhere" 5.0
        (Circuit.Waveform.value (Adc.Clocks.raw_phase i) other))
    [ 1; 2; 3 ]

let test_clock_phases_periodic () =
  let w = Adc.Clocks.raw_phase 2 in
  let t = 1.5 *. Adc.Params.phase in
  Alcotest.(check (float 1e-9)) "periodic"
    (Circuit.Waveform.value w t)
    (Circuit.Waveform.value w (t +. Adc.Params.period))

(* ------------------------------------------------------------------ *)
(* Comparator                                                          *)
(* ------------------------------------------------------------------ *)

let comparator_golden =
  lazy
    (let macro = Adc.Comparator.macro Adc.Comparator.default_options in
     macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal))

let test_comparator_decisions () =
  let v = Lazy.force comparator_golden in
  Alcotest.(check (float 0.0)) "p8" 1.0 (get v "v:dec:p8");
  Alcotest.(check (float 0.0)) "m8" (-1.0) (get v "v:dec:m8");
  Alcotest.(check (float 0.0)) "p300" 1.0 (get v "v:dec:p300");
  Alcotest.(check (float 0.0)) "m300" (-1.0) (get v "v:dec:m300")

let test_comparator_phase_currents () =
  let v = Lazy.force comparator_golden in
  (* Sampling: only the (clk1-gated) flipflop leak flows; amplification
     draws the tail current instead; latching adds the latch tail. *)
  let sample = get v "ivdd:sample:hi" in
  let amp = get v "ivdd:amp:hi" in
  let latch = get v "ivdd:latch:hi" in
  Alcotest.(check bool) "sample leak-only" true (sample > 1e-6 && sample < 1e-3);
  Alcotest.(check bool) "amp draws tail" true (amp > 50e-6);
  Alcotest.(check bool) "latch adds more" true (latch > amp +. 20e-6)

let test_comparator_iddq_negligible () =
  let v = Lazy.force comparator_golden in
  Alcotest.(check bool) "digital quiescent ~0" true
    (Float.abs (get v "iddq:sample:hi") < 1e-6)

let test_comparator_dft_removes_leak () =
  let macro = Adc.Comparator.macro Adc.Comparator.dft_options in
  let v = macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal) in
  Alcotest.(check bool) "sampling current collapses" true
    (Float.abs (get v "ivdd:sample:hi") < 1e-6);
  Alcotest.(check (float 0.0)) "still decides" 1.0 (get v "v:dec:p300")

let test_comparator_engine_decisions_pinned () =
  (* The reuse policy's decisions on the nominal comparator bench, as
     the engine's counters total them: which iterations bypass the
     factorization, take a rank-1 update or re-factor. Tables would hide
     a changed decision that leaves every signature inside its window,
     so the counts are pinned exactly; a change that moves one on
     purpose must say so and re-pin them. *)
  let macro = Adc.Comparator.macro Adc.Comparator.default_options in
  let memory = Util.Telemetry.in_memory () in
  Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) (fun () ->
      ignore (macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal));
      Util.Telemetry.flush_local ());
  let counters =
    (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters
  in
  let counter name =
    match List.assoc_opt name counters with Some n -> n | None -> 0
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (counter name))
    [
      "newton_iterations", 4065;
      "engine.solves", 2404;
      "engine.factorizations", 885;
      "engine.rank1_solves", 855;
      "engine.jacobian_bypass", 2325;
      "engine.rank1_fallbacks", 0;
    ]

let track_rows cell =
  Array.to_list (Layout.Cell.shapes cell)
  |> List.filter_map (fun (s : Layout.Cell.shape) ->
         match s.owner with
         | Layout.Cell.Wire net
           when Process.Layer.equal s.layer Process.Layer.Metal1
                && Geometry.Rect.width s.rect > Geometry.Rect.height s.rect * 3 ->
           Some (snd (Geometry.Rect.center s.rect), net)
         | _ -> None)
  |> List.sort_uniq compare

let test_comparator_dft_separates_bias_tracks () =
  let adjacent options =
    let cell = Adc.Comparator.layout options in
    let rows = track_rows cell in
    let rec scan = function
      | (_, a) :: ((_, b) :: _ as rest) ->
        if (a = "biasn" && b = "biaslt") || (a = "biaslt" && b = "biasn") then
          true
        else scan rest
      | [ _ ] | [] -> false
    in
    scan rows
  in
  Alcotest.(check bool) "original adjacent" true
    (adjacent Adc.Comparator.default_options);
  Alcotest.(check bool) "DfT separated" false
    (adjacent Adc.Comparator.dft_options)

let test_comparator_layout_lvs () =
  let options = Adc.Comparator.default_options in
  let cell = Adc.Comparator.layout options in
  let ex = Layout.Extract.extract cell in
  Alcotest.(check (list string)) "clean" []
    (Layout.Extract.check_against ex (Adc.Comparator.layout_netlist options))

(* ------------------------------------------------------------------ *)
(* Other macros: LVS + golden behaviour                                *)
(* ------------------------------------------------------------------ *)

let test_all_macro_layouts_pass_lvs () =
  let cases =
    [
      "ladder", Adc.Ladder.layout_netlist ();
      "bias_gen", Adc.Bias_gen.layout_netlist ();
      "clock_gen", Adc.Clock_gen.layout_netlist ();
      "decoder", Adc.Decoder.layout_netlist ();
    ]
  in
  List.iter
    (fun (name, netlist) ->
      let macro =
        match name with
        | "ladder" -> Adc.Ladder.macro ()
        | "bias_gen" -> Adc.Bias_gen.macro ()
        | "clock_gen" -> Adc.Clock_gen.macro ()
        | _ -> Adc.Decoder.macro ()
      in
      let cell = Lazy.force macro.Macro.Macro_cell.cell in
      let ex = Layout.Extract.extract cell in
      Alcotest.(check (list string)) (name ^ " LVS") []
        (Layout.Extract.check_against ex netlist))
    cases

let test_all_macro_layouts_drc_clean () =
  List.iter
    (fun (macro : Macro.Macro_cell.t) ->
      let cell = Lazy.force macro.Macro.Macro_cell.cell in
      let violations = Layout.Drc.check cell in
      Alcotest.(check int)
        (macro.Macro.Macro_cell.name ^ " DRC clean")
        0 (List.length violations))
    [
      Adc.Comparator.macro Adc.Comparator.default_options;
      Adc.Comparator.macro Adc.Comparator.dft_options;
      Adc.Ladder.macro ();
      Adc.Bias_gen.macro ();
      Adc.Clock_gen.macro ();
      Adc.Decoder.macro ();
    ]

let test_ladder_taps_linear () =
  let macro = Adc.Ladder.macro () in
  let v = macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal) in
  Alcotest.(check (float 1e-6)) "tap16 middle" 2.0 (get v "v:tap16");
  Alcotest.(check (float 1e-6)) "tap8 quarter" 1.5 (get v "v:tap8");
  Alcotest.(check (float 1e-6)) "strings agree" (get v "v:tap24") (get v "v:ftap24")

let test_ladder_current_balance () =
  let macro = Adc.Ladder.macro () in
  let v = macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal) in
  Alcotest.(check (float 1e-9)) "in = out" (get v "iin:vrh") (-.get v "iin:vrl");
  Alcotest.(check bool) "about 1 mA" true
    (Float.abs (get v "iin:vrh" -. 1e-3) < 1e-4)

let test_ladder_serpentine_placement () =
  (* Folded placement: the second drawn resistor is electrically half the
     string away from the first. *)
  let nl = Adc.Ladder.layout_netlist () in
  match Circuit.Netlist.device_names nl with
  | first :: second :: _ ->
    Alcotest.(check string) "first segment" "Rtap0" first;
    Alcotest.(check string) "fold partner next" "Rtap16" second
  | _ -> Alcotest.fail "no devices"

let test_bias_gen_levels () =
  let macro = Adc.Bias_gen.macro () in
  let v = macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal) in
  Alcotest.(check bool) "biasn ~1.5" true (Float.abs (get v "v:biasn" -. 1.5) < 0.05);
  Alcotest.(check bool) "biaslt just above" true
    (get v "v:biaslt" -. get v "v:biasn" > 0.02
    && get v "v:biaslt" -. get v "v:biasn" < 0.09);
  Alcotest.(check (float 1e-6)) "biasff divider" 0.84 (get v "v:biasff")

let test_clock_gen_toggles () =
  let macro = Adc.Clock_gen.macro () in
  let v = macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal) in
  List.iter
    (fun i ->
      Alcotest.(check bool) "rail to rail" true
        (get v (Printf.sprintf "v:clk%d:hi" i) > 4.5
        && get v (Printf.sprintf "v:clk%d:lo" i) < 0.5))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "IDDQ ~0" true (Float.abs (get v "iddq:phase1") < 1e-6)

let test_decoder_codes () =
  let macro = Adc.Decoder.macro () in
  let v = macro.Macro.Macro_cell.measure (macro.Macro.Macro_cell.build nominal) in
  List.iter
    (fun k ->
      let bit b = if get v (Printf.sprintf "v:b%d:%d" b k) > 2.5 then 1 else 0 in
      let code = bit 0 lor (bit 1 lsl 1) lor (bit 2 lsl 2) in
      Alcotest.(check int) (Printf.sprintf "code %d" k) (Adc.Decoder.expected_code k) code)
    (List.init 8 Fun.id)

(* ------------------------------------------------------------------ *)
(* Flash_adc behavioural model                                         *)
(* ------------------------------------------------------------------ *)

let prng () = Util.Prng.create 21

let test_flash_ideal_monotone () =
  let p = prng () in
  let codes =
    List.map
      (fun i ->
        Adc.Flash_adc.convert Adc.Flash_adc.ideal p
          (1.0 +. (float_of_int i *. 0.01)))
      (List.init 200 Fun.id)
  in
  let monotone =
    List.for_all2 (fun a b -> b >= a)
      (List.filteri (fun i _ -> i < 199) codes)
      (List.tl codes)
  in
  Alcotest.(check bool) "monotone" true monotone;
  Alcotest.(check int) "bottom" 0 (Adc.Flash_adc.convert Adc.Flash_adc.ideal p 0.5);
  Alcotest.(check int) "top" 255 (Adc.Flash_adc.convert Adc.Flash_adc.ideal p 3.5)

let test_flash_ideal_no_missing_codes () =
  Alcotest.(check (list int)) "none" []
    (Adc.Flash_adc.missing_codes Adc.Flash_adc.ideal (prng ()) ~samples:2000)

let test_flash_offset_loses_one_code () =
  let adc =
    Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
      (Adc.Flash_adc.Functional (1.5 *. Adc.Params.lsb))
  in
  Alcotest.(check (list int)) "code 101" [ 101 ]
    (Adc.Flash_adc.missing_codes adc (prng ()) ~samples:4000)

let test_flash_small_offset_harmless () =
  let adc =
    Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100
      (Adc.Flash_adc.Functional (0.4 *. Adc.Params.lsb))
  in
  Alcotest.(check (list int)) "none" []
    (Adc.Flash_adc.missing_codes adc (prng ()) ~samples:4000)

let test_flash_stuck_masks_codes () =
  let adc =
    Adc.Flash_adc.with_comparator Adc.Flash_adc.ideal 100 Adc.Flash_adc.Stuck_high
  in
  let missing = Adc.Flash_adc.missing_codes adc (prng ()) ~samples:4000 in
  Alcotest.(check bool) "codes below masked" true (List.mem 50 missing);
  Alcotest.(check bool) "codes above fine" true (not (List.mem 200 missing))

let test_flash_reference_shift () =
  let adc =
    Adc.Flash_adc.with_reference_shift Adc.Flash_adc.ideal ~from_tap:128
      ~shift:(2.0 *. Adc.Params.lsb)
  in
  let missing = Adc.Flash_adc.missing_codes adc (prng ()) ~samples:4000 in
  Alcotest.(check bool) "ladder fault loses codes" true (missing <> [])

let test_flash_reference_spacing () =
  Alcotest.(check (float 1e-12)) "lsb spacing" Adc.Params.lsb
    (Adc.Flash_adc.reference 10 -. Adc.Flash_adc.reference 9)

let suites =
  [
    ( "adc.params",
      [ Alcotest.test_case "consistency" `Quick test_params_consistency ] );
    ( "adc.clocks",
      [
        Alcotest.test_case "complementary" `Quick test_clock_phases_complementary;
        Alcotest.test_case "periodic" `Quick test_clock_phases_periodic;
      ] );
    ( "adc.comparator",
      [
        Alcotest.test_case "decisions" `Slow test_comparator_decisions;
        Alcotest.test_case "phase currents" `Slow test_comparator_phase_currents;
        Alcotest.test_case "iddq negligible" `Slow test_comparator_iddq_negligible;
        Alcotest.test_case "dft removes leak" `Slow test_comparator_dft_removes_leak;
        Alcotest.test_case "engine decisions pinned" `Quick
          test_comparator_engine_decisions_pinned;
        Alcotest.test_case "dft separates bias tracks" `Quick
          test_comparator_dft_separates_bias_tracks;
        Alcotest.test_case "layout LVS" `Quick test_comparator_layout_lvs;
      ] );
    ( "adc.macros",
      [
        Alcotest.test_case "all layouts LVS" `Quick test_all_macro_layouts_pass_lvs;
        Alcotest.test_case "all layouts DRC clean" `Quick test_all_macro_layouts_drc_clean;
        Alcotest.test_case "ladder taps" `Quick test_ladder_taps_linear;
        Alcotest.test_case "ladder current" `Quick test_ladder_current_balance;
        Alcotest.test_case "ladder serpentine" `Quick test_ladder_serpentine_placement;
        Alcotest.test_case "bias levels" `Quick test_bias_gen_levels;
        Alcotest.test_case "clock toggles" `Quick test_clock_gen_toggles;
        Alcotest.test_case "decoder codes" `Quick test_decoder_codes;
      ] );
    ( "adc.flash",
      [
        Alcotest.test_case "monotone" `Quick test_flash_ideal_monotone;
        Alcotest.test_case "no missing codes" `Quick test_flash_ideal_no_missing_codes;
        Alcotest.test_case "offset loses one code" `Quick test_flash_offset_loses_one_code;
        Alcotest.test_case "small offset harmless" `Quick test_flash_small_offset_harmless;
        Alcotest.test_case "stuck masks codes" `Quick test_flash_stuck_masks_codes;
        Alcotest.test_case "reference shift" `Quick test_flash_reference_shift;
        Alcotest.test_case "reference spacing" `Quick test_flash_reference_spacing;
      ] );
  ]
