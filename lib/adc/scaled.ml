(* Scalable-N flash-ADC analog core: a reference ladder of 2^bits
   segments with one readout MOSFET per interior tap, gate-coupled to the
   neighbouring tap. The netlist grows as 2^bits unknowns while keeping
   chain-local connectivity (tridiagonal-plus-gm structure), so it is the
   workload where factorization reuse separates from full Newton — a
   per-iteration cost the 37-node comparator is too small to expose. The
   measure procedure is a single DC operating point, so per-class cost is
   dominated by exactly the solves the shared-nominal warm start
   shortens. *)

let segment_resistance = 125.0

let taps bits = Params.levels_of_bits bits

let readout_spec (s : Process.Variation.sample) =
  let p = Circuit.Mos_model.default_nmos in
  {
    Circuit.Netlist.polarity = Circuit.Mos_model.Nmos;
    params =
      {
        p with
        Circuit.Mos_model.vth = p.Circuit.Mos_model.vth +. s.vth_n_shift;
        kp = p.Circuit.Mos_model.kp *. s.beta_factor;
      };
    w = 2e-6;
    (* Long-channel: each tap sinks at most ~20 uA, so the active region
       near the driven rails stays shallow and the interior self-limits
       into cutoff — a nontrivial nonlinear profile at every size. *)
    l = 20e-6;
  }

let tap_name ~bits i =
  if i <= 0 then "vrl" else if i >= taps bits then "vrh"
  else Printf.sprintf "tap%d" i

let add_macro_devices ~bits (s : Process.Variation.sample) nl =
  let t = taps bits in
  let n i = Circuit.Netlist.node nl (tap_name ~bits i) in
  let r = segment_resistance *. s.Process.Variation.resistance_factor in
  for i = 0 to t - 1 do
    Circuit.Netlist.add_resistor nl
      ~name:(Printf.sprintf "RSEG%d" i)
      (n i) (n (i + 1)) r
  done;
  let spec = readout_spec s in
  for i = 1 to t - 1 do
    Circuit.Netlist.add_mosfet nl
      ~name:(Printf.sprintf "MRD%d" i)
      ~drain:(n i)
      ~gate:(n (i + 1))
      ~source:Circuit.Netlist.ground ~bulk:Circuit.Netlist.ground spec
  done

let layout_netlist ~bits () =
  let nl = Circuit.Netlist.create () in
  add_macro_devices ~bits (Process.Variation.nominal Process.Tech.cmos1um) nl;
  nl

let bench_netlist ~bits (s : Process.Variation.sample) =
  let nl = Circuit.Netlist.create () in
  add_macro_devices ~bits s nl;
  let n name = Circuit.Netlist.node nl name in
  Circuit.Netlist.add_vsource nl ~name:"VRH" ~pos:(n "vrh")
    ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc Params.vref_high);
  Circuit.Netlist.add_vsource nl ~name:"VRL" ~pos:(n "vrl")
    ~neg:Circuit.Netlist.ground
    (Circuit.Waveform.dc Params.vref_low);
  nl

(* Eight probe taps, evenly spread over the interior; deduplicated so
   small sizes degrade gracefully. *)
let watched_taps bits =
  let t = taps bits in
  List.sort_uniq compare
    (List.filter_map
       (fun k ->
         let i = k * t / 8 in
         if i >= 1 && i <= t - 1 then Some i else None)
       [ 1; 2; 3; 4; 5; 6; 7 ])

let measure ~bits nl =
  let sol = Circuit.Engine.dc_operating_point nl in
  let v name = Circuit.Engine.voltage sol (Circuit.Netlist.node nl name) in
  List.map
    (fun i ->
      let name = tap_name ~bits i in
      "v:" ^ name, v name)
    (watched_taps bits)
  @ [
      "iin:vrh", Circuit.Engine.source_current sol "VRH";
      "iin:vrl", Circuit.Engine.source_current sol "VRL";
    ]

(* Same shape as the ladder slice's classifier, against a quantum floored
   at 2 mV: at high resolutions one electrical LSB drops below what any
   DC probe distinguishes from process spread. *)
let classify_voltage ~bits ~golden ~faulty =
  let quantum = Float.max (Params.lsb_of_bits bits) 0.002 in
  let worst =
    List.fold_left
      (fun acc (name, value) ->
        match Macro.Signature.current_kind_of_measurement name with
        | Some _ -> acc
        | None ->
          (match Macro.Macro_cell.get_opt golden name with
          | Some g -> Float.max acc (Float.abs (value -. g))
          | None -> acc))
      0.0 faulty
  in
  if worst > 10.0 *. quantum then Macro.Signature.Output_stuck_at
  else if worst > 0.5 *. quantum then Macro.Signature.Offset_too_large
  else Macro.Signature.No_voltage_deviation

let track_order bits =
  List.init (taps bits + 1) (fun i -> tap_name ~bits i)

let macro ~bits () =
  if bits < 2 || bits > 14 then invalid_arg "Adc.Scaled.macro: bits in 2..14";
  {
    Macro.Macro_cell.name = Printf.sprintf "scaled-%db" bits;
    build = bench_netlist ~bits;
    cell =
      lazy
        (Layout.Synthesize.synthesize
           ~options:
             {
               Layout.Synthesize.default_options with
               track_order = track_order bits;
             }
           (layout_netlist ~bits ())
           ~name:(Printf.sprintf "scaled%db" bits));
    measure = measure ~bits;
    classify_voltage = (fun ~golden ~faulty -> classify_voltage ~bits ~golden ~faulty);
    instances = 1;
  }
