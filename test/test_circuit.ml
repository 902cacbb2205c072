(* Unit and property tests for the dotest.circuit analog simulator. *)

open Circuit

let check_float tolerance = Alcotest.(check (float tolerance))

(* From-scratch dense solve leaving the inputs untouched — what the
   removed [Linear.solve_copy] wrapper used to spell; tests factor on
   every call on purpose (the production paths reuse factorizations). *)
let solve_fresh a b = Linear.Factor.solve_factored (Linear.Factor.factor a) b

(* Every counter [f] leaves in an in-memory sink, sorted by name. *)
let counters_of f =
  let memory = Util.Telemetry.in_memory () in
  let result =
    Util.Telemetry.with_sink (Util.Telemetry.memory_sink memory) @@ fun () ->
    Fun.protect ~finally:Util.Telemetry.flush_local f
  in
  result, (Util.Telemetry.metrics memory).Util.Telemetry.Metrics.counters

(* ------------------------------------------------------------------ *)
(* Linear                                                              *)
(* ------------------------------------------------------------------ *)

let test_linear_known_2x2 () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 5.; 10. |] in
  let x = solve_fresh a b in
  check_float 1e-9 "x0" 1.0 x.(0);
  check_float 1e-9 "x1" 3.0 x.(1)

let test_linear_needs_pivoting () =
  (* Zero on the initial pivot position forces a row swap. *)
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let b = [| 2.; 3. |] in
  let x = solve_fresh a b in
  check_float 1e-9 "x0" 3.0 x.(0);
  check_float 1e-9 "x1" 2.0 x.(1)

let test_linear_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  let b = [| 1.; 2. |] in
  Alcotest.check_raises "singular" Linear.Singular (fun () ->
      ignore (solve_fresh a b))

let test_linear_residual () =
  let a = [| [| 4.; 1.; 0. |]; [| 1.; 5.; 2. |]; [| 0.; 2.; 6. |] |] in
  let b = [| 1.; -2.; 3. |] in
  let x = solve_fresh a b in
  Alcotest.(check bool) "residual small" true (Linear.residual a x b < 1e-9)

let test_linear_scaled_singularity () =
  (* Well-conditioned but tiny: every pivot is ~1e-305, far below the
     historical absolute 1e-300 floor. The relative singularity test must
     solve it rather than raise. *)
  let a = [| [| 1e-305; 0. |]; [| 0.; 2e-305 |] |] in
  let b = [| 1e-305; 4e-305 |] in
  let x = solve_fresh a b in
  check_float 1e-9 "x0" 1.0 x.(0);
  check_float 1e-9 "x1" 2.0 x.(1);
  (* The all-zero matrix is still singular under the relative rule. *)
  Alcotest.check_raises "zero matrix" Linear.Singular (fun () ->
      ignore (solve_fresh (Linear.matrix 2) [| 0.; 0. |]))

(* ------------------------------------------------------------------ *)
(* Linear.Factor                                                       *)
(* ------------------------------------------------------------------ *)

let test_factor_matches_fresh_solve () =
  let a = [| [| 4.; 1.; 0. |]; [| 1.; 5.; 2. |]; [| 0.; 2.; 6. |] |] in
  let f = Linear.Factor.factor a in
  Alcotest.(check int) "size" 3 (Linear.Factor.size f);
  Alcotest.(check int) "no updates" 0 (Linear.Factor.updates f);
  (* One factorization, many right-hand sides: each solve must match a
     from-scratch dense solve exactly (same kernel, same arithmetic). *)
  List.iter
    (fun b ->
      let x = Linear.Factor.solve_factored f b in
      let y = solve_fresh a b in
      Array.iteri
        (fun i xi -> check_float 0.0 (Printf.sprintf "x%d" i) y.(i) xi)
        x)
    [ [| 1.; -2.; 3. |]; [| 0.5; 4.; -1. |]; [| 0.; 0.; 1. |] ]

let test_factor_rank1_agrees () =
  let a = [| [| 3.; 1.; 0. |]; [| 1.; 4.; 1. |]; [| 0.; 1.; 5. |] |] in
  let u = [| 1.; 0.; -1. |] and v = [| 0.; 2.; 1. |] and c = 0.5 in
  let f = Linear.Factor.factor a in
  match Linear.Factor.rank1_update f ~c ~u ~v with
  | None -> Alcotest.fail "guard fired on a well-conditioned update"
  | Some f' ->
    Alcotest.(check int) "one update" 1 (Linear.Factor.updates f');
    Alcotest.(check int) "original untouched" 0 (Linear.Factor.updates f);
    let a' =
      Array.init 3 (fun i ->
          Array.init 3 (fun j -> a.(i).(j) +. (c *. u.(i) *. v.(j))))
    in
    let b = [| 1.; 2.; 3. |] in
    let x = Linear.Factor.solve_factored f' b in
    let y = solve_fresh a' b in
    Array.iteri
      (fun i xi -> check_float 1e-9 (Printf.sprintf "x%d" i) y.(i) xi)
      x

let test_factor_solve_into () =
  (* The in-place solve is the one solve path: through a factorization
     with an update chain it writes exactly what [solve_factored]
     returns, leaves [b] alone, and refuses a wrong shape or an [into]
     that is [b] itself. *)
  let a = [| [| 4.; 1.; 0. |]; [| 1.; 5.; 2. |]; [| 0.; 2.; 6. |] |] in
  let f = Linear.Factor.factor a in
  let f =
    match
      Linear.Factor.rank1_update f ~c:0.5 ~u:[| 1.; 0.; -1. |]
        ~v:[| 0.; 2.; 1. |]
    with
    | Some f -> f
    | None -> Alcotest.fail "guard fired on a well-conditioned update"
  in
  let b = [| 1.; -2.; 3. |] in
  let into = Array.make 3 nan in
  Linear.Factor.solve_into f b ~into;
  let fresh = Linear.Factor.solve_factored f b in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "x%d bit-identical" i)
        true (Float.equal fresh.(i) x))
    into;
  Alcotest.(check (array (float 0.0))) "b untouched" [| 1.; -2.; 3. |] b;
  Alcotest.check_raises "short into"
    (Invalid_argument "Linear.Factor.solve_into: shape mismatch") (fun () ->
      Linear.Factor.solve_into f b ~into:(Array.make 2 0.0));
  Alcotest.check_raises "into is b"
    (Invalid_argument "Linear.Factor.solve_into: b and into alias") (fun () ->
      Linear.Factor.solve_into f b ~into:b)

let test_factor_rank1_fallback () =
  (* A = I, u = v = e0, c = -1 zeroes the (0,0) entry: the Sherman–
     Morrison denominator 1 + c·vᵀA⁻¹u is exactly 0, so the update must
     refuse and hand the caller back to a full re-factorization. *)
  let n = 3 in
  let a = Linear.matrix n in
  for i = 0 to n - 1 do
    a.(i).(i) <- 1.0
  done;
  let e0 = Array.make n 0.0 in
  e0.(0) <- 1.0;
  let f = Linear.Factor.factor a in
  (match Linear.Factor.rank1_update f ~c:(-1.0) ~u:e0 ~v:e0 with
  | None -> ()
  | Some _ -> Alcotest.fail "near-singular update must return None");
  (* A harmless update on the same base still goes through. *)
  match Linear.Factor.rank1_update f ~c:0.5 ~u:e0 ~v:e0 with
  | Some _ -> ()
  | None -> Alcotest.fail "well-conditioned update must succeed"

(* ------------------------------------------------------------------ *)
(* Waveform                                                            *)
(* ------------------------------------------------------------------ *)

let test_waveform_dc () =
  let w = Waveform.dc 3.3 in
  check_float 1e-12 "t=0" 3.3 (Waveform.value w 0.0);
  check_float 1e-12 "t=1" 3.3 (Waveform.value w 1.0)

let test_waveform_pwl () =
  let w = Waveform.pwl [ 0.0, 0.0; 1.0, 2.0; 3.0, 0.0 ] in
  check_float 1e-12 "before" 0.0 (Waveform.value w (-1.0));
  check_float 1e-12 "midpoint" 1.0 (Waveform.value w 0.5);
  check_float 1e-12 "breakpoint" 2.0 (Waveform.value w 1.0);
  check_float 1e-12 "falling" 1.0 (Waveform.value w 2.0);
  check_float 1e-12 "after" 0.0 (Waveform.value w 5.0)

let test_waveform_pwl_rejects_unordered () =
  Alcotest.check_raises "unordered"
    (Invalid_argument "Waveform.pwl: times must increase") (fun () ->
      ignore (Waveform.pwl [ 0.0, 0.0; 0.0, 1.0 ]))

let test_waveform_pulse () =
  let w =
    Waveform.pulse ~v0:0.0 ~v1:5.0 ~delay:1e-9 ~rise:1e-9 ~fall:1e-9
      ~width:3e-9 ~period:10e-9
  in
  check_float 1e-9 "before delay" 0.0 (Waveform.value w 0.0);
  check_float 1e-9 "mid rise" 2.5 (Waveform.value w 1.5e-9);
  check_float 1e-9 "high" 5.0 (Waveform.value w 3e-9);
  check_float 1e-9 "low again" 0.0 (Waveform.value w 7e-9);
  check_float 1e-9 "periodic" 5.0 (Waveform.value w 13e-9)

let test_waveform_triangle () =
  let w = Waveform.triangle ~lo:1.0 ~hi:3.0 ~period:2.0 in
  check_float 1e-9 "start" 1.0 (Waveform.value w 0.0);
  check_float 1e-9 "peak" 3.0 (Waveform.value w 1.0);
  check_float 1e-9 "back" 1.0 (Waveform.value w 2.0);
  check_float 1e-9 "quarter" 2.0 (Waveform.value w 0.5)

let test_waveform_scale () =
  let w = Waveform.scale 0.5 (Waveform.dc 4.0) in
  check_float 1e-12 "scaled" 2.0 (Waveform.value w 0.0)

(* ------------------------------------------------------------------ *)
(* Mos_model                                                           *)
(* ------------------------------------------------------------------ *)

let nmos = Mos_model.default_nmos

let test_mos_cutoff () =
  let op =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs:0.5 ~vds:2.0
  in
  check_float 1e-15 "id" 0.0 op.Mos_model.id;
  Alcotest.(check bool) "region" true
    (Mos_model.region ~polarity:Mos_model.Nmos ~params:nmos ~vgs:0.5 ~vds:2.0
     = Mos_model.Cutoff)

let test_mos_saturation_value () =
  (* id = kp/2 * W/L * (vgs-vth)^2 * (1 + lambda vds) *)
  let vgs = 1.8 and vds = 3.0 in
  let op =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs ~vds
  in
  let vgst = vgs -. nmos.Mos_model.vth in
  let expect =
    0.5 *. nmos.Mos_model.kp *. 10. *. vgst *. vgst
    *. (1. +. (nmos.Mos_model.lambda *. vds))
  in
  check_float 1e-9 "id" expect op.Mos_model.id;
  Alcotest.(check bool) "saturation" true
    (Mos_model.region ~polarity:Mos_model.Nmos ~params:nmos ~vgs ~vds
     = Mos_model.Saturation)

let test_mos_triode_value () =
  let vgs = 3.0 and vds = 0.5 in
  let op =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs ~vds
  in
  let vgst = vgs -. nmos.Mos_model.vth in
  let expect =
    nmos.Mos_model.kp *. 10.
    *. ((vgst *. vds) -. (0.5 *. vds *. vds))
    *. (1. +. (nmos.Mos_model.lambda *. vds))
  in
  check_float 1e-9 "id" expect op.Mos_model.id

let test_mos_symmetry () =
  (* Swapping drain and source negates the current. *)
  let fwd =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs:2.0 ~vds:1.0
  in
  let rev =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs:1.0 ~vds:(-1.0)
  in
  check_float 1e-12 "antisymmetric" (-.fwd.Mos_model.id) rev.Mos_model.id

let test_mos_pmos_mirror () =
  let p = Mos_model.default_pmos in
  let op =
    Mos_model.evaluate ~polarity:Mos_model.Pmos ~params:p ~w:10e-6 ~l:1e-6
      ~vgs:(-2.0) ~vds:(-3.0)
  in
  Alcotest.(check bool) "pmos conducts negative current" true
    (op.Mos_model.id < 0.);
  let mirrored =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:p ~w:10e-6 ~l:1e-6
      ~vgs:2.0 ~vds:3.0
  in
  check_float 1e-12 "mirror" (-.mirrored.Mos_model.id) op.Mos_model.id

(* ------------------------------------------------------------------ *)
(* Engine: DC                                                          *)
(* ------------------------------------------------------------------ *)

let test_dc_voltage_divider () =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground (Waveform.dc 10.0);
  Netlist.add_resistor nl ~name:"R1" vin mid 1_000.0;
  Netlist.add_resistor nl ~name:"R2" mid Netlist.ground 3_000.0;
  let sol = Engine.dc_operating_point nl in
  check_float 1e-6 "divider" 7.5 (Engine.voltage sol mid);
  (* Source delivers V/(R1+R2) into the circuit. *)
  check_float 1e-9 "supply current" (10.0 /. 4000.0) (Engine.source_current sol "V1")

let test_dc_nan_source_refused () =
  (* A NaN source makes every Newton step NaN. No comparison holds for
     NaN, so a step test written as "moved more than tol" would read it
     as converged; the solve must walk the fallbacks and give up. *)
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground
    (Waveform.dc Float.nan);
  Netlist.add_resistor nl ~name:"R1" vin mid 1_000.0;
  Netlist.add_resistor nl ~name:"R2" mid Netlist.ground 3_000.0;
  match Engine.dc_operating_point nl with
  | sol ->
    Alcotest.failf "accepted v(mid) = %g as converged"
      (Engine.voltage sol mid)
  | exception Engine.No_convergence _ -> ()

let test_dc_diagnostics () =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground (Waveform.dc 10.0);
  Netlist.add_resistor nl ~name:"R1" vin mid 1_000.0;
  Netlist.add_resistor nl ~name:"R2" mid Netlist.ground 3_000.0;
  (* The engine's counters are its one report of convergence effort. *)
  let sol, counters = counters_of (fun () -> Engine.dc_operating_point nl) in
  check_float 1e-6 "same solution" 7.5 (Engine.voltage sol mid);
  Alcotest.(check bool) "iterations counted" true
    (match List.assoc_opt "newton_iterations" counters with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check (list string)) "linear circuit needs no fallback" []
    (List.filter_map
       (fun (name, _) ->
         if String.starts_with ~prefix:"engine.fallback_" name then Some name
         else None)
       counters)

let test_escalation_ladder () =
  let base = Engine.default_options in
  Alcotest.(check bool) "level 0 is base" true (Engine.escalation base ~level:0 = base);
  let l1 = Engine.escalation base ~level:1 in
  let l3 = Engine.escalation base ~level:3 in
  Alcotest.(check bool) "monotonically looser reltol" true
    (base.Engine.reltol < l1.Engine.reltol && l1.Engine.reltol < l3.Engine.reltol);
  Alcotest.(check bool) "more iterations" true
    (l3.Engine.max_iterations > l1.Engine.max_iterations
    && l1.Engine.max_iterations > base.Engine.max_iterations);
  Alcotest.(check bool) "levels above the top clamp" true
    (Engine.escalation base ~level:99
    = Engine.escalation base ~level:Engine.escalation_levels)

let test_options_override_scoped () =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground (Waveform.dc 1.0);
  Netlist.add_resistor nl ~name:"R1" vin Netlist.ground 1_000.0;
  (* The override must apply inside the scope (a zero iteration budget
     fails even this linear solve) and be restored after, including when
     the scope exits with an exception. *)
  let starved = { Engine.default_options with Engine.max_iterations = 0 } in
  (match
     Engine.with_options_override starved (fun () ->
         Engine.dc_operating_point nl)
   with
  | _ -> Alcotest.fail "starved options must fail"
  | exception Engine.No_convergence _ -> ());
  ignore (Engine.dc_operating_point nl);
  (match
     Engine.with_options_override starved (fun () -> failwith "escape")
   with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  ignore (Engine.dc_operating_point nl)

let test_dc_deadline_propagates () =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground (Waveform.dc 10.0);
  Netlist.add_resistor nl ~name:"R1" vin mid 1_000.0;
  Netlist.add_resistor nl ~name:"R2" mid Netlist.ground 3_000.0;
  (* A zero iteration budget expires on the Newton loop's first tick.
     The expiry must escape the engine's own fallback ladder — it is a
     deadline, not a convergence failure — and be classified upstream. *)
  (match
     Util.Watchdog.with_limits
       (Util.Watchdog.limits ~max_iterations:0 ())
       (fun () -> Engine.dc_operating_point nl)
   with
  | _ -> Alcotest.fail "armed zero budget must expire"
  | exception
      Util.Watchdog.Deadline_exceeded (Util.Watchdog.Iterations { limit }) ->
    Alcotest.(check int) "configured limit carried" 0 limit);
  (* Disarmed again: the same solve completes untouched. *)
  check_float 1e-6 "solves after disarm" 7.5
    (Engine.voltage (Engine.dc_operating_point nl) mid)

let test_dc_current_source () =
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.add_isource nl ~name:"I1" ~pos:out ~neg:Netlist.ground (Waveform.dc 1e-3);
  Netlist.add_resistor nl ~name:"R1" out Netlist.ground 2_000.0;
  let sol = Engine.dc_operating_point nl in
  check_float 1e-6 "v = i*r" 2.0 (Engine.voltage sol out)

let test_dc_floating_node_gmin () =
  (* A node connected only through a capacitor is floating in DC; the gmin
     shunt must keep the system solvable and park it near ground. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.add_vsource nl ~name:"V1" ~pos:a ~neg:Netlist.ground (Waveform.dc 5.0);
  Netlist.add_capacitor nl ~name:"C1" a b 1e-12;
  let sol = Engine.dc_operating_point nl in
  check_float 1e-3 "floating node at 0" 0.0 (Engine.voltage sol b)

let nmos_spec =
  {
    Netlist.polarity = Mos_model.Nmos;
    params = Mos_model.default_nmos;
    w = 10e-6;
    l = 1e-6;
  }

let pmos_spec =
  {
    Netlist.polarity = Mos_model.Pmos;
    params = Mos_model.default_pmos;
    w = 30e-6;
    l = 1e-6;
  }

let build_inverter () =
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" in
  let vin = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Netlist.ground (Waveform.dc 5.0);
  Netlist.add_vsource nl ~name:"VIN" ~pos:vin ~neg:Netlist.ground (Waveform.dc 0.0);
  Netlist.add_mosfet nl ~name:"MN" ~drain:out ~gate:vin ~source:Netlist.ground
    ~bulk:Netlist.ground nmos_spec;
  Netlist.add_mosfet nl ~name:"MP" ~drain:out ~gate:vin ~source:vdd ~bulk:vdd
    pmos_spec;
  nl, vin, out

let test_dc_nmos_diode () =
  (* Diode-connected NMOS fed through a resistor: check KCL consistency
     between the resistor current and the square-law current. *)
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" in
  let d = Netlist.node nl "d" in
  Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Netlist.ground (Waveform.dc 5.0);
  Netlist.add_resistor nl ~name:"R1" vdd d 10_000.0;
  Netlist.add_mosfet nl ~name:"M1" ~drain:d ~gate:d ~source:Netlist.ground
    ~bulk:Netlist.ground nmos_spec;
  let sol = Engine.dc_operating_point nl in
  let v = Engine.voltage sol d in
  Alcotest.(check bool) "above threshold" true (v > 0.8 && v < 5.0);
  let i_res = (5.0 -. v) /. 10_000.0 in
  let op =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs:v ~vds:v
  in
  check_float 1e-7 "KCL" i_res op.Mos_model.id

let test_dc_inverter_rails () =
  let nl, _vin, out = build_inverter () in
  let sol = Engine.dc_operating_point nl in
  Alcotest.(check bool) "in=0 -> out near vdd" true (Engine.voltage sol out > 4.9)

let test_dc_inverter_sweep_monotone () =
  (* The transfer curve from 26 operating points, each on a copy of the
     inverter with VIN re-pointed at the sweep value. *)
  let nl, _vin, out = build_inverter () in
  let outs =
    List.init 26 (fun i ->
        let copy = Netlist.copy nl in
        Netlist.remove_device copy "VIN";
        Netlist.add_vsource copy ~name:"VIN" ~pos:(Netlist.node copy "in")
          ~neg:Netlist.ground
          (Waveform.dc (float_of_int i *. 0.2));
        Engine.voltage (Engine.dc_operating_point copy) out)
  in
  (match outs with
  | first :: _ -> Alcotest.(check bool) "starts high" true (first > 4.9)
  | [] -> Alcotest.fail "no sweep points");
  let last = List.nth outs (List.length outs - 1) in
  Alcotest.(check bool) "ends low" true (last < 0.1);
  let monotone =
    List.for_all2
      (fun a b -> b <= a +. 1e-6)
      (List.filteri (fun i _ -> i < List.length outs - 1) outs)
      (List.tl outs)
  in
  Alcotest.(check bool) "monotone decreasing" true monotone

let test_dc_kcl_at_internal_node () =
  (* Three resistors meeting at a node: currents must balance. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  let n = Netlist.node nl "n" in
  Netlist.add_vsource nl ~name:"VA" ~pos:a ~neg:Netlist.ground (Waveform.dc 3.0);
  Netlist.add_vsource nl ~name:"VB" ~pos:b ~neg:Netlist.ground (Waveform.dc 1.0);
  Netlist.add_resistor nl ~name:"R1" a n 100.0;
  Netlist.add_resistor nl ~name:"R2" b n 200.0;
  Netlist.add_resistor nl ~name:"R3" n Netlist.ground 300.0;
  let sol = Engine.dc_operating_point nl in
  let vn = Engine.voltage sol n in
  let sum = ((3.0 -. vn) /. 100.0) +. ((1.0 -. vn) /. 200.0) -. (vn /. 300.0) in
  check_float 1e-9 "KCL" 0.0 sum

(* ------------------------------------------------------------------ *)
(* Engine: transient                                                   *)
(* ------------------------------------------------------------------ *)

let test_transient_rc_charge () =
  let r = 1_000.0 and c = 1e-9 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  let out = Netlist.node nl "out" in
  (* Step from 0 to 5 V shortly after t=0 so the DC point starts at 0. *)
  Netlist.add_vsource nl ~name:"V1" ~pos:src ~neg:Netlist.ground
    (Waveform.pwl [ 0.0, 0.0; 1e-9, 5.0 ]);
  Netlist.add_resistor nl ~name:"R1" src out r;
  Netlist.add_capacitor nl ~name:"C1" out Netlist.ground c;
  let tau = r *. c in
  let sols = Engine.transient nl ~stop:(5. *. tau) ~step:(tau /. 200.) in
  let final = List.nth sols (List.length sols - 1) in
  check_float 0.05 "fully charged" 5.0 (Engine.voltage final out);
  (* At one time constant after the step the output is ~63 % of 5 V.
     Backward Euler with 200 steps/tau is within a percent. *)
  let at_tau =
    List.find
      (fun s -> Float.abs (Engine.time s -. (tau +. 1e-9)) < tau /. 300.)
      sols
  in
  check_float 0.05 "one tau" (5.0 *. (1. -. exp (-1.))) (Engine.voltage at_tau out)

let test_transient_capacitor_holds_charge () =
  (* A capacitor fed through a huge resistor barely moves within a time
     much shorter than tau = 1 s (the source steps after t = 0 so the DC
     point starts discharged). *)
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  let out = Netlist.node nl "out" in
  Netlist.add_vsource nl ~name:"V1" ~pos:src ~neg:Netlist.ground
    (Waveform.pwl [ 0.0, 0.0; 1e-9, 5.0 ]);
  Netlist.add_resistor nl ~name:"R1" src out 1e9;
  Netlist.add_capacitor nl ~name:"C1" out Netlist.ground 1e-9;
  let sols = Engine.transient nl ~stop:1e-6 ~step:1e-8 in
  let final = List.nth sols (List.length sols - 1) in
  Alcotest.(check bool) "barely charged" true (Engine.voltage final out < 0.05)

let test_transient_inverter_switches () =
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" in
  let vin = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Netlist.ground (Waveform.dc 5.0);
  Netlist.add_vsource nl ~name:"VIN" ~pos:vin ~neg:Netlist.ground
    (Waveform.pulse ~v0:0.0 ~v1:5.0 ~delay:10e-9 ~rise:1e-9 ~fall:1e-9
       ~width:30e-9 ~period:100e-9);
  Netlist.add_mosfet nl ~name:"MN" ~drain:out ~gate:vin ~source:Netlist.ground
    ~bulk:Netlist.ground nmos_spec;
  Netlist.add_mosfet nl ~name:"MP" ~drain:out ~gate:vin ~source:vdd ~bulk:vdd
    pmos_spec;
  Netlist.add_capacitor nl ~name:"CL" out Netlist.ground 50e-15;
  let sols = Engine.transient nl ~stop:50e-9 ~step:0.5e-9 in
  let v_at t =
    let s = List.find (fun s -> Float.abs (Engine.time s -. t) < 0.2e-9) sols in
    Engine.voltage s out
  in
  Alcotest.(check bool) "high before pulse" true (v_at 5e-9 > 4.9);
  Alcotest.(check bool) "low during pulse" true (v_at 30e-9 < 0.1)

let test_transient_supply_current_inverter () =
  (* A static CMOS inverter draws (almost) no supply current at either
     rail — the IDDQ mechanism the paper exploits. *)
  let nl, _, _ = build_inverter () in
  let sol = Engine.dc_operating_point nl in
  Alcotest.(check bool) "IDDQ tiny" true
    (Float.abs (Engine.source_current sol "VDD") < 1e-6)

let test_transient_rejects_bad_grid () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.add_resistor nl ~name:"R1" a Netlist.ground 1.0;
  Alcotest.check_raises "bad grid"
    (Invalid_argument "Engine.transient: bad time grid") (fun () ->
      ignore (Engine.transient nl ~stop:1.0 ~step:0.0))

(* ------------------------------------------------------------------ *)
(* Engine: solver backends                                             *)
(* ------------------------------------------------------------------ *)

let test_with_solver_scoped () =
  Alcotest.(check bool) "default in effect" true
    (Engine.current_solver () = Engine.default_solver);
  Engine.with_solver Engine.Dense (fun () ->
      Alcotest.(check bool) "override visible" true
        (Engine.current_solver () = Engine.Dense);
      Engine.with_solver Engine.Auto (fun () ->
          Alcotest.(check bool) "nested override" true
            (Engine.current_solver () = Engine.Auto));
      Alcotest.(check bool) "inner scope popped" true
        (Engine.current_solver () = Engine.Dense));
  Alcotest.(check bool) "restored" true
    (Engine.current_solver () = Engine.default_solver)

(* An inverter driven by one input pulse, loaded by 50 fF. *)
let pulsed_inverter () =
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" in
  let vin = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Netlist.ground
    (Waveform.dc 5.0);
  Netlist.add_vsource nl ~name:"VIN" ~pos:vin ~neg:Netlist.ground
    (Waveform.pulse ~v0:0.0 ~v1:5.0 ~delay:10e-9 ~rise:1e-9 ~fall:1e-9
       ~width:30e-9 ~period:100e-9);
  Netlist.add_mosfet nl ~name:"MN" ~drain:out ~gate:vin
    ~source:Netlist.ground ~bulk:Netlist.ground nmos_spec;
  Netlist.add_mosfet nl ~name:"MP" ~drain:out ~gate:vin ~source:vdd
    ~bulk:vdd pmos_spec;
  Netlist.add_capacitor nl ~name:"CL" out Netlist.ground 50e-15;
  nl, out

let test_solver_backends_agree () =
  (* The inverter transient under both policies: node voltages must
     agree to far tighter than any signature-classification threshold.
     The two share all their code but the policy flag, so each side must
     show its own policy: the reuse fast path fires under Auto, and
     Dense re-factors every iteration with no bypass and no rank-1
     update — otherwise the comparison proves nothing. *)
  let run solver =
    let nl, out = pulsed_inverter () in
    let sols, counters =
      counters_of (fun () ->
          Engine.with_solver solver (fun () ->
              Engine.transient nl ~stop:50e-9 ~step:0.5e-9))
    in
    let counter name =
      match List.assoc_opt name counters with Some n -> n | None -> 0
    in
    List.map (fun s -> Engine.time s, Engine.voltage s out) sols, counter
  in
  let dense, dense_counter = run Engine.Dense in
  Alcotest.(check bool) "dense: factorizations counted" true
    (dense_counter "engine.factorizations" > 0);
  Alcotest.(check int) "dense: no jacobian bypass" 0
    (dense_counter "engine.jacobian_bypass");
  Alcotest.(check int) "dense: no rank-1 updates" 0
    (dense_counter "engine.rank1_solves");
  List.iter
    (fun solver ->
      let name = Engine.solver_name solver in
      let fast, counter = run solver in
      Alcotest.(check int)
        (name ^ ": same step count")
        (List.length dense) (List.length fast);
      List.iter2
        (fun (t, v) (t', v') ->
          check_float 0.0 (Printf.sprintf "%s: time %g" name t) t t';
          check_float 1e-6 (Printf.sprintf "%s: out @ %g" name t) v v')
        dense fast;
      Alcotest.(check bool)
        (name ^ ": factorizations counted")
        true
        (counter "engine.factorizations" > 0);
      Alcotest.(check bool)
        (name ^ ": fast path fired")
        true
        (counter "engine.jacobian_bypass" + counter "engine.rank1_solves" > 0))
    [ Engine.Auto ]

let test_counts_at_deadline () =
  (* The engine totals its counters per analysis; an iteration cap that
     expires mid-transient must still report every iteration, solve and
     factorization done before the expiry, exactly as counting each one
     as it happened did. *)
  let nl, _ = pulsed_inverter () in
  let outcome, counters =
    counters_of (fun () ->
        match
          Util.Watchdog.with_limits
            (Util.Watchdog.limits ~max_iterations:120 ())
            (fun () -> Engine.transient nl ~stop:50e-9 ~step:0.5e-9)
        with
        | _ -> "completed"
        | exception Util.Watchdog.Deadline_exceeded _ -> "expired")
  in
  Alcotest.(check string) "the cap expires mid-transient" "expired" outcome;
  Alcotest.(check (list (pair string int)))
    "counters at the expiry"
    [
      "engine.factorizations", 7;
      "engine.jacobian_bypass", 84;
      "engine.rank1_solves", 29;
      "engine.solves", 83;
      "newton_iterations", 116;
      "watchdog.deadline_exceeded", 1;
    ]
    counters

let test_dense_jacobian_hand_stamp () =
  (* One NMOS with every terminal off ground, at a fixed guess: the
     Jacobian the plan assembles must be gmin, the two resistors, the
     sources' ±1 incidences and the transistor's gm/gds stamp computed
     here from [Mos_model.evaluate], entry by entry. *)
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" and gate = Netlist.node nl "g" in
  let drain = Netlist.node nl "d" and src = Netlist.node nl "s" in
  Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Netlist.ground
    (Waveform.dc 5.0);
  Netlist.add_vsource nl ~name:"VG" ~pos:gate ~neg:Netlist.ground
    (Waveform.dc 2.0);
  Netlist.add_resistor nl ~name:"RL" vdd drain 10_000.0;
  Netlist.add_resistor nl ~name:"RS" src Netlist.ground 1_000.0;
  Netlist.add_mosfet nl ~name:"M1" ~drain ~gate ~source:src
    ~bulk:Netlist.ground nmos_spec;
  (* Unknowns: vdd, g, d, s, then the VDD and VG branch currents. *)
  let x = [| 5.0; 2.0; 3.1; 0.4; -1e-4; 0.0 |] in
  let jac = Engine.dense_jacobian nl ~x in
  let i node = Netlist.index_of_node node - 1 in
  let expect = Linear.matrix 6 in
  let add r c v = expect.(r).(c) <- expect.(r).(c) +. v in
  List.iter
    (fun node -> add (i node) (i node) Engine.default_options.Engine.gmin)
    [ vdd; gate; drain; src ];
  let gl = 1.0 /. 10_000.0 in
  add (i vdd) (i vdd) gl;
  add (i drain) (i drain) gl;
  add (i vdd) (i drain) (-.gl);
  add (i drain) (i vdd) (-.gl);
  add (i src) (i src) (1.0 /. 1_000.0);
  add (i vdd) 4 1.0;
  add 4 (i vdd) 1.0;
  add (i gate) 5 1.0;
  add 5 (i gate) 1.0;
  let d = i drain and g = i gate and s = i src in
  let op =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs:(x.(g) -. x.(s)) ~vds:(x.(d) -. x.(s))
  in
  let gm = op.Mos_model.gm and gds = op.Mos_model.gds in
  Alcotest.(check bool) "transistor conducts" true (gm > 0.0 && gds > 0.0);
  add d d gds;
  add d g gm;
  add d s (-.(gm +. gds));
  add s d (-.gds);
  add s g (-.gm);
  add s s (gm +. gds);
  Alcotest.(check int) "size" 6 (Array.length jac);
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c e ->
          check_float
            (1e-12 *. Float.abs e)
            (Printf.sprintf "J[%d][%d]" r c)
            e jac.(r).(c))
        row)
    expect

(* ------------------------------------------------------------------ *)
(* Engine: AC                                                          *)
(* ------------------------------------------------------------------ *)

let rc_lowpass () =
  (* fc = 1/(2 pi RC) = 1.59 kHz for 10k / 10n. *)
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground (Waveform.dc 0.0);
  Netlist.add_resistor nl ~name:"R1" vin out 10_000.0;
  Netlist.add_capacitor nl ~name:"C1" out Netlist.ground 10e-9;
  nl, out

let test_ac_lowpass_corner () =
  let nl, out = rc_lowpass () in
  let fc = 1.0 /. (2.0 *. Float.pi *. 10_000.0 *. 10e-9) in
  match Engine.ac_sweep nl ~source:"V1" ~frequencies:[ fc /. 100.0; fc; fc *. 100.0 ] with
  | [ (_, low); (_, corner); (_, high) ] ->
    check_float 0.05 "passband 0 dB" 0.0 (Engine.ac_magnitude_db low out);
    check_float 0.05 "-3 dB at corner" (-3.0103) (Engine.ac_magnitude_db corner out);
    check_float 1.0 "-40 dB two decades up" (-40.0) (Engine.ac_magnitude_db high out);
    check_float 0.5 "-45 degrees at corner" (-45.0) (Engine.ac_phase_deg corner out)
  | _ -> Alcotest.fail "unexpected sweep shape"

let test_ac_common_source_gain () =
  (* Common-source amplifier with a resistive load: |A| = gm * (RL || ro)
     at low frequency. *)
  let nl = Netlist.create () in
  let vdd = Netlist.node nl "vdd" in
  let vin = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.add_vsource nl ~name:"VDD" ~pos:vdd ~neg:Netlist.ground (Waveform.dc 5.0);
  Netlist.add_vsource nl ~name:"VIN" ~pos:vin ~neg:Netlist.ground (Waveform.dc 1.2);
  Netlist.add_resistor nl ~name:"RL" vdd out 10_000.0;
  Netlist.add_mosfet nl ~name:"M1" ~drain:out ~gate:vin ~source:Netlist.ground
    ~bulk:Netlist.ground nmos_spec;
  let op = Engine.dc_operating_point nl in
  let vds = Engine.voltage op out in
  let small =
    Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:10e-6 ~l:1e-6
      ~vgs:1.2 ~vds
  in
  let expected_gain =
    small.Mos_model.gm /. ((1.0 /. 10_000.0) +. small.Mos_model.gds)
  in
  (match Engine.ac_sweep nl ~source:"VIN" ~frequencies:[ 100.0 ] with
  | [ (_, sol) ] ->
    check_float 0.1 "gain magnitude" expected_gain
      (Complex.norm (Engine.ac_voltage sol out));
    (* Inverting stage: phase ~180 degrees. *)
    check_float 1.0 "inverting" 180.0 (Float.abs (Engine.ac_phase_deg sol out))
  | _ -> Alcotest.fail "unexpected sweep shape")

let test_ac_rejects_bad_source () =
  let nl, _ = rc_lowpass () in
  Alcotest.check_raises "unknown source"
    (Invalid_argument "Engine.ac_sweep: \"nope\" is not a voltage source")
    (fun () -> ignore (Engine.ac_sweep nl ~source:"nope" ~frequencies:[ 1.0 ]))

let test_ac_decades_grid () =
  let grid = Engine.decades ~lo:1.0 ~hi:1000.0 ~per_decade:1 in
  Alcotest.(check int) "4 points" 4 (List.length grid);
  check_float 1e-6 "first" 1.0 (List.nth grid 0);
  check_float 1e-3 "last" 1000.0 (List.nth grid 3)

(* ------------------------------------------------------------------ *)
(* Netlist mutation                                                    *)
(* ------------------------------------------------------------------ *)

let test_netlist_copy_is_deep () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.add_resistor nl ~name:"R1" a b 100.0;
  let clone = Netlist.copy nl in
  Netlist.reconnect clone { Netlist.device = "R1"; role = "-" } Netlist.ground;
  let original_pin = Netlist.pin_node nl { Netlist.device = "R1"; role = "-" } in
  Alcotest.(check bool) "original untouched" true (Netlist.node_equal original_pin b)

let test_netlist_duplicate_device () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.add_resistor nl ~name:"R1" a Netlist.ground 1.0;
  Alcotest.check_raises "duplicate" (Invalid_argument "Netlist: duplicate device \"R1\"")
    (fun () -> Netlist.add_resistor nl ~name:"R1" a Netlist.ground 2.0)

let test_netlist_pins_of_node () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.add_resistor nl ~name:"R1" a Netlist.ground 1.0;
  Netlist.add_capacitor nl ~name:"C1" a Netlist.ground 1e-12;
  let pins = Netlist.pins_of_node nl a in
  Alcotest.(check int) "two pins" 2 (List.length pins)

let test_netlist_split_via_reconnect () =
  (* Simulating an open: move one resistor end to a fresh node and check
     the divider output collapses. *)
  let nl = Netlist.create () in
  let vin = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  Netlist.add_vsource nl ~name:"V1" ~pos:vin ~neg:Netlist.ground (Waveform.dc 10.0);
  Netlist.add_resistor nl ~name:"R1" vin mid 1_000.0;
  Netlist.add_resistor nl ~name:"R2" mid Netlist.ground 3_000.0;
  let broken = Netlist.copy nl in
  let floating = Netlist.fresh_node broken "open" in
  Netlist.reconnect broken { Netlist.device = "R1"; role = "-" } floating;
  let sol = Engine.dc_operating_point broken in
  check_float 1e-3 "output collapses" 0.0 (Engine.voltage sol mid)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* A deterministic LCG keeps each generated matrix a pure function of
   the generated seed, so shrinking stays meaningful. Uniform in [0, 1]. *)
let lcg seed =
  let state = ref ((2 * seed) + 1) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x3FFFFFFF

(* A sparse n×n matrix shaped like an MNA system: a gmin diagonal on the
   node unknowns, conductances stamped between random node pairs (ground
   included), transconductance-like asymmetric stamps, and voltage-source
   rows whose ±1.0 incidences and zero diagonal force row swaps and exact
   magnitude ties. Source k drives node k against a higher node or
   ground, so sources never form a loop. With [~tiny], gmin is the
   engine's 1e-12, some values are that small too and now and then a
   whole column is zeroed; without, gmin is 0.1 and the matrix stays well
   conditioned. Values otherwise come from a small set, so ties are
   common. Returns the matrix, a right-hand side and the number of node
   unknowns (the source branches follow them). *)
let mna_like ~tiny ~n ~seed =
  let rand = lcg seed in
  let pick k = min (k - 1) (int_of_float (rand () *. float_of_int k)) in
  let value () =
    match pick 5 with
    | 0 -> 1.0
    | 1 -> 0.5
    | 2 -> 2.0
    | 3 when tiny -> 1e-12
    | _ -> 0.5 +. rand ()
  in
  let sources = pick (min 3 (n / 2) + 1) in
  let nodes = n - sources in
  let a = Array.make_matrix n n 0.0 in
  let add r c v = if r >= 0 && c >= 0 then a.(r).(c) <- a.(r).(c) +. v in
  let node () = pick (nodes + 1) - 1 (* -1 is ground *) in
  for i = 0 to nodes - 1 do
    a.(i).(i) <- (if tiny then 1e-12 else 0.1)
  done;
  for _ = 1 to nodes + pick ((2 * nodes) + 1) do
    let i = node () and j = node () and g = value () in
    add i i g;
    add j j g;
    add i j (-.g);
    add j i (-.g)
  done;
  for _ = 1 to pick (nodes + 1) do
    let d = node () and g = node () and s = node () and gm = value () in
    add d g gm;
    add d s (-.gm);
    add s g (-.gm);
    add s s gm
  done;
  for k = 0 to sources - 1 do
    let branch = nodes + k and pos = k in
    let neg =
      if k + 1 >= nodes || pick 2 = 0 then -1
      else k + 1 + pick (nodes - k - 1)
    in
    add pos branch 1.0;
    add branch pos 1.0;
    add neg branch (-1.0);
    add branch neg (-1.0)
  done;
  if tiny && pick 8 = 0 then begin
    let c = pick n in
    Array.iter (fun row -> row.(c) <- 0.0) a
  end;
  a, Array.init n (fun _ -> rand () -. 0.5), nodes

(* Solve [a + c·u·vᵀ] through a rank-1 update of [a]'s factorization and
   from scratch, each entry within [tol] of the fresh solution's; a
   tripped guard is legal (the caller re-factors). *)
let rank1_agrees ~tol ~a ~u ~v ~c ~b =
  let n = Array.length a in
  let f = Linear.Factor.factor a in
  match Linear.Factor.rank1_update f ~c ~u ~v with
  | None -> true
  | Some f' ->
    let a' =
      Array.init n (fun i ->
          Array.init n (fun j -> a.(i).(j) +. (c *. u.(i) *. v.(j))))
    in
    let x = Linear.Factor.solve_factored f' b in
    let y = solve_fresh a' b in
    let ok = ref true in
    for i = 0 to n - 1 do
      if Float.abs (x.(i) -. y.(i)) > tol y.(i) then ok := false
    done;
    !ok

(* A random linear netlist and its MNA system, stamped here without the
   engine: gmin on every node diagonal, resistor conductances, injected
   currents and ±1 source incidences. A resistor spanning tree ties
   every node to ground and extra resistors close loops; one or two
   voltage sources drive node k against ground or a higher node, so they
   never form a loop. Node unknowns come first, as in the engine; branch
   k is source k. Returns the netlist, its nodes (ground first), the
   source names, the matrix and the right-hand side. *)
let random_linear_circuit ~nodes ~seed =
  let rand = lcg seed in
  let pick k = min (k - 1) (int_of_float (rand () *. float_of_int k)) in
  let nl = Netlist.create () in
  let node_of =
    Array.init (nodes + 1) (fun k ->
        if k = 0 then Netlist.ground
        else Netlist.node nl (Printf.sprintf "n%d" k))
  in
  let sources = 1 + pick 2 in
  let n = nodes + sources in
  let a = Linear.matrix n and b = Array.make n 0.0 in
  (* Matrix row of node k, -1 for ground. *)
  let row k = Netlist.index_of_node node_of.(k) - 1 in
  let add r c v = if r >= 0 && c >= 0 then a.(r).(c) <- a.(r).(c) +. v in
  for k = 1 to nodes do
    add (row k) (row k) Engine.default_options.Engine.gmin
  done;
  let resistor name i j =
    let r = 10.0 ** (2.0 +. (3.0 *. rand ())) in
    Netlist.add_resistor nl ~name node_of.(i) node_of.(j) r;
    let g = 1.0 /. r in
    add (row i) (row i) g;
    add (row j) (row j) g;
    add (row i) (row j) (-.g);
    add (row j) (row i) (-.g)
  in
  for k = 1 to nodes do
    resistor (Printf.sprintf "T%d" k) k (pick k)
  done;
  for e = 1 to pick (nodes + 1) do
    let i = pick (nodes + 1) and j = pick (nodes + 1) in
    if i <> j then resistor (Printf.sprintf "X%d" e) i j
  done;
  for e = 1 to pick 3 do
    let i = pick (nodes + 1) and j = pick (nodes + 1) in
    let amps = (rand () -. 0.5) *. 2e-4 in
    Netlist.add_isource nl ~name:(Printf.sprintf "I%d" e) ~pos:node_of.(i)
      ~neg:node_of.(j) (Waveform.dc amps);
    if i > 0 then b.(row i) <- b.(row i) +. amps;
    if j > 0 then b.(row j) <- b.(row j) -. amps
  done;
  let names =
    List.init sources (fun k ->
        let pos = k + 1 in
        let neg =
          if pos + 1 > nodes || pick 2 = 0 then 0
          else pos + 1 + pick (nodes - pos)
        in
        let volts = (rand () -. 0.5) *. 6.0 in
        let name = Printf.sprintf "V%d" pos in
        Netlist.add_vsource nl ~name ~pos:node_of.(pos) ~neg:node_of.(neg)
          (Waveform.dc volts);
        let branch = nodes + k in
        add (row pos) branch 1.0;
        add branch (row pos) 1.0;
        add (row neg) branch (-1.0);
        add branch (row neg) (-1.0);
        b.(branch) <- volts;
        name)
  in
  nl, node_of, names, a, b

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"engine: linear dc matches an independent MNA solve"
      (pair (int_range 2 10) (int_range 0 1_000_000))
      (fun (nodes, seed) ->
        (* Both policies share one assembly, so their agreement alone
           says nothing about stamping; this reference does not share
           it. Node voltages and source currents must match within 1e-9
           of the largest reference value of their kind. *)
        let nl, node_of, names, a, b = random_linear_circuit ~nodes ~seed in
        let x = Linear.solve a b in
        let volts =
          List.init nodes (fun k ->
              x.(Netlist.index_of_node node_of.(k + 1) - 1))
        in
        (* [source_current] is the current delivered from the + terminal,
           the negated MNA branch unknown. *)
        let amps = List.mapi (fun k _ -> -.x.(nodes + k)) names in
        let scale = List.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 in
        let close expected actual =
          let tol = 1e-9 *. scale expected in
          List.for_all2 (fun e g -> Float.abs (e -. g) <= tol) expected actual
        in
        List.for_all
          (fun solver ->
            let sol =
              Engine.with_solver solver (fun () -> Engine.dc_operating_point nl)
            in
            close volts
              (List.init nodes (fun k -> Engine.voltage sol node_of.(k + 1)))
            && close amps (List.map (Engine.source_current sol) names))
          Engine.all_solvers);
    Test.make ~name:"dc: series resistor chain divides proportionally"
      (pair (int_range 2 8) (float_range 1.0 10.0))
      (fun (n, v) ->
        let nl = Netlist.create () in
        let top = Netlist.node nl "top" in
        Netlist.add_vsource nl ~name:"V" ~pos:top ~neg:Netlist.ground (Waveform.dc v);
        let rec chain i prev =
          if i = n then
            Netlist.add_resistor nl ~name:(Printf.sprintf "R%d" i) prev
              Netlist.ground 1000.0
          else begin
            let next = Netlist.node nl (Printf.sprintf "n%d" i) in
            Netlist.add_resistor nl ~name:(Printf.sprintf "R%d" i) prev next 1000.0;
            chain (i + 1) next
          end
        in
        chain 1 top;
        let sol = Engine.dc_operating_point nl in
        (* Node k of an equal chain sits at v * (n - k) / n. *)
        let ok = ref true in
        for k = 1 to n - 1 do
          let node = Netlist.node nl (Printf.sprintf "n%d" k) in
          let expect = v *. float_of_int (n - k) /. float_of_int n in
          if Float.abs (Engine.voltage sol node -. expect) > 1e-6 *. v then
            ok := false
        done;
        !ok);
    Test.make ~name:"mos: id is antisymmetric under terminal swap"
      (pair (float_range 0.0 5.0) (float_range (-5.0) 5.0))
      (fun (vgs, vds) ->
        let fwd =
          Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:5e-6
            ~l:1e-6 ~vgs ~vds
        in
        let rev =
          Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:5e-6
            ~l:1e-6 ~vgs:(vgs -. vds) ~vds:(-.vds)
        in
        Float.abs (fwd.Mos_model.id +. rev.Mos_model.id) < 1e-12);
    Test.make ~name:"mos: current increases with vgs in saturation"
      (pair (float_range 1.0 2.0) (float_range 2.5 5.0))
      (fun (vgs, vds) ->
        let at v =
          (Mos_model.evaluate ~polarity:Mos_model.Nmos ~params:nmos ~w:5e-6
             ~l:1e-6 ~vgs:v ~vds)
            .Mos_model.id
        in
        at (vgs +. 0.1) >= at vgs);
    Test.make
      ~name:"mos: packed evaluation is bit-identical to the scalar model"
      (triple bool (pair (float_range (-1.0) 5.0) (float_range (-5.0) 5.0))
         (pair (float_range 0.5 5.0) (float_range 0.5 5.0)))
      (fun (is_pmos, (vgs, vds), (w_um, l_um)) ->
        let polarity = if is_pmos then Mos_model.Pmos else Mos_model.Nmos in
        let params =
          if is_pmos then Mos_model.default_pmos else Mos_model.default_nmos
        in
        let w = w_um *. 1e-6 and l = l_um *. 1e-6 in
        (* PMOS biases lean negative; mirror the generated values. *)
        let vgs = if is_pmos then -.vgs else vgs in
        let vds = if is_pmos then -.vds else vds in
        let scalar = Mos_model.evaluate ~polarity ~params ~w ~l ~vgs ~vds in
        let id = [| Float.nan |] and gm = [| Float.nan |] and gds = [| Float.nan |] in
        Mos_model.evaluate_packed ~n:1
          ~sign:[| (if is_pmos then -1.0 else 1.0) |]
          ~vth:[| params.Mos_model.vth |]
          ~beta:[| params.Mos_model.kp *. w /. l |]
          ~lambda:[| params.Mos_model.lambda |]
          ~vgs:[| vgs |] ~vds:[| vds |] ~id ~gm ~gds;
        scalar.Mos_model.id = id.(0)
        && scalar.Mos_model.gm = gm.(0)
        && scalar.Mos_model.gds = gds.(0));
    Test.make ~name:"linear: rank-1 update agrees with from-scratch factor"
      (pair (int_range 2 8) (int_range 0 100_000))
      (fun (n, seed) ->
        let uniform = lcg seed in
        let rand () = uniform () -. 0.5 in
        let a = Array.init n (fun _ -> Array.init n (fun _ -> rand ())) in
        (* Diagonally dominant — the SPD-ish shape gmin-stamped MNA
           matrices have, and safely far from the singularity guard. *)
        for i = 0 to n - 1 do
          let s = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 a.(i) in
          a.(i).(i) <- s +. 1.0
        done;
        let u = Array.init n (fun _ -> rand ()) in
        let v = Array.init n (fun _ -> rand ()) in
        let c = rand () in
        let b = Array.init n (fun _ -> rand ()) in
        rank1_agrees ~tol:(fun _ -> 1e-9) ~a ~u ~v ~c ~b);
    Test.make
      ~name:"linear: rank-1 update agrees with from-scratch factor, sparse"
      (pair (int_range 2 12) (int_range 0 100_000))
      (fun (n, seed) ->
        let a, b, nodes = mna_like ~tiny:false ~n ~seed in
        (* A bridging conductance c·u·uᵀ, u = e_i − e_j, between two node
           unknowns (or one of them and ground): an incidence-shaped
           update like the ones the reuse policy's Newton loop folds in
           for a moved MOSFET, whose left factor is e_d − e_s. *)
        let rand = lcg (seed + 7) in
        let node () =
          min nodes (int_of_float (rand () *. float_of_int (nodes + 1))) - 1
        in
        let u = Array.make n 0.0 in
        let i = node () and j = node () in
        if i >= 0 then u.(i) <- u.(i) +. 1.0;
        if j >= 0 then u.(j) <- u.(j) -. 1.0;
        let c = rand () +. 0.1 in
        (* Transconductance stamps leave the matrix short of diagonal
           dominance, so its conditioning varies: the bound scales with
           the solution. *)
        let tol y = 1e-9 *. (1.0 +. Float.abs y) in
        match Linear.Factor.factor a with
        | exception Linear.Singular -> true
        | _ -> rank1_agrees ~tol ~a ~u ~v:u ~c ~b);
    Test.make ~name:"linear: sparse factor repeats the dense solve exactly"
      ~count:500
      (pair (int_range 1 24) (int_range 0 1_000_000))
      (fun (n, seed) ->
        (* Same pivots, multipliers and operation order as the dense
           kernel: every entry equal under [Float.equal] (so ±0 agree),
           and both raise [Singular] on the same matrices. *)
        let a, b, _ = mna_like ~tiny:true ~n ~seed in
        let sparse =
          match Linear.Factor.solve_factored (Linear.Factor.factor a) b with
          | x -> Some x
          | exception Linear.Singular -> None
        in
        let dense =
          match Linear.solve (Array.map Array.copy a) (Array.copy b) with
          | x -> Some x
          | exception Linear.Singular -> None
        in
        match sparse, dense with
        | Some x, Some y -> Array.for_all2 Float.equal x y
        | None, None -> true
        | Some _, None | None, Some _ -> false);
    Test.make ~name:"linear: rank-1 guard refuses singular updates"
      (int_range 2 8)
      (fun n ->
        (* A = I, u = v = e0, c = -1 makes A + c·u·vᵀ exactly singular:
           the denominator guard must refuse at every size. *)
        let a = Linear.matrix n in
        for i = 0 to n - 1 do
          a.(i).(i) <- 1.0
        done;
        let e0 = Array.make n 0.0 in
        e0.(0) <- 1.0;
        let f = Linear.Factor.factor a in
        match Linear.Factor.rank1_update f ~c:(-1.0) ~u:e0 ~v:e0 with
        | None -> true
        | Some _ -> false);
    (let special =
       [ 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float;
         -.Float.min_float; 5e-324; Float.max_float; 1e-12; -1e-12 ]
     in
     let value =
       Gen.(
         frequency
           [
             3, oneofl special;
             4, map2 (fun m e -> m *. (10.0 ** float_of_int e))
                  (float_range (-1.0) 1.0) (int_range (-15) 3);
           ])
     in
     (* Half the pairs sit near the 10 % threshold, where a wrong
        magnitude would flip the decision. *)
     let pair_gen =
       Gen.(
         frequency
           [
             1, pair value value;
             1, map2 (fun cur r -> cur, cur *. (1.0 +. r))
                  value (float_range (-0.25) 0.25);
           ])
     in
     Test.make ~name:"engine: reuse test agrees with the Float.max form"
       ~count:20_000
       (make ~print:Print.(pair float float) pair_gen)
       (fun (cur, baked) ->
         let reference =
           Float.abs (cur -. baked)
           > 1e-12 +. (0.1 *. Float.max (Float.abs cur) (Float.abs baked))
         in
         Bool.equal reference (Engine.linearization_moved ~cur ~baked)));
    Test.make ~name:"waveform: pwl stays within value envelope"
      (pair (list_of_size (Gen.int_range 1 8) (float_range (-5.) 5.)) (float_range (-1.) 10.))
      (fun (values, t) ->
        let points = List.mapi (fun i v -> float_of_int i, v) values in
        let w = Waveform.pwl points in
        let lo = List.fold_left Float.min infinity values in
        let hi = List.fold_left Float.max neg_infinity values in
        let v = Waveform.value w t in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
  ]

let suites =
  [
    ( "circuit.linear",
      [
        Alcotest.test_case "known 2x2" `Quick test_linear_known_2x2;
        Alcotest.test_case "pivoting" `Quick test_linear_needs_pivoting;
        Alcotest.test_case "singular" `Quick test_linear_singular;
        Alcotest.test_case "residual" `Quick test_linear_residual;
        Alcotest.test_case "scaled singularity" `Quick
          test_linear_scaled_singularity;
        Alcotest.test_case "factor matches fresh solve" `Quick
          test_factor_matches_fresh_solve;
        Alcotest.test_case "rank-1 agrees" `Quick test_factor_rank1_agrees;
        Alcotest.test_case "rank-1 fallback" `Quick test_factor_rank1_fallback;
        Alcotest.test_case "solve into" `Quick test_factor_solve_into;
      ] );
    ( "circuit.waveform",
      [
        Alcotest.test_case "dc" `Quick test_waveform_dc;
        Alcotest.test_case "pwl" `Quick test_waveform_pwl;
        Alcotest.test_case "pwl unordered" `Quick test_waveform_pwl_rejects_unordered;
        Alcotest.test_case "pulse" `Quick test_waveform_pulse;
        Alcotest.test_case "triangle" `Quick test_waveform_triangle;
        Alcotest.test_case "scale" `Quick test_waveform_scale;
      ] );
    ( "circuit.mos_model",
      [
        Alcotest.test_case "cutoff" `Quick test_mos_cutoff;
        Alcotest.test_case "saturation" `Quick test_mos_saturation_value;
        Alcotest.test_case "triode" `Quick test_mos_triode_value;
        Alcotest.test_case "symmetry" `Quick test_mos_symmetry;
        Alcotest.test_case "pmos mirror" `Quick test_mos_pmos_mirror;
      ] );
    ( "circuit.engine.dc",
      [
        Alcotest.test_case "voltage divider" `Quick test_dc_voltage_divider;
        Alcotest.test_case "NaN source refused" `Quick test_dc_nan_source_refused;
        Alcotest.test_case "diagnostics" `Quick test_dc_diagnostics;
        Alcotest.test_case "escalation ladder" `Quick test_escalation_ladder;
        Alcotest.test_case "options override scoped" `Quick test_options_override_scoped;
        Alcotest.test_case "deadline propagates" `Quick test_dc_deadline_propagates;
        Alcotest.test_case "current source" `Quick test_dc_current_source;
        Alcotest.test_case "floating node" `Quick test_dc_floating_node_gmin;
        Alcotest.test_case "nmos diode KCL" `Quick test_dc_nmos_diode;
        Alcotest.test_case "inverter rails" `Quick test_dc_inverter_rails;
        Alcotest.test_case "inverter sweep monotone" `Quick test_dc_inverter_sweep_monotone;
        Alcotest.test_case "KCL at internal node" `Quick test_dc_kcl_at_internal_node;
      ] );
    ( "circuit.engine.transient",
      [
        Alcotest.test_case "rc charge" `Quick test_transient_rc_charge;
        Alcotest.test_case "cap holds charge" `Quick test_transient_capacitor_holds_charge;
        Alcotest.test_case "inverter switches" `Quick test_transient_inverter_switches;
        Alcotest.test_case "inverter IDDQ tiny" `Quick test_transient_supply_current_inverter;
        Alcotest.test_case "rejects bad grid" `Quick test_transient_rejects_bad_grid;
      ] );
    ( "circuit.engine.solver",
      [
        Alcotest.test_case "with_solver scoped" `Quick test_with_solver_scoped;
        Alcotest.test_case "backends agree" `Quick test_solver_backends_agree;
        Alcotest.test_case "counters at a deadline" `Quick
          test_counts_at_deadline;
        Alcotest.test_case "jacobian is the hand stamp" `Quick
          test_dense_jacobian_hand_stamp;
      ] );
    ( "circuit.engine.ac",
      [
        Alcotest.test_case "rc lowpass corner" `Quick test_ac_lowpass_corner;
        Alcotest.test_case "common-source gain" `Quick test_ac_common_source_gain;
        Alcotest.test_case "rejects bad source" `Quick test_ac_rejects_bad_source;
        Alcotest.test_case "decades grid" `Quick test_ac_decades_grid;
      ] );
    ( "circuit.netlist",
      [
        Alcotest.test_case "deep copy" `Quick test_netlist_copy_is_deep;
        Alcotest.test_case "duplicate device" `Quick test_netlist_duplicate_device;
        Alcotest.test_case "pins of node" `Quick test_netlist_pins_of_node;
        Alcotest.test_case "open via reconnect" `Quick test_netlist_split_via_reconnect;
      ] );
    "circuit.properties", List.map QCheck_alcotest.to_alcotest qcheck_props;
  ]
