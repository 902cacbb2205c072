exception No_convergence of string

type options = {
  gmin : float;
  abstol : float;
  vntol : float;
  reltol : float;
  max_iterations : int;
  max_step_voltage : float;
}

let default_options =
  {
    gmin = 1e-12;
    abstol = 1e-10;
    vntol = 1e-6;
    reltol = 1e-4;
    max_iterations = 150;
    max_step_voltage = 0.5;
  }

(* --- escalation ladder ------------------------------------------------ *)

let escalation_levels = 3

let escalation base ~level =
  let level = max 0 (min level escalation_levels) in
  if level = 0 then base
  else
    let pow10 n = 10.0 ** float_of_int n in
    {
      base with
      reltol = base.reltol *. pow10 level;
      gmin = (if level >= 2 then base.gmin *. pow10 (2 * (level - 1)) else base.gmin);
      vntol = (if level >= 3 then base.vntol *. 10.0 else base.vntol);
      abstol = (if level >= 3 then base.abstol *. 10.0 else base.abstol);
      max_iterations = base.max_iterations * (1 lsl level);
    }

(* --- scoped options override ------------------------------------------ *)

(* Every analysis reads its options from here; the retry layer escalates
   a macro's measurement procedure from the outside by installing an
   override for the dynamic extent of one attempt. The key is
   domain-local, so concurrent pool workers cannot see each other's
   escalation state. *)
let options_override : options option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_options () =
  match Domain.DLS.get options_override with
  | Some options -> options
  | None -> default_options

let with_options_override options f =
  let saved = Domain.DLS.get options_override in
  Domain.DLS.set options_override (Some options);
  Fun.protect ~finally:(fun () -> Domain.DLS.set options_override saved) f

(* --- solver selection -------------------------------------------------- *)

type solver = Dense | Auto

let solver_name = function
  | Dense -> "dense"
  | Auto -> "auto"

let all_solvers = [ Dense; Auto ]
let default_solver = Auto

(* A separate key from [options_override]: the retry layer re-installs
   option overrides on every escalation attempt and must not clobber the
   run's solver choice while doing so. *)
let solver_override : solver option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_solver () =
  match Domain.DLS.get solver_override with
  | Some s -> s
  | None -> default_solver

let with_solver solver f =
  let saved = Domain.DLS.get solver_override in
  Domain.DLS.set solver_override (Some solver);
  Fun.protect ~finally:(fun () -> Domain.DLS.set solver_override saved) f

(* --- compiled netlist ------------------------------------------------ *)

type cdevice =
  | CResistor of int * int * float
  | CCapacitor of int * int * float
  | CVsource of { pos : int; neg : int; wave : Waveform.t; branch : int }
  | CIsource of { pos : int; neg : int; wave : Waveform.t }
  | CMosfet of {
      d : int;
      g : int;
      s : int;
      spec : Netlist.mosfet_spec;
    }

type compiled = {
  n_nodes : int;           (* non-ground nodes: indices 1..n_nodes *)
  n_unknowns : int;        (* nodes + vsource branches *)
  cdevices : cdevice list;
  branch_of_source : (string, int) Hashtbl.t;
}

let compile netlist =
  let n_nodes = Netlist.node_count netlist in
  let branch_of_source = Hashtbl.create 8 in
  let next_branch = ref n_nodes in
  let compile_device (dv : Netlist.device_view) =
    let pin role = Netlist.index_of_node (List.assoc role dv.pin_nodes) in
    match dv.kind with
    | Netlist.Resistor r -> CResistor (pin "+", pin "-", r)
    | Netlist.Capacitor c -> CCapacitor (pin "+", pin "-", c)
    | Netlist.Vsource wave ->
      let branch = !next_branch in
      incr next_branch;
      Hashtbl.replace branch_of_source dv.dev_name branch;
      CVsource { pos = pin "+"; neg = pin "-"; wave; branch }
    | Netlist.Isource wave -> CIsource { pos = pin "+"; neg = pin "-"; wave }
    | Netlist.Mosfet spec -> CMosfet { d = pin "d"; g = pin "g"; s = pin "s"; spec }
  in
  let cdevices = List.map compile_device (Netlist.devices netlist) in
  { n_nodes; n_unknowns = !next_branch; cdevices; branch_of_source }

(* --- solutions -------------------------------------------------------- *)

type solution = {
  sol_time : float;
  x : float array;  (* node voltages then branch currents *)
  branches : (string, int) Hashtbl.t;
}

let time sol = sol.sol_time

let voltage sol node =
  if Netlist.node_equal node Netlist.ground then 0.0
  else sol.x.(Netlist.index_of_node node - 1)

let source_current sol name =
  let branch = Hashtbl.find sol.branches name in
  (* The MNA branch unknown flows from + through the source to -; the
     current delivered into the circuit from the + terminal is its
     negation. *)
  -.sol.x.(branch)

(* --- stamping --------------------------------------------------------- *)

(* Row/column index of a node in the matrix; ground contributes nothing. *)
let idx node = node - 1

(* voltage at a node from the current guess *)
let v_of x node = if node = 0 then 0.0 else x.(idx node)

type stamp_mode =
  | Dc_mode
  | Transient_mode of { h : float; x_prev : float array }

(* --- analysis counters --------------------------------------------------- *)

(* The engine's telemetry counters, totalled in plain fields for the
   length of one analysis and handed to {!Util.Telemetry} once when it
   ends: a sink-attached [count] hashes its name, and the Newton loop
   would otherwise pay that on every iteration. *)
type counts = {
  mutable solves : int;
  mutable iterations : int;
  mutable factorizations : int;
  mutable bypasses : int;
  mutable rank1_solves : int;
  mutable rank1_fallbacks : int;
  mutable fallbacks_gmin : int;
  mutable fallbacks_source : int;
  mutable no_convergence : int;
}

let zero_counts () =
  {
    solves = 0;
    iterations = 0;
    factorizations = 0;
    bypasses = 0;
    rank1_solves = 0;
    rank1_fallbacks = 0;
    fallbacks_gmin = 0;
    fallbacks_source = 0;
    no_convergence = 0;
  }

(* Runs one analysis on zeroed counts and adds them to telemetry however
   the analysis ends — returned, out of convergence, past its deadline or
   interrupted — within the same dynamic extent, so a
   [Util.Telemetry.silenced] caller stays silent. A zero total is not
   reported, as a counter never incremented was not. *)
let counting f =
  let c = zero_counts () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (name, by) -> if by > 0 then Util.Telemetry.count ~by name)
        [
          "engine.solves", c.solves;
          "newton_iterations", c.iterations;
          "engine.factorizations", c.factorizations;
          "engine.jacobian_bypass", c.bypasses;
          "engine.rank1_solves", c.rank1_solves;
          "engine.rank1_fallbacks", c.rank1_fallbacks;
          "engine.fallback_gmin", c.fallbacks_gmin;
          "engine.fallback_source", c.fallbacks_source;
          "engine.no_convergence", c.no_convergence;
        ])
    (fun () -> f c)

(* --- the compiled plan and its factorization ---------------------------- *)

(* Every analysis keeps one mutable solver state (the plan) for its whole
   lifetime: Newton iterations, transient steps and stepping-fallback
   stages. The plan assembles the Jacobian on a pattern compiled once per
   netlist and factors it with the sparse LU. Under [Dense] (full Newton)
   every iteration re-factors. Under [Auto] (the reuse policy) the
   factorization is kept across iterations: only MOSFET stamps can change
   the matrix between solves at a fixed (gmin, h) — sources and capacitor
   history touch the right-hand side alone — so the state tracks each
   MOSFET's (gm, gds) as baked into the current factorization and
   classifies every iteration by how far the freshly evaluated
   linearization has moved:

   - nothing moved beyond tolerance: reuse the factorization as-is
     (Jacobian bypass; the chord iteration converges to the same
     nonlinear solution because ieq is built against the *baked* gm/gds,
     see [build_rhs]);
   - a few devices moved: fold each stamp delta in as two Sherman-
     Morrison rank-1 updates, dgds·(e_d−e_s)(e_d−e_s)ᵀ +
     dgm·(e_d−e_s)(e_g−e_s)ᵀ — an exact decomposition of the stamp;
   - many devices moved, the update chain grew too long, or an update
     denominator tripped the singularity guard: re-factor from scratch.

   Every decision is a pure function of device values, never of timing,
   so runs are deterministic at any job count. *)

type rstate = {
  rn : int;
  rfull_newton : bool;         (* [Dense]: re-factor at every iteration *)
  rcounts : counts;            (* the analysis's counters, see [counting] *)
  (* Jacobian pattern: every position a stamp can touch, compiled once.
     Matrices live as one value per slot; a slot index of -1 marks a
     stamp that touches ground. *)
  rpattern : Linear.Pattern.t;
  rgmin_slots : int array;     (* diagonal slot of each node *)
  rl_value : float array;      (* per linear device: 1/r, c or 1.0 *)
  rl_cap : bool array;         (* capacitor: value/h, stamped only when h > 0 *)
  rl_slots : int array;        (* four per linear device, stamping order *)
  rconst_vals : float array;   (* linear-device part of A at (gmin, h) *)
  mutable rconst_gmin : float; (* nan until first built *)
  mutable rconst_h : float;    (* 0.0 in DC *)
  rjac_vals : float array;     (* scratch: assembled A for re-factorization *)
  mutable rfactor : Linear.Factor.t option;
  rref_gm : float array;       (* per-MOSFET values baked into rfactor *)
  rref_gds : float array;
  rcur_id : float array;       (* per-MOSFET values at the current guess *)
  rcur_gm : float array;
  rcur_gds : float array;
  rupd_u : float array;        (* zero between uses: rank-1 u and v scratch *)
  rupd_v : float array;
  rrhs_fixed : float array;    (* time-fixed right-hand side of one solve *)
  rrhs : float array;
  rx_new : float array;        (* scratch: each iteration's linear solve *)
  (* Compiled stamp plan: the per-iteration work — MOSFET model
     evaluation and right-hand-side assembly — compiled once into flat
     arrays so the Newton loop is tight passes over unboxed floats
     instead of a [cdevice] list traversal with per-device dispatch and
     allocation. Node entries are 1-based (0 = ground), matching [idx]. *)
  pm_d : int array;            (* per-MOSFET drain/gate/source nodes *)
  pm_g : int array;
  pm_s : int array;
  pm_slots : int array;        (* six per MOSFET: dd dg ds sd sg ss *)
  pm_sign : float array;       (* +1.0 NMOS, -1.0 PMOS *)
  pm_vth : float array;
  pm_beta : float array;       (* kp·w/l, packed at compile time *)
  pm_lambda : float array;
  pm_vgs : float array;        (* scratch: bias at the current guess *)
  pm_vds : float array;
  pv_branch : int array;       (* vsource branch rows *)
  pv_wave : Waveform.t array;
  pi_pos : int array;          (* isource terminals *)
  pi_neg : int array;
  pi_wave : Waveform.t array;
  pc_n1 : int array;           (* capacitor terminals and values *)
  pc_n2 : int array;
  pc_c : float array;
}

let make_rstate ~full_newton ~counts compiled =
  let n = compiled.n_unknowns in
  (* Every matrix position a stamp can touch, passed to [f] as row and
     column over the unknowns, -1 standing for ground. A linear device
     touches four: slots 0 and 1 receive +value, 2 and 3 -value, a shape
     a voltage source's ±1 incidences share. A MOSFET touches six: dd dg
     ds sd sg ss. *)
  let linear_positions f = function
    | CResistor (n1, n2, _) | CCapacitor (n1, n2, _) ->
      let a = idx n1 and b = idx n2 in
      f a a;
      f b b;
      f a b;
      f b a
    | CVsource { pos; neg; branch; _ } ->
      let p = idx pos and m = idx neg in
      f p branch;
      f branch p;
      f m branch;
      f branch m
    | CIsource _ | CMosfet _ -> ()
  in
  let mos_positions f (d, g, s, _) =
    let d = idx d and g = idx g and s = idx s in
    f d d;
    f d g;
    f d s;
    f s d;
    f s g;
    f s s
  in
  let linear =
    List.filter
      (function
        | CResistor _ | CCapacitor _ | CVsource _ -> true
        | CIsource _ | CMosfet _ -> false)
      compiled.cdevices
  in
  let mos =
    List.filter_map
      (function CMosfet { d; g; s; spec } -> Some (d, g, s, spec) | _ -> None)
      compiled.cdevices
  in
  let pattern =
    Linear.Pattern.of_positions ~n (fun add ->
        let add r c = if r >= 0 && c >= 0 then add r c in
        for i = 0 to compiled.n_nodes - 1 do
          add i i
        done;
        List.iter (linear_positions add) linear;
        List.iter (mos_positions add) mos)
  in
  let slot r c =
    if r < 0 || c < 0 then -1 else Linear.Pattern.slot pattern r c
  in
  (* The slots of [per] positions per device, in stamping order. *)
  let slots ~per positions devices =
    let a = Array.make (per * List.length devices) (-1) and k = ref 0 in
    List.iter
      (positions (fun r c ->
           a.(!k) <- slot r c;
           incr k))
      devices;
    a
  in
  (* Pack the stamp plan. Within each device class the packing preserves
     netlist order, so the plan is a pure function of the compiled
     netlist and every policy decision stays deterministic. *)
  let pm_slots = slots ~per:6 mos_positions mos in
  let mos = Array.of_list mos in
  let nm = Array.length mos in
  let spec_of (_, _, _, spec) = spec in
  let vsources =
    List.filter_map
      (function CVsource { branch; wave; _ } -> Some (branch, wave) | _ -> None)
      compiled.cdevices
  in
  let isources =
    List.filter_map
      (function CIsource { pos; neg; wave } -> Some (pos, neg, wave) | _ -> None)
      compiled.cdevices
  in
  let caps =
    List.filter_map
      (function CCapacitor (n1, n2, c) -> Some (n1, n2, c) | _ -> None)
      compiled.cdevices
  in
  {
    rn = n;
    rfull_newton = full_newton;
    rcounts = counts;
    rpattern = pattern;
    rgmin_slots = Array.init compiled.n_nodes (fun i -> slot i i);
    rl_value =
      Array.of_list
        (List.map
           (function
             | CResistor (_, _, r) -> 1.0 /. r
             | CCapacitor (_, _, c) -> c
             | CVsource _ | CIsource _ | CMosfet _ -> 1.0)
           linear);
    rl_cap =
      Array.of_list
        (List.map (function CCapacitor _ -> true | _ -> false) linear);
    rl_slots = slots ~per:4 linear_positions linear;
    rconst_vals = Array.make (Linear.Pattern.nnz pattern) 0.0;
    rconst_gmin = Float.nan;
    rconst_h = Float.nan;
    rjac_vals = Array.make (Linear.Pattern.nnz pattern) 0.0;
    rfactor = None;
    rref_gm = Array.make nm 0.0;
    rref_gds = Array.make nm 0.0;
    rcur_id = Array.make nm 0.0;
    rcur_gm = Array.make nm 0.0;
    rcur_gds = Array.make nm 0.0;
    rupd_u = Array.make n 0.0;
    rupd_v = Array.make n 0.0;
    rrhs_fixed = Array.make n 0.0;
    rrhs = Array.make n 0.0;
    rx_new = Array.make n 0.0;
    pm_d = Array.map (fun (d, _, _, _) -> d) mos;
    pm_g = Array.map (fun (_, g, _, _) -> g) mos;
    pm_s = Array.map (fun (_, _, s, _) -> s) mos;
    pm_slots;
    pm_sign =
      Array.map
        (fun m ->
          match (spec_of m).Netlist.polarity with
          | Mos_model.Nmos -> 1.0
          | Mos_model.Pmos -> -1.0)
        mos;
    pm_vth = Array.map (fun m -> (spec_of m).Netlist.params.Mos_model.vth) mos;
    pm_beta =
      Array.map
        (fun m ->
          let spec = spec_of m in
          spec.Netlist.params.Mos_model.kp *. spec.Netlist.w /. spec.Netlist.l)
        mos;
    pm_lambda =
      Array.map (fun m -> (spec_of m).Netlist.params.Mos_model.lambda) mos;
    pm_vgs = Array.make nm 0.0;
    pm_vds = Array.make nm 0.0;
    pv_branch = Array.of_list (List.map (fun (b, _) -> b) vsources);
    pv_wave = Array.of_list (List.map snd vsources);
    pi_pos = Array.of_list (List.map (fun (p, _, _) -> p) isources);
    pi_neg = Array.of_list (List.map (fun (_, n2, _) -> n2) isources);
    pi_wave = Array.of_list (List.map (fun (_, _, w) -> w) isources);
    pc_n1 = Array.of_list (List.map (fun (n1, _, _) -> n1) caps);
    pc_n2 = Array.of_list (List.map (fun (_, n2, _) -> n2) caps);
    pc_c = Array.of_list (List.map (fun (_, _, c) -> c) caps);
  }

(* The plan for an analysis under the solver in effect. *)
let make_state ~counts compiled =
  make_rstate ~full_newton:(current_solver () = Dense) ~counts compiled

let[@inline] add_slot a s v =
  if s >= 0 then Array.unsafe_set a s (Array.unsafe_get a s +. v)

(* The constant part straight into the pattern's slots: gmin first, then
   the linear devices in netlist order. [assemble] adds every MOSFET
   stamp after all of these, so the order in which an entry receives its
   contributions is a fixed function of the netlist, the same under both
   policies. *)
let rebuild_const state ~gmin ~h =
  let a = state.rconst_vals in
  Array.fill a 0 (Array.length a) 0.0;
  Array.iter (fun s -> add_slot a s gmin) state.rgmin_slots;
  let slots = state.rl_slots in
  for k = 0 to Array.length state.rl_value - 1 do
    let cap = state.rl_cap.(k) in
    if (not cap) || h > 0.0 then begin
      let v = if cap then state.rl_value.(k) /. h else state.rl_value.(k) in
      add_slot a slots.(4 * k) v;
      add_slot a slots.((4 * k) + 1) v;
      add_slot a slots.((4 * k) + 2) (-.v);
      add_slot a slots.((4 * k) + 3) (-.v)
    end
  done;
  state.rconst_gmin <- gmin;
  state.rconst_h <- h;
  state.rfactor <- None

let ensure_const state ~gmin ~h =
  if not (state.rconst_gmin = gmin && state.rconst_h = h) then
    rebuild_const state ~gmin ~h

(* Batched model evaluation through the stamp plan: one pass fills the
   bias scratch, one [Mos_model.evaluate_packed] call produces all
   linearizations. Bit-identical to per-device [Mos_model.evaluate]
   (see that function's contract), with no per-iteration allocation. *)
let eval_mosfets state x =
  let nm = Array.length state.pm_d in
  let pm_d = state.pm_d and pm_g = state.pm_g and pm_s = state.pm_s in
  let vgs = state.pm_vgs and vds = state.pm_vds in
  for k = 0 to nm - 1 do
    let d = Array.unsafe_get pm_d k in
    let g = Array.unsafe_get pm_g k in
    let s = Array.unsafe_get pm_s k in
    let vs = if s = 0 then 0.0 else Array.unsafe_get x (s - 1) in
    let vg = if g = 0 then 0.0 else Array.unsafe_get x (g - 1) in
    let vd = if d = 0 then 0.0 else Array.unsafe_get x (d - 1) in
    Array.unsafe_set vgs k (vg -. vs);
    Array.unsafe_set vds k (vd -. vs)
  done;
  Mos_model.evaluate_packed ~n:nm ~sign:state.pm_sign ~vth:state.pm_vth
    ~beta:state.pm_beta ~lambda:state.pm_lambda ~vgs ~vds ~id:state.rcur_id
    ~gm:state.rcur_gm ~gds:state.rcur_gds

(* The Jacobian at the current linearization into [rjac_vals]: the
   constant part, then each MOSFET's six stamps in plan order. The plan
   holds six slots (each -1 or a pattern slot) per MOSFET, so the loop
   reads unchecked. *)
let assemble state =
  let a = state.rjac_vals in
  Array.blit state.rconst_vals 0 a 0 (Array.length a);
  let slots = state.pm_slots in
  let cur_gm = state.rcur_gm and cur_gds = state.rcur_gds in
  for k = 0 to Array.length state.pm_d - 1 do
    let gm = Array.unsafe_get cur_gm k and gds = Array.unsafe_get cur_gds k in
    let base = 6 * k in
    add_slot a (Array.unsafe_get slots base) gds;
    add_slot a (Array.unsafe_get slots (base + 1)) gm;
    add_slot a (Array.unsafe_get slots (base + 2)) (-.(gm +. gds));
    add_slot a (Array.unsafe_get slots (base + 3)) (-.gds);
    add_slot a (Array.unsafe_get slots (base + 4)) (-.gm);
    add_slot a (Array.unsafe_get slots (base + 5)) (gm +. gds)
  done

let refactor state =
  assemble state;
  match Linear.Factor.factor_pattern state.rpattern state.rjac_vals with
  | exception Linear.Singular ->
    state.rfactor <- None;
    false
  | f ->
    state.rfactor <- Some f;
    Array.blit state.rcur_gm 0 state.rref_gm 0 (Array.length state.rref_gm);
    Array.blit state.rcur_gds 0 state.rref_gds 0 (Array.length state.rref_gds);
    state.rcounts.factorizations <- state.rcounts.factorizations + 1;
    true

(* A device's linearization has "moved" when gm or gds differs from the
   value baked into the factorization by more than a relative tolerance.
   The tolerance trades factorization reuse against chord-iteration
   convergence rate (contraction ~ the staleness fraction); it does not
   affect the converged solution (see the consistency argument at
   [build_rhs]), so it can be far looser than the Newton reltol.
   10% keeps quiescent stretches of a transient on the bypass path while
   the input ramp drifts the pair's gm by well under a percent per step;
   converged KCL error stays at the Newton tolerance regardless. *)
let reuse_reltol = 0.1
let reuse_abstol = 1e-12

(* Sherman–Morrison is only cheaper than re-factoring when very few
   devices moved: each moved MOSFET costs one update (its delta is rank
   one, see [apply_mos_updates]) — a full chain solve for its [w] — and
   every stacked update taxes all later solves. Past a couple of devices
   (a clock edge moves the whole macro), re-factoring wins outright. *)
let max_moved = 2
let max_chain = 6

(* |cur − baked| > abstol + reltol·max(|cur|, |baked|), on unboxed
   floats. Both magnitudes are non-negative, so the plain comparison
   picks the value [Float.max] would; a NaN on either side makes the
   left-hand difference NaN, and the test is false whichever magnitude
   is picked, as it is under [Float.max]'s NaN result. *)
let[@inline] linearization_moved ~cur ~baked =
  let a = Float.abs cur and b = Float.abs baked in
  let m = if a >= b then a else b in
  Float.abs (cur -. baked) > reuse_abstol +. (reuse_reltol *. m)

let[@inline] moved state k =
  linearization_moved
    ~cur:(Array.unsafe_get state.rcur_gm k)
    ~baked:(Array.unsafe_get state.rref_gm k)
  || linearization_moved
       ~cur:(Array.unsafe_get state.rcur_gds k)
       ~baked:(Array.unsafe_get state.rref_gds k)

(* Adds [c] to [node]'s entry of a zeroed scratch vector; ground has no
   entry. *)
let[@inline] add_node a node c =
  if node <> 0 then a.(idx node) <- a.(idx node) +. c

let[@inline] clear_node a node = if node <> 0 then a.(idx node) <- 0.0

(* A MOSFET's linearization delta is rank one: both the gds and gm stamp
   blocks share the left factor (e_d − e_s), so
     ΔA = dgds·uds·udsᵀ + dgm·uds·ugsᵀ = uds · (dgds·uds + dgm·ugs)ᵀ
   and one Sherman–Morrison update absorbs the whole device. [uds] and
   the right factor are built in the plan's zeroed scratch and cleared
   after each update, which keeps neither. *)
let apply_mos_updates state f changed =
  let u = state.rupd_u and v = state.rupd_v in
  let rec go f = function
    | [] -> Some f
    | k :: rest ->
      let d = state.pm_d.(k) and g = state.pm_g.(k) and s = state.pm_s.(k) in
      let dgds = state.rcur_gds.(k) -. state.rref_gds.(k) in
      let dgm = state.rcur_gm.(k) -. state.rref_gm.(k) in
      add_node u d 1.0;
      if s <> 0 then u.(idx s) <- u.(idx s) -. 1.0;
      add_node v d dgds;
      add_node v s (-.(dgds +. dgm));
      add_node v g dgm;
      let updated = Linear.Factor.rank1_update f ~c:1.0 ~u ~v in
      clear_node u d;
      clear_node u s;
      clear_node v d;
      clear_node v s;
      clear_node v g;
      (match updated with
      | None -> None
      | Some f -> go f rest)
  in
  go f changed

let ensure_factor state =
  match state.rfactor with
  | None -> refactor state
  | Some _ when state.rfull_newton -> refactor state
  | Some f ->
    let changed = ref [] in
    let n_changed = ref 0 in
    for k = Array.length state.pm_d - 1 downto 0 do
      if moved state k then begin
        changed := k :: !changed;
        incr n_changed
      end
    done;
    if !n_changed = 0 then begin
      state.rcounts.bypasses <- state.rcounts.bypasses + 1;
      true
    end
    else if
      !n_changed > max_moved
      || !n_changed + Linear.Factor.updates f > max_chain
    then refactor state
    else begin
      match apply_mos_updates state f !changed with
      | Some f' ->
        state.rfactor <- Some f';
        List.iter
          (fun k ->
            state.rref_gm.(k) <- state.rcur_gm.(k);
            state.rref_gds.(k) <- state.rcur_gds.(k))
          !changed;
        state.rcounts.rank1_solves <- state.rcounts.rank1_solves + 1;
        true
      | None ->
        state.rcounts.rank1_fallbacks <- state.rcounts.rank1_fallbacks + 1;
        refactor state
    end

(* The right-hand side under a possibly stale factorization. Each MOSFET
   ieq is built against the gm/gds *baked into the factorization* (rref),
   not the fresh linearization: at a fixed point x of the resulting chord
   iteration the rref terms cancel between the matrix stamps and ieq,
   leaving exactly KCL with the exact device current id(x) — the same
   nonlinear solution full Newton converges to, independent of how stale
   the factorization is. Under full Newton rref is the fresh
   linearization and this is the ordinary Newton right-hand side.

   Stamps go in by device class, each class in netlist order: capacitor
   history, voltage sources, current sources, MOSFET ieq. As in the
   matrix, the order is fixed by the netlist alone. Everything before
   the MOSFETs depends only on the solve's (mode, alpha, t), so
   [build_rhs_fixed] builds it once per Newton solve and [build_rhs]
   copies it before adding each iteration's ieq: every entry takes the
   same additions in the same order as a build from zero would. *)
let build_rhs_fixed state ~mode ~alpha ~t =
  let rhs = state.rrhs_fixed in
  Array.fill rhs 0 state.rn 0.0;
  (match mode with
  | Dc_mode -> ()
  | Transient_mode { h; x_prev } ->
    let nc = Array.length state.pc_c in
    for k = 0 to nc - 1 do
      let n1 = Array.unsafe_get state.pc_n1 k in
      let n2 = Array.unsafe_get state.pc_n2 k in
      let geq = Array.unsafe_get state.pc_c k /. h in
      let v1 = if n1 = 0 then 0.0 else Array.unsafe_get x_prev (n1 - 1) in
      let v2 = if n2 = 0 then 0.0 else Array.unsafe_get x_prev (n2 - 1) in
      let i = geq *. (v1 -. v2) in
      if n1 <> 0 then
        Array.unsafe_set rhs (n1 - 1) (Array.unsafe_get rhs (n1 - 1) +. i);
      if n2 <> 0 then
        Array.unsafe_set rhs (n2 - 1) (Array.unsafe_get rhs (n2 - 1) -. i)
    done);
  let nv = Array.length state.pv_branch in
  for k = 0 to nv - 1 do
    Array.unsafe_set rhs
      (Array.unsafe_get state.pv_branch k)
      (alpha *. Waveform.value (Array.unsafe_get state.pv_wave k) t)
  done;
  let ni = Array.length state.pi_pos in
  for k = 0 to ni - 1 do
    let pos = Array.unsafe_get state.pi_pos k in
    let neg = Array.unsafe_get state.pi_neg k in
    let i = alpha *. Waveform.value (Array.unsafe_get state.pi_wave k) t in
    if pos <> 0 then
      Array.unsafe_set rhs (pos - 1) (Array.unsafe_get rhs (pos - 1) +. i);
    if neg <> 0 then
      Array.unsafe_set rhs (neg - 1) (Array.unsafe_get rhs (neg - 1) -. i)
  done

(* MOSFET ieq against the gm/gds baked into the factorization, on top of
   the solve's fixed part; the bias scratch still holds this guess's
   vgs/vds from [eval_mosfets]. *)
let build_rhs state =
  let rhs = state.rrhs in
  Array.blit state.rrhs_fixed 0 rhs 0 state.rn;
  let nm = Array.length state.pm_d in
  for k = 0 to nm - 1 do
    let d = Array.unsafe_get state.pm_d k in
    let s = Array.unsafe_get state.pm_s k in
    let ieq =
      Array.unsafe_get state.rcur_id k
      -. (Array.unsafe_get state.rref_gm k *. Array.unsafe_get state.pm_vgs k)
      -. (Array.unsafe_get state.rref_gds k *. Array.unsafe_get state.pm_vds k)
    in
    if s <> 0 then
      Array.unsafe_set rhs (s - 1) (Array.unsafe_get rhs (s - 1) +. ieq);
    if d <> 0 then
      Array.unsafe_set rhs (d - 1) (Array.unsafe_get rhs (d - 1) -. ieq)
  done

(* --- Newton-Raphson --------------------------------------------------- *)

(* Damped Newton over the plan. The linear solve goes through
   [ensure_factor], which re-factors every iteration under full Newton
   and otherwise picks bypass, rank-1 chain or re-factor. *)
let newton ~state ~options ~mode ~alpha ~t compiled x0 =
  let n = compiled.n_unknowns in
  let n_nodes = compiled.n_nodes in
  if Array.length x0 <> n then invalid_arg "Engine.newton: guess of wrong length";
  let x = Array.copy x0 in
  let x_new = state.rx_new in
  let h = match mode with Dc_mode -> 0.0 | Transient_mode { h; _ } -> h in
  ensure_const state ~gmin:options.gmin ~h;
  build_rhs_fixed state ~mode ~alpha ~t;
  let rec iterate remaining =
    if remaining = 0 then None
    else begin
      (* Deadline metering on the hot path: one domain-local read when no
         watchdog is armed. Expiry raises out of every fallback
         (gmin/source stepping included) — a deadline is a budget for the
         whole solve, not for one Newton attempt. *)
      Util.Watchdog.tick ();
      eval_mosfets state x;
      if not (ensure_factor state) then None
      else begin
        build_rhs state;
        (match state.rfactor with
        | Some f -> Linear.Factor.solve_into f state.rrhs ~into:x_new
        | None -> assert false);
        (* Damp voltage updates; branch currents move freely. [x] and
           [x_new] both hold the plan's n unknowns. *)
        let converged = ref true in
        for i = 0 to n - 1 do
          let xi = Array.unsafe_get x i in
          let target = Array.unsafe_get x_new i in
          let delta = target -. xi in
          let is_voltage = i < n_nodes in
          let applied =
            if is_voltage && Float.abs delta > options.max_step_voltage then begin
              converged := false;
              xi
              +. (if delta > 0. then options.max_step_voltage
                  else -.options.max_step_voltage)
            end
            else target
          in
          let tol =
            if is_voltage then options.vntol +. (options.reltol *. Float.abs applied)
            else options.abstol +. (options.reltol *. Float.abs applied)
          in
          (* Written as "not within" so that a NaN step, for which
             every comparison is false, never reads as converged. *)
          if not (Float.abs (applied -. xi) <= tol) then converged := false;
          Array.unsafe_set x i applied
        done;
        if !converged then Some (x, options.max_iterations - remaining + 1)
        else iterate (remaining - 1)
      end
    end
  in
  iterate options.max_iterations

(* Solve one point, counting the Newton iterations spent and which
   convergence aid finally succeeded. A point's iterations are counted
   when it is solved or refused, not as its attempts run, so a deadline
   that expires inside the point leaves them out. [what] names the point
   for the failure message; it is formatted only on failure, since a
   transient solves hundreds of thousands of points per run. *)
let solve_point ~state ~options ~mode ~t compiled x0 ~what =
  let spent = ref 0 in
  let try_newton ~options ~alpha x =
    match newton ~state ~options ~mode ~alpha ~t compiled x with
    | Some (x', used) ->
      spent := !spent + used;
      Some x'
    | None ->
      spent := !spent + options.max_iterations;
      None
  in
  (* Counter totals are scheduling-independent because every solve
     counts the same spend regardless of which worker ran it. *)
  let c = state.rcounts in
  let count_solve () =
    c.solves <- c.solves + 1;
    c.iterations <- c.iterations + !spent
  in
  match try_newton ~options ~alpha:1.0 x0 with
  | Some x ->
    count_solve ();
    x
  | None ->
    (* gmin stepping: solve heavily shunted, then relax toward gmin. *)
    let rec gmin_steps x = function
      | [] -> Some x
      | g :: rest ->
        (match try_newton ~options:{ options with gmin = g } ~alpha:1.0 x with
        | Some x' -> gmin_steps x' rest
        | None -> None)
    in
    let schedule = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10; options.gmin ] in
    (match gmin_steps x0 schedule with
    | Some x ->
      count_solve ();
      c.fallbacks_gmin <- c.fallbacks_gmin + 1;
      x
    | None ->
      (* Source stepping: ramp all sources from 10 % to 100 %. *)
      let rec source_steps x = function
        | [] -> Some x
        | alpha :: rest ->
          (match try_newton ~options ~alpha x with
          | Some x' -> source_steps x' rest
          | None -> None)
      in
      let alphas = [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ] in
      (match source_steps (Array.make compiled.n_unknowns 0.0) alphas with
      | Some x ->
        count_solve ();
        c.fallbacks_source <- c.fallbacks_source + 1;
        x
      | None ->
        count_solve ();
        c.no_convergence <- c.no_convergence + 1;
        raise (No_convergence (what ()))))

(* --- cross-class shared nominal warm start ------------------------------ *)

(* Most injected defects only *add* two-terminal R/C stamps between
   pre-existing nodes (bridges, pinholes, junction leaks, DS shorts and
   their derived near-misses), so the faulty circuit's operating point is
   usually a small excursion from the nominal one. [Macro.Evaluate]
   installs a [shared_nominal] context around each fault class; the
   analyses then warm-start their first DC solve by

   - stripping the injected stamps (recognized by the context's [strip]
     predicate) from the faulty netlist to recover its nominal skeleton,
   - deriving — once per worker domain, cached by (skeleton fingerprint,
     options) — the skeleton's DC operating point, and
   - starting Newton from that point instead of from zero.

   The warm start moves only Newton's first guess: the solve is the
   ordinary one and builds its first factorization fresh. A cache hit
   and a fresh derivation produce the same vector (the derivation is a
   pure function of skeleton and options), so results are byte-identical
   at any [--jobs]; the derivation itself runs [Util.Telemetry.silenced]
   (its occurrence count is per-worker, not per-input) and
   [Util.Watchdog.unmetered] (its cost must not charge whichever class
   happens to run first on the worker).

   Misses are counted and harmless: a defect that is not a pure R/C
   addition ([Node_split] changes the incidence structure,
   [Parasitic_mos] adds a nonlinear device) or a skeleton whose nominal
   solve fails starts cold, from zero. *)

type shared_nominal = { sn_id : int; sn_strip : string -> bool }

let sn_next_id = Atomic.make 0

let shared_nominal ~strip () =
  { sn_id = Atomic.fetch_and_add sn_next_id 1; sn_strip = strip }

let sn_override : shared_nominal option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_shared_nominal sn f =
  let saved = Domain.DLS.get sn_override in
  Domain.DLS.set sn_override (Some sn);
  Fun.protect ~finally:(fun () -> Domain.DLS.set sn_override saved) f

(* Per-domain cache of derived nominal operating points. A hit hands out
   a copy, so Newton never mutates a cached vector. [None] caches a
   failed derivation (skeleton did not converge) so it is not retried
   for every class. *)
let sn_cache : (int * (string, float array option) Hashtbl.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let sn_cache_for sn =
  match Domain.DLS.get sn_cache with
  | Some (id, tbl) when id = sn.sn_id -> tbl
  | Some _ | None ->
    let tbl = Hashtbl.create 8 in
    Domain.DLS.set sn_cache (Some (sn.sn_id, tbl));
    tbl

(* Bound the per-worker cache: a measure procedure with an unbounded
   family of source mutations must not pin one operating point per value.
   Reset is deterministic per worker and never affects results — only
   how often the derivation re-runs. *)
let sn_cache_limit = 32

(* The cache key is an exact, self-delimiting encoding: every float as
   its 64 bits, every int as an unsigned LEB128 varint (one byte below
   128), every string and list behind its length. Distinct (netlist,
   options) pairs thus never share a key, whatever characters a device
   name holds. *)
let rec key_int b i =
  if i land lnot 0x7f = 0 then Buffer.add_char b (Char.chr i)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (i land 0x7f)));
    key_int b (i lsr 7)
  end

let key_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let key_string b s =
  key_int b (String.length s);
  Buffer.add_string b s

let fingerprint_wave b w =
  match Waveform.view w with
  | Waveform.View_dc v ->
    Buffer.add_char b 'D';
    key_float b v
  | Waveform.View_pwl pts ->
    Buffer.add_char b 'W';
    key_int b (List.length pts);
    List.iter
      (fun (t, v) ->
        key_float b t;
        key_float b v)
      pts
  | Waveform.View_pulse { v0; v1; delay; rise; fall; width; period } ->
    Buffer.add_char b 'P';
    List.iter (key_float b) [ v0; v1; delay; rise; fall; width; period ]

(* Value-level fingerprint of a netlist's [devices] under [options]: the
   options, then device names, kinds, parameters and pin indices. Used
   only as a cache key for derived nominal entries. *)
let fingerprint ~(options : options) devices =
  let b = Buffer.create (64 * (List.length devices + 1)) in
  List.iter (key_float b)
    [ options.gmin; options.abstol; options.vntol; options.reltol;
      options.max_step_voltage ];
  key_int b options.max_iterations;
  List.iter
    (fun (dv : Netlist.device_view) ->
      key_string b dv.dev_name;
      (match dv.kind with
      | Netlist.Resistor r ->
        Buffer.add_char b 'R';
        key_float b r
      | Netlist.Capacitor c ->
        Buffer.add_char b 'C';
        key_float b c
      | Netlist.Vsource w ->
        Buffer.add_char b 'V';
        fingerprint_wave b w
      | Netlist.Isource w ->
        Buffer.add_char b 'I';
        fingerprint_wave b w
      | Netlist.Mosfet spec ->
        Buffer.add_char b
          (match spec.Netlist.polarity with
          | Mos_model.Nmos -> 'n'
          | Mos_model.Pmos -> 'p');
        List.iter (key_float b)
          [ spec.Netlist.params.Mos_model.vth;
            spec.Netlist.params.Mos_model.kp;
            spec.Netlist.params.Mos_model.lambda; spec.Netlist.w;
            spec.Netlist.l ]);
      key_int b (List.length dv.pin_nodes);
      List.iter
        (fun (role, node) ->
          key_string b role;
          key_int b (Netlist.index_of_node node))
        dv.pin_nodes)
    devices;
  Buffer.contents b

(* Derive the skeleton's DC operating point. It always runs the reuse
   policy, so the vector is bitwise identical under [Dense] and [Auto].
   Quiet and unmetered — see the section comment. *)
let sn_derive ~options stripped =
  Util.Telemetry.silenced @@ fun () ->
  Util.Watchdog.unmetered @@ fun () ->
  counting @@ fun counts ->
  let compiled = compile stripped in
  let state = make_rstate ~full_newton:false ~counts compiled in
  match
    solve_point ~state ~options ~mode:Dc_mode ~t:0.0 compiled
      (Array.make compiled.n_unknowns 0.0)
      ~what:(fun () -> "shared nominal derivation")
  with
  | exception No_convergence _ -> None
  | exception Linear.Singular -> None
  | x -> Some x

(* The skeleton is keyed by the faulty netlist's own devices less the
   stamps: [Netlist.remove_device] keeps node indices, so these are the
   bytes the stripped copy would give. The copy is made only on a miss. *)
let sn_entry sn ~options ~stamps ~skeleton netlist =
  let key = fingerprint ~options skeleton in
  let cache = sn_cache_for sn in
  match Hashtbl.find_opt cache key with
  | Some entry -> entry
  | None ->
    if Hashtbl.length cache >= sn_cache_limit then Hashtbl.reset cache;
    let stripped = Netlist.copy netlist in
    List.iter
      (fun (dv : Netlist.device_view) -> Netlist.remove_device stripped dv.dev_name)
      stamps;
    let entry = sn_derive ~options stripped in
    Hashtbl.add cache key entry;
    entry

(* The warm start for the analysis's first DC solve, if the shared
   nominal context offers one. It is part of the *analysis semantics*:
   both policies start Newton from the same derived nominal operating
   point (see [sn_derive]), so the cross-policy table-identity contract
   holds; a reuse-only warm start would let the warm path resolve
   classes the full-Newton reference cannot, and the tables would
   diverge. Every decision here is a pure function of (netlist,
   options), so the hit/miss counters are deterministic per fault
   class. *)
let try_shared_seed ~netlist ~options compiled =
  match Domain.DLS.get sn_override with
  | None -> None
  | Some sn ->
    let stamps, skeleton =
      List.partition
        (fun (dv : Netlist.device_view) -> sn.sn_strip dv.dev_name)
        (Netlist.devices netlist)
    in
    let expressible =
      stamps <> []
      && List.for_all
           (fun (dv : Netlist.device_view) ->
             match dv.kind with
             | Netlist.Resistor _ | Netlist.Capacitor _ -> true
             | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ ->
               false)
           stamps
    in
    let warm =
      if expressible then sn_entry sn ~options ~stamps ~skeleton netlist else None
    in
    match warm with
    (* A vector of another length would be a stale or colliding context
       entry: same strip predicate, different structure. *)
    | Some x when Array.length x = compiled.n_unknowns ->
      Util.Telemetry.count "engine.shared_nominal_hits";
      Some (Array.copy x)
    | Some _ | None ->
      Util.Telemetry.count "engine.shared_nominal_misses";
      None

(* --- public analyses --------------------------------------------------- *)

let make_solution compiled ~t x =
  { sol_time = t; x; branches = compiled.branch_of_source }

let dc_operating_point netlist =
  let options = current_options () in
  let compiled = compile netlist in
  counting @@ fun counts ->
  let state = make_state ~counts compiled in
  let x0 =
    match try_shared_seed ~netlist ~options compiled with
    | Some warm -> warm
    | None -> Array.make compiled.n_unknowns 0.0
  in
  make_solution compiled ~t:0.0
    (solve_point ~state ~options ~mode:Dc_mode ~t:0.0 compiled x0
       ~what:(fun () -> "dc operating point"))

(* Diagnostic: the DC Jacobian linearized at [x], assembled on the plan
   and scattered into an n×n matrix. Exposed so tests can check the
   assembly against stamps they build by hand; not a hot path. *)
let dense_jacobian netlist ~x =
  let options = current_options () in
  let compiled = compile netlist in
  if Array.length x <> compiled.n_unknowns then
    invalid_arg "Engine.dense_jacobian: x has the wrong length";
  let state = make_rstate ~full_newton:true ~counts:(zero_counts ()) compiled in
  ensure_const state ~gmin:options.gmin ~h:0.0;
  eval_mosfets state x;
  assemble state;
  Linear.Pattern.to_dense state.rpattern state.rjac_vals

let transient netlist ~stop ~step =
  if step <= 0. || stop < step then invalid_arg "Engine.transient: bad time grid";
  let options = current_options () in
  let compiled = compile netlist in
  counting @@ fun counts ->
  (* One plan for the whole transient: under the reuse policy the
     factorization built at the first step is reused (or cheaply updated)
     across every subsequent step and sub-step — the dominant win on long
     ramps where the circuit sits quiescent between clock edges. *)
  let state = make_state ~counts compiled in
  let solve ~mode ~t x ~what =
    solve_point ~state ~options ~mode ~t compiled x ~what
  in
  let x0 =
    match try_shared_seed ~netlist ~options compiled with
    | Some warm -> warm
    | None -> Array.make compiled.n_unknowns 0.0
  in
  let x_dc =
    solve ~mode:Dc_mode ~t:0.0 x0 ~what:(fun () -> "transient initial point")
  in
  let n_steps = int_of_float (Float.round (stop /. step)) in
  (* A failed Newton solve at a full step (sharp clock edge, regenerative
     transition) is retried over recursively halved sub-steps; only when
     seven levels of halving still fail is the analysis abandoned. *)
  let rec integrate x_prev ~t_prev ~h ~depth =
    let t = t_prev +. h in
    let mode = Transient_mode { h; x_prev } in
    match
      solve ~mode ~t x_prev ~what:(fun () ->
          Printf.sprintf "transient step at t=%.3e" t)
    with
    | x -> x
    | exception No_convergence _ when depth > 0 ->
      let half = h /. 2.0 in
      let x_mid = integrate x_prev ~t_prev ~h:half ~depth:(depth - 1) in
      integrate x_mid ~t_prev:(t_prev +. half) ~h:half ~depth:(depth - 1)
  in
  let rec advance i x_prev acc =
    if i > n_steps then List.rev acc
    else begin
      let t_prev = float_of_int (i - 1) *. step in
      let x = integrate x_prev ~t_prev ~h:step ~depth:7 in
      let t = float_of_int i *. step in
      advance (i + 1) x (make_solution compiled ~t x :: acc)
    end
  in
  advance 1 x_dc [ make_solution compiled ~t:0.0 x_dc ]

(* --- AC small-signal analysis ------------------------------------------ *)

(* Node voltages then branch currents, as phasors. *)
type ac_solution = Complex.t array

let ac_voltage sol node =
  if Netlist.node_equal node Netlist.ground then Complex.zero
  else sol.(Netlist.index_of_node node - 1)

let ac_magnitude_db sol node =
  20.0 *. log10 (Float.max 1e-300 (Complex.norm (ac_voltage sol node)))

let ac_phase_deg sol node = Complex.arg (ac_voltage sol node) *. 180.0 /. Float.pi

let decades ~lo ~hi ~per_decade =
  if lo <= 0. || hi <= lo || per_decade < 1 then
    invalid_arg "Engine.decades: bad grid";
  let rec build acc exponent =
    let f = 10.0 ** exponent in
    if f > hi *. 1.0000001 then List.rev acc
    else build (f :: acc) (exponent +. (1.0 /. float_of_int per_decade))
  in
  build [] (log10 lo)

let ac_sweep netlist ~source ~frequencies =
  let options = current_options () in
  List.iter
    (fun f ->
      if f <= 0. then invalid_arg "Engine.ac_sweep: frequencies must be positive")
    frequencies;
  let compiled = compile netlist in
  if not (Hashtbl.mem compiled.branch_of_source source) then
    invalid_arg
      (Printf.sprintf "Engine.ac_sweep: %S is not a voltage source" source);
  (* Operating point for the linearization. *)
  let x0 = Array.make compiled.n_unknowns 0.0 in
  let op =
    counting @@ fun counts ->
    solve_point ~state:(make_state ~counts compiled) ~options ~mode:Dc_mode
      ~t:0.0 compiled x0
      ~what:(fun () -> "ac operating point")
  in
  let n = compiled.n_unknowns in
  let re v = { Complex.re = v; im = 0.0 } in
  let stamp_y a y n1 n2 =
    if n1 <> 0 then a.(idx n1).(idx n1) <- Complex.add a.(idx n1).(idx n1) y;
    if n2 <> 0 then a.(idx n2).(idx n2) <- Complex.add a.(idx n2).(idx n2) y;
    if n1 <> 0 && n2 <> 0 then begin
      a.(idx n1).(idx n2) <- Complex.sub a.(idx n1).(idx n2) y;
      a.(idx n2).(idx n1) <- Complex.sub a.(idx n2).(idx n1) y
    end
  in
  let solve_at freq =
    let a = Linear_complex.matrix n in
    let rhs = Array.make n Complex.zero in
    for node = 1 to compiled.n_nodes do
      a.(idx node).(idx node) <-
        Complex.add a.(idx node).(idx node) (re options.gmin)
    done;
    let omega = 2.0 *. Float.pi *. freq in
    let stamp_device = function
      | CResistor (n1, n2, r) -> stamp_y a (re (1.0 /. r)) n1 n2
      | CCapacitor (n1, n2, c) ->
        stamp_y a { Complex.re = 0.0; im = omega *. c } n1 n2
      | CVsource { pos; neg; wave = _; branch } ->
        if pos <> 0 then begin
          a.(idx pos).(branch) <- Complex.add a.(idx pos).(branch) Complex.one;
          a.(branch).(idx pos) <- Complex.add a.(branch).(idx pos) Complex.one
        end;
        if neg <> 0 then begin
          a.(idx neg).(branch) <-
            Complex.sub a.(idx neg).(branch) Complex.one;
          a.(branch).(idx neg) <- Complex.sub a.(branch).(idx neg) Complex.one
        end;
        rhs.(branch) <-
          (if branch = Hashtbl.find compiled.branch_of_source source then
             Complex.one
           else Complex.zero)
      | CIsource _ -> () (* AC-quiet *)
      | CMosfet { d; g; s; spec } ->
        let vgs = v_of op g -. v_of op s in
        let vds = v_of op d -. v_of op s in
        let small =
          Mos_model.evaluate ~polarity:spec.polarity ~params:spec.params
            ~w:spec.w ~l:spec.l ~vgs ~vds
        in
        let add r c v =
          if r <> 0 && c <> 0 then a.(idx r).(idx c) <- Complex.add a.(idx r).(idx c) (re v)
        in
        add d d small.gds;
        add d g small.gm;
        add d s (-.(small.gm +. small.gds));
        add s d (-.small.gds);
        add s g (-.small.gm);
        add s s (small.gm +. small.gds)
    in
    List.iter stamp_device compiled.cdevices;
    freq, Linear_complex.solve a rhs
  in
  List.map solve_at frequencies
