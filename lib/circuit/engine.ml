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

(* [devices], oldest first, over [n_nodes] nodes: each voltage source
   takes the next branch row after the nodes. Also the source names'
   branches and the unknown count. *)
let compile ~n_nodes devices =
  let branch_of_source = Hashtbl.create 8 in
  let next_branch = ref n_nodes in
  let compile_device d =
    let pin i = Netlist.index_of_node (Netlist.terminal d i) in
    match Netlist.device_kind d with
    | Netlist.Resistor r -> CResistor (pin 0, pin 1, r)
    | Netlist.Capacitor c -> CCapacitor (pin 0, pin 1, c)
    | Netlist.Vsource wave ->
      let branch = !next_branch in
      incr next_branch;
      Hashtbl.replace branch_of_source (Netlist.device_name d) branch;
      CVsource { pos = pin 0; neg = pin 1; wave; branch }
    | Netlist.Isource wave -> CIsource { pos = pin 0; neg = pin 1; wave }
    | Netlist.Mosfet spec -> CMosfet { d = pin 0; g = pin 1; s = pin 2; spec }
  in
  let cdevices = Array.map compile_device devices in
  cdevices, branch_of_source, !next_branch

(* Every device of [netlist], oldest first. *)
let oldest_first netlist =
  Array.of_list (List.rev (Netlist.newest_first netlist))

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

(* Every analysis keeps one mutable solver state for its whole lifetime:
   Newton iterations, transient steps and stepping-fallback stages. The
   state assembles the Jacobian on its plan's pattern, which holds every
   position a stamp of the netlist can touch, and factors it with the
   sparse LU. Under [Dense] (full Newton)
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

(* The plan: everything an analysis reads but never writes, so one plan
   serves any number of analyses, on any domain. Node entries are
   1-based (0 = ground), matching [idx]. *)
type plan = {
  n_nodes : int;               (* non-ground nodes: indices 1..n_nodes *)
  n_unknowns : int;            (* nodes + vsource branches *)
  branch_of_source : (string, int) Hashtbl.t;
  (* Jacobian pattern: every position a stamp can touch. Matrices live
     as one value per slot; a slot index of -1 marks a stamp that
     touches ground. *)
  pattern : Linear.Pattern.t;
  gmin_slots : int array;      (* diagonal slot of each node *)
  l_value : float array;       (* per linear device: 1/r, c or 1.0 *)
  l_cap : bool array;          (* capacitor: value/h, stamped only when h > 0 *)
  l_slots : int array;         (* four per linear device, stamping order *)
  (* Compiled stamp plan: the per-iteration work — MOSFET model
     evaluation and right-hand-side assembly — compiled once into flat
     arrays so the Newton loop is tight passes over unboxed floats
     instead of a [cdevice] list traversal with per-device dispatch and
     allocation. *)
  pm_d : int array;            (* per-MOSFET drain/gate/source nodes *)
  pm_g : int array;
  pm_s : int array;
  pm_slots : int array;        (* six per MOSFET: dd dg ds sd sg ss *)
  pm_sign : float array;       (* +1.0 NMOS, -1.0 PMOS *)
  pm_vth : float array;
  pm_beta : float array;       (* kp·w/l, packed at compile time *)
  pm_lambda : float array;
  pv_branch : int array;       (* vsource branch rows *)
  pv_wave : Waveform.t array;
  pi_pos : int array;          (* isource terminals *)
  pi_neg : int array;
  pi_wave : Waveform.t array;
  pc_n1 : int array;           (* capacitor terminals and values *)
  pc_n2 : int array;
  pc_c : float array;
}

(* The four positions of a two-terminal stamp between rows [a] and [b]
   (-1 for ground): slots 0 and 1 receive +value, 2 and 3 -value. *)
let two_terminal_positions f a b =
  f a a;
  f b b;
  f a b;
  f b a

(* Every matrix position a linear device touches, passed to [f] as row
   and column over the unknowns, -1 standing for ground. A voltage
   source's ±1 incidences share the two-terminal shape. *)
let linear_positions f = function
  | CResistor (n1, n2, _) | CCapacitor (n1, n2, _) ->
    two_terminal_positions f (idx n1) (idx n2)
  | CVsource { pos; neg; branch; _ } ->
    let p = idx pos and m = idx neg in
    f p branch;
    f branch p;
    f m branch;
    f branch m
  | CIsource _ | CMosfet _ -> ()

(* A MOSFET touches six: dd dg ds sd sg ss. *)
let mos_positions f (d, g, s, _) =
  let d = idx d and g = idx g and s = idx s in
  f d d;
  f d g;
  f d s;
  f s d;
  f s g;
  f s s

let is_linear = function
  | CResistor _ | CCapacitor _ | CVsource _ -> true
  | CIsource _ | CMosfet _ -> false

let linear_value = function
  | CResistor (_, _, r) -> 1.0 /. r
  | CCapacitor (_, _, c) -> c
  | CVsource _ | CIsource _ | CMosfet _ -> 1.0

(* The plan of [devices], oldest first, over [n_nodes] nodes. *)
let plan_of ~n_nodes devices =
  let cdevices, branch_of_source, n = compile ~n_nodes devices in
  let cdevices = Array.to_list cdevices in
  let linear = List.filter is_linear cdevices in
  let mos =
    List.filter_map
      (function CMosfet { d; g; s; spec } -> Some (d, g, s, spec) | _ -> None)
      cdevices
  in
  let pattern =
    Linear.Pattern.of_positions ~n (fun add ->
        let add r c = if r >= 0 && c >= 0 then add r c in
        for i = 0 to n_nodes - 1 do
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
     netlist order, so the plan is a pure function of the netlist and
     every policy decision stays deterministic. *)
  let pm_slots = slots ~per:6 mos_positions mos in
  let mos = Array.of_list mos in
  let spec_of (_, _, _, spec) = spec in
  let vsources =
    List.filter_map
      (function CVsource { branch; wave; _ } -> Some (branch, wave) | _ -> None)
      cdevices
  in
  let isources =
    List.filter_map
      (function CIsource { pos; neg; wave } -> Some (pos, neg, wave) | _ -> None)
      cdevices
  in
  let caps =
    List.filter_map
      (function CCapacitor (n1, n2, c) -> Some (n1, n2, c) | _ -> None)
      cdevices
  in
  {
    n_nodes;
    n_unknowns = n;
    branch_of_source;
    pattern;
    gmin_slots = Array.init n_nodes (fun i -> slot i i);
    l_value = Array.of_list (List.map linear_value linear);
    l_cap =
      Array.of_list
        (List.map (function CCapacitor _ -> true | _ -> false) linear);
    l_slots = slots ~per:4 linear_positions linear;
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
    pv_branch = Array.of_list (List.map (fun (b, _) -> b) vsources);
    pv_wave = Array.of_list (List.map snd vsources);
    pi_pos = Array.of_list (List.map (fun (p, _, _) -> p) isources);
    pi_neg = Array.of_list (List.map (fun (_, n2, _) -> n2) isources);
    pi_wave = Array.of_list (List.map (fun (_, _, w) -> w) isources);
    pc_n1 = Array.of_list (List.map (fun (n1, _, _) -> n1) caps);
    pc_n2 = Array.of_list (List.map (fun (_, n2, _) -> n2) caps);
    pc_c = Array.of_list (List.map (fun (_, _, c) -> c) caps);
  }

let fresh_plan netlist =
  plan_of ~n_nodes:(Netlist.node_count netlist) (oldest_first netlist)

(* One analysis's solver state on a plan: the factorization, the
   values baked into it and the scratch every iteration writes. *)
type rstate = {
  plan : plan;
  rfull_newton : bool;         (* [Dense]: re-factor at every iteration *)
  rcounts : counts;            (* the analysis's counters, see [counting] *)
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
  rvgs : float array;          (* per-MOSFET bias at the current guess *)
  rvds : float array;
  rupd_u : float array;        (* zero between uses: rank-1 u and v scratch *)
  rupd_v : float array;
  rrhs_fixed : float array;    (* time-fixed right-hand side of one solve *)
  rrhs : float array;
  rx_new : float array;        (* scratch: each iteration's linear solve *)
}

let make_rstate ~full_newton ~counts plan =
  let n = plan.n_unknowns and nm = Array.length plan.pm_d in
  let nnz = Linear.Pattern.nnz plan.pattern in
  {
    plan;
    rfull_newton = full_newton;
    rcounts = counts;
    rconst_vals = Array.make nnz 0.0;
    rconst_gmin = Float.nan;
    rconst_h = Float.nan;
    rjac_vals = Array.make nnz 0.0;
    rfactor = None;
    rref_gm = Array.make nm 0.0;
    rref_gds = Array.make nm 0.0;
    rcur_id = Array.make nm 0.0;
    rcur_gm = Array.make nm 0.0;
    rcur_gds = Array.make nm 0.0;
    rvgs = Array.make nm 0.0;
    rvds = Array.make nm 0.0;
    rupd_u = Array.make n 0.0;
    rupd_v = Array.make n 0.0;
    rrhs_fixed = Array.make n 0.0;
    rrhs = Array.make n 0.0;
    rx_new = Array.make n 0.0;
  }

(* The state for an analysis under the solver in effect. *)
let make_state ~counts plan =
  make_rstate ~full_newton:(current_solver () = Dense) ~counts plan

let[@inline] add_slot a s v =
  if s >= 0 then Array.unsafe_set a s (Array.unsafe_get a s +. v)

(* The constant part straight into the pattern's slots: gmin first, then
   the linear devices in netlist order. [assemble] adds every MOSFET
   stamp after all of these, so the order in which an entry receives its
   contributions is a fixed function of the netlist, the same under both
   policies. *)
let rebuild_const state ~gmin ~h =
  let a = state.rconst_vals in
  let p = state.plan in
  Array.fill a 0 (Array.length a) 0.0;
  Array.iter (fun s -> add_slot a s gmin) p.gmin_slots;
  let slots = p.l_slots in
  for k = 0 to Array.length p.l_value - 1 do
    let cap = p.l_cap.(k) in
    if (not cap) || h > 0.0 then begin
      let v = if cap then p.l_value.(k) /. h else p.l_value.(k) in
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
  let p = state.plan in
  let nm = Array.length p.pm_d in
  let pm_d = p.pm_d and pm_g = p.pm_g and pm_s = p.pm_s in
  let vgs = state.rvgs and vds = state.rvds in
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
  Mos_model.evaluate_packed ~n:nm ~sign:p.pm_sign ~vth:p.pm_vth
    ~beta:p.pm_beta ~lambda:p.pm_lambda ~vgs ~vds ~id:state.rcur_id
    ~gm:state.rcur_gm ~gds:state.rcur_gds

(* The Jacobian at the current linearization into [rjac_vals]: the
   constant part, then each MOSFET's six stamps in plan order. The plan
   holds six slots (each -1 or a pattern slot) per MOSFET, so the loop
   reads unchecked. *)
let assemble state =
  let a = state.rjac_vals in
  Array.blit state.rconst_vals 0 a 0 (Array.length a);
  let slots = state.plan.pm_slots in
  let cur_gm = state.rcur_gm and cur_gds = state.rcur_gds in
  for k = 0 to Array.length slots / 6 - 1 do
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
  match Linear.Factor.factor_pattern state.plan.pattern state.rjac_vals with
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
   the right factor are built in the state's zeroed scratch and cleared
   after each update, which keeps neither. *)
let apply_mos_updates state f changed =
  let u = state.rupd_u and v = state.rupd_v in
  let p = state.plan in
  let rec go f = function
    | [] -> Some f
    | k :: rest ->
      let d = p.pm_d.(k) and g = p.pm_g.(k) and s = p.pm_s.(k) in
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
    for k = Array.length state.rcur_gm - 1 downto 0 do
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
  let p = state.plan in
  Array.fill rhs 0 p.n_unknowns 0.0;
  (match mode with
  | Dc_mode -> ()
  | Transient_mode { h; x_prev } ->
    let nc = Array.length p.pc_c in
    for k = 0 to nc - 1 do
      let n1 = Array.unsafe_get p.pc_n1 k in
      let n2 = Array.unsafe_get p.pc_n2 k in
      let geq = Array.unsafe_get p.pc_c k /. h in
      let v1 = if n1 = 0 then 0.0 else Array.unsafe_get x_prev (n1 - 1) in
      let v2 = if n2 = 0 then 0.0 else Array.unsafe_get x_prev (n2 - 1) in
      let i = geq *. (v1 -. v2) in
      if n1 <> 0 then
        Array.unsafe_set rhs (n1 - 1) (Array.unsafe_get rhs (n1 - 1) +. i);
      if n2 <> 0 then
        Array.unsafe_set rhs (n2 - 1) (Array.unsafe_get rhs (n2 - 1) -. i)
    done);
  let nv = Array.length p.pv_branch in
  for k = 0 to nv - 1 do
    Array.unsafe_set rhs
      (Array.unsafe_get p.pv_branch k)
      (alpha *. Waveform.value (Array.unsafe_get p.pv_wave k) t)
  done;
  let ni = Array.length p.pi_pos in
  for k = 0 to ni - 1 do
    let pos = Array.unsafe_get p.pi_pos k in
    let neg = Array.unsafe_get p.pi_neg k in
    let i = alpha *. Waveform.value (Array.unsafe_get p.pi_wave k) t in
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
  let p = state.plan in
  Array.blit state.rrhs_fixed 0 rhs 0 p.n_unknowns;
  let nm = Array.length p.pm_d in
  for k = 0 to nm - 1 do
    let d = Array.unsafe_get p.pm_d k in
    let s = Array.unsafe_get p.pm_s k in
    let ieq =
      Array.unsafe_get state.rcur_id k
      -. (Array.unsafe_get state.rref_gm k *. Array.unsafe_get state.rvgs k)
      -. (Array.unsafe_get state.rref_gds k *. Array.unsafe_get state.rvds k)
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
let newton ~state ~options ~mode ~alpha ~t x0 =
  let n = state.plan.n_unknowns in
  let n_nodes = state.plan.n_nodes in
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
let solve_point ~state ~options ~mode ~t x0 ~what =
  let spent = ref 0 in
  let try_newton ~options ~alpha x =
    match newton ~state ~options ~mode ~alpha ~t x with
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
      (match source_steps (Array.make state.plan.n_unknowns 0.0) alphas with
      | Some x ->
        count_solve ();
        c.fallbacks_source <- c.fallbacks_source + 1;
        x
      | None ->
        count_solve ();
        c.no_convergence <- c.no_convergence + 1;
        raise (No_convergence (what ()))))

(* --- plans shared across fault classes ---------------------------------- *)

(* The interface documents what a context shares and when. Why the
   derived plan equals a build from scratch: the pattern is a set with
   ascending columns per row, so the skeleton's positions and the
   stamps' give the slots a fresh build gives, and each stamp goes in at
   its place in the netlist's own device order, so every slot and every
   right-hand-side entry takes its contributions in the same order.

   The pool workers of an analysis share its context. A template and its
   warm-start points are pure functions of the skeleton and the options,
   so which worker builds one never shows in a result. The derivation
   runs [Util.Telemetry.silenced] (it happens once per context, not once
   per input) and [Util.Watchdog.unmetered] (its cost must not charge
   whichever class happens to need it first). *)

type template = {
  t_nodes : int;
  t_devices : Netlist.device array;  (* the skeleton, oldest first *)
  (* [t_linear_before.(j)]: the linear devices among the first [j]
     skeleton devices; [t_caps_before] counts capacitors alike. *)
  t_linear_before : int array;
  t_caps_before : int array;
  t_plan : plan;
  t_warm : (options * float array option) list Atomic.t;
}

type shared_nominal = {
  sn_strip : string -> bool;
  sn_templates : template list Atomic.t;  (* newest first *)
  sn_lock : Mutex.t;  (* held to add a template or a warm-start point *)
}

let shared_nominal ~strip () =
  { sn_strip = strip; sn_templates = Atomic.make []; sn_lock = Mutex.create () }

let sn_override : shared_nominal option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_shared_nominal sn f =
  let saved = Domain.DLS.get sn_override in
  Domain.DLS.set sn_override (Some sn);
  Fun.protect ~finally:(fun () -> Domain.DLS.set sn_override saved) f

(* A context keeps at most this many templates: a measure procedure with
   an unbounded family of source values must not pin one template per
   value. Dropping them never affects results, only how often a
   template is rebuilt. *)
let template_limit = 32

let template_of ~n_nodes skeleton =
  let count_before pred =
    let a = Array.make (Array.length skeleton + 1) 0 in
    Array.iteri
      (fun j d ->
        a.(j + 1) <- (a.(j) + if pred (Netlist.device_kind d) then 1 else 0))
      skeleton;
    a
  in
  {
    t_nodes = n_nodes;
    t_devices = skeleton;
    t_linear_before =
      count_before (function
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _ -> true
        | Netlist.Isource _ | Netlist.Mosfet _ -> false);
    t_caps_before =
      count_before (function Netlist.Capacitor _ -> true | _ -> false);
    t_plan = plan_of ~n_nodes skeleton;
    t_warm = Atomic.make [];
  }

(* An R/C stamp: its terminals, its linear value (1/r or c), and the
   number of skeleton devices before it. *)
type stamp = { gap : int; n1 : int; n2 : int; value : float; cap : bool }

(* How a netlist's devices, newest first, meet a template. *)
type meeting =
  | Stamped of template * stamp list  (* the skeleton plus these, oldest first *)
  | Unstampable  (* a stamp that is not R/C *)
  | Unmatched

let meet sn t ~nodes devices =
  if nodes <> t.t_nodes then Unmatched
  else begin
    let skeleton = t.t_devices in
    let stamp j d value cap =
      let pin i = Netlist.index_of_node (Netlist.terminal d i) in
      { gap = j; n1 = pin 0; n2 = pin 1; value; cap }
    in
    let rec walk j stamps = function
      | [] -> if j = 0 then Stamped (t, stamps) else Unmatched
      | d :: rest when sn.sn_strip (Netlist.device_name d) ->
        (match Netlist.device_kind d with
        | Netlist.Resistor r -> walk j (stamp j d (1.0 /. r) false :: stamps) rest
        | Netlist.Capacitor c -> walk j (stamp j d c true :: stamps) rest
        | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ -> Unstampable)
      | d :: rest ->
        if j > 0 && Netlist.same_device d skeleton.(j - 1) then
          walk (j - 1) stamps rest
        else Unmatched
    in
    walk (Array.length skeleton) [] devices
  end

let rec meet_any sn ~nodes devices = function
  | [] -> Unmatched
  | t :: rest ->
    (match meet sn t ~nodes devices with
    | Unmatched -> meet_any sn ~nodes devices rest
    | (Stamped _ | Unstampable) as m -> m)

(* The skeleton of [devices] (newest first), oldest first, when they
   hold a stamp and every stamp is R/C. *)
let skeleton_of sn devices =
  let rec go skeleton stamped = function
    | [] -> if stamped then Some (Array.of_list skeleton) else None
    | d :: rest when sn.sn_strip (Netlist.device_name d) ->
      (match Netlist.device_kind d with
      | Netlist.Resistor _ | Netlist.Capacitor _ -> go skeleton true rest
      | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ -> None)
    | d :: rest -> go (d :: skeleton) stamped rest
  in
  go [] false devices

let meet_context sn netlist =
  let nodes = Netlist.node_count netlist in
  let devices = Netlist.newest_first netlist in
  match meet_any sn ~nodes devices (Atomic.get sn.sn_templates) with
  | (Stamped _ | Unstampable) as m -> m
  | Unmatched ->
    (match skeleton_of sn devices with
    | None -> Unmatched
    | Some skeleton ->
      Mutex.protect sn.sn_lock @@ fun () ->
      let templates = Atomic.get sn.sn_templates in
      (* Another worker may have added it meanwhile. *)
      (match meet_any sn ~nodes devices templates with
      | Stamped _ as m -> m
      | Unstampable | Unmatched ->
        let t = template_of ~n_nodes:nodes skeleton in
        Atomic.set sn.sn_templates
          (t :: (if List.length templates >= template_limit then [] else templates));
        meet sn t ~nodes devices))

(* The plan of [t]'s skeleton with [stamps] at their places. *)
let derive t stamps =
  let p = t.t_plan in
  let positions f =
    List.iter
      (fun s ->
        two_terminal_positions
          (fun r c -> if r >= 0 && c >= 0 then f r c)
          (idx s.n1) (idx s.n2))
      stamps
  in
  let pattern, remap =
    match Linear.Pattern.extend p.pattern positions with
    | None -> p.pattern, None
    | Some (pattern, remap) -> pattern, Some remap
  in
  let moved s = match remap with Some m when s >= 0 -> m.(s) | _ -> s in
  let all_moved a = if remap = None then a else Array.map moved a in
  let slot r c = if r < 0 || c < 0 then -1 else Linear.Pattern.slot pattern r c in
  (* The skeleton's linear devices up to each stamp's place, then the
     stamp. *)
  let nl = Array.length p.l_value and k = List.length stamps in
  let l_value = Array.make (nl + k) 0.0 in
  let l_cap = Array.make (nl + k) false in
  let l_slots = Array.make (4 * (nl + k)) (-1) in
  let from = ref 0 and dst = ref 0 in
  let skeleton_upto j =
    for i = !from to j - 1 do
      l_value.(!dst) <- p.l_value.(i);
      l_cap.(!dst) <- p.l_cap.(i);
      for q = 0 to 3 do
        l_slots.((4 * !dst) + q) <- moved p.l_slots.((4 * i) + q)
      done;
      incr dst
    done;
    from := j
  in
  List.iter
    (fun s ->
      skeleton_upto t.t_linear_before.(s.gap);
      l_value.(!dst) <- s.value;
      l_cap.(!dst) <- s.cap;
      let q = ref (4 * !dst) in
      two_terminal_positions
        (fun r c ->
          l_slots.(!q) <- slot r c;
          incr q)
        (idx s.n1) (idx s.n2);
      incr dst)
    stamps;
  skeleton_upto nl;
  (* Capacitors alike, for their history in the right-hand side. *)
  let pc_n1, pc_n2, pc_c =
    match List.filter (fun s -> s.cap) stamps with
    | [] -> p.pc_n1, p.pc_n2, p.pc_c
    | caps ->
      let n = Array.length p.pc_c + List.length caps in
      let pc_n1 = Array.make n 0 and pc_n2 = Array.make n 0 in
      let pc_c = Array.make n 0.0 in
      let from = ref 0 and dst = ref 0 in
      let skeleton_upto j =
        let len = j - !from in
        Array.blit p.pc_n1 !from pc_n1 !dst len;
        Array.blit p.pc_n2 !from pc_n2 !dst len;
        Array.blit p.pc_c !from pc_c !dst len;
        dst := !dst + len;
        from := j
      in
      List.iter
        (fun s ->
          skeleton_upto t.t_caps_before.(s.gap);
          pc_n1.(!dst) <- s.n1;
          pc_n2.(!dst) <- s.n2;
          pc_c.(!dst) <- s.value;
          incr dst)
        caps;
      skeleton_upto (Array.length p.pc_c);
      pc_n1, pc_n2, pc_c
  in
  {
    p with
    pattern;
    gmin_slots = all_moved p.gmin_slots;
    l_value;
    l_cap;
    l_slots;
    pm_slots = all_moved p.pm_slots;
    pc_n1;
    pc_n2;
    pc_c;
  }

(* The plan for an analysis of [netlist] under [sn], beside the template
   whose warm start the analysis takes: the one [netlist] is the
   skeleton of plus at least one stamp. *)
let context_plan sn netlist =
  match meet_context sn netlist with
  | Stamped (t, []) -> t.t_plan, None
  | Stamped (t, stamps) -> derive t stamps, Some t
  | Unstampable | Unmatched -> fresh_plan netlist, None

(* The skeleton's DC operating point. It always runs the reuse policy,
   so the vector is bitwise identical under [Dense] and [Auto]. Quiet
   and unmetered — see the section comment. *)
let derive_warm ~options t =
  Util.Telemetry.silenced @@ fun () ->
  Util.Watchdog.unmetered @@ fun () ->
  counting @@ fun counts ->
  let state = make_rstate ~full_newton:false ~counts t.t_plan in
  match
    solve_point ~state ~options ~mode:Dc_mode ~t:0.0
      (Array.make t.t_plan.n_unknowns 0.0)
      ~what:(fun () -> "shared nominal derivation")
  with
  | exception No_convergence _ -> None
  | exception Linear.Singular -> None
  | x -> Some x

(* [None] keeps a failed derivation (the skeleton did not converge), so
   it is not retried for every class. Newton copies its first guess, so
   the kept vector is never written. *)
let warm_point sn ~options t =
  let held () = List.assoc_opt options (Atomic.get t.t_warm) in
  match held () with
  | Some x -> x
  | None ->
    Mutex.protect sn.sn_lock @@ fun () ->
    (match held () with
    | Some x -> x
    | None ->
      let x = derive_warm ~options t in
      Atomic.set t.t_warm ((options, x) :: Atomic.get t.t_warm);
      x)

(* The plan of an analysis and the point its first DC solve starts
   from, under both policies alike (the interface says why). Every
   decision here is a pure function of (netlist, options), so the
   hit/miss counters are deterministic per fault class. *)
let prepare ~options netlist =
  let cold plan = plan, Array.make plan.n_unknowns 0.0 in
  match Domain.DLS.get sn_override with
  | None -> cold (fresh_plan netlist)
  | Some sn ->
    let plan, template = context_plan sn netlist in
    (match Option.bind template (warm_point sn ~options) with
    | Some x ->
      Util.Telemetry.count "engine.shared_nominal_hits";
      plan, x
    | None ->
      Util.Telemetry.count "engine.shared_nominal_misses";
      cold plan)

(* --- public analyses --------------------------------------------------- *)

let make_solution plan ~t x =
  { sol_time = t; x; branches = plan.branch_of_source }

let run_dc ~counts ~options plan x0 =
  solve_point ~state:(make_state ~counts plan) ~options ~mode:Dc_mode ~t:0.0
    x0 ~what:(fun () -> "dc operating point")

let dc_operating_point netlist =
  let options = current_options () in
  counting @@ fun counts ->
  let plan, x0 = prepare ~options netlist in
  make_solution plan ~t:0.0 (run_dc ~counts ~options plan x0)

(* One state for the whole transient: under the reuse policy the
   factorization built at the first step is reused (or cheaply updated)
   across every subsequent step and sub-step — the dominant win on long
   ramps where the circuit sits quiescent between clock edges. *)
let run_transient ~counts ~options plan x0 ~stop ~step =
  let state = make_state ~counts plan in
  let solve ~mode ~t x ~what = solve_point ~state ~options ~mode ~t x ~what in
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
      advance (i + 1) x (make_solution plan ~t x :: acc)
    end
  in
  advance 1 x_dc [ make_solution plan ~t:0.0 x_dc ]

let check_grid ~stop ~step =
  if step <= 0. || stop < step then invalid_arg "Engine.transient: bad time grid"

let transient netlist ~stop ~step =
  check_grid ~stop ~step;
  let options = current_options () in
  counting @@ fun counts ->
  let plan, x0 = prepare ~options netlist in
  run_transient ~counts ~options plan x0 ~stop ~step

(* --- plans, for tests ---------------------------------------------------- *)

let plan netlist =
  match Domain.DLS.get sn_override with
  | None -> fresh_plan netlist
  | Some sn -> fst (context_plan sn netlist)

(* The DC Jacobian linearized at [x], assembled on the plan as a Newton
   iteration would; not a hot path. *)
let plan_jacobian plan ~x =
  if Array.length x <> plan.n_unknowns then
    invalid_arg "Engine.plan_jacobian: x has the wrong length";
  let state = make_rstate ~full_newton:true ~counts:(zero_counts ()) plan in
  ensure_const state ~gmin:(current_options ()).gmin ~h:0.0;
  eval_mosfets state x;
  assemble state;
  Array.map2
    (fun position v -> position, v)
    (Linear.Pattern.positions plan.pattern)
    state.rjac_vals

let plan_dc plan ~x0 =
  run_dc ~counts:(zero_counts ()) ~options:(current_options ()) plan x0

let plan_transient plan ~x0 ~stop ~step =
  check_grid ~stop ~step;
  List.map
    (fun sol -> sol.x)
    (run_transient ~counts:(zero_counts ()) ~options:(current_options ()) plan
       x0 ~stop ~step)

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
  let n_nodes = Netlist.node_count netlist in
  let devices = oldest_first netlist in
  let cdevices, branch_of_source, n = compile ~n_nodes devices in
  if not (Hashtbl.mem branch_of_source source) then
    invalid_arg
      (Printf.sprintf "Engine.ac_sweep: %S is not a voltage source" source);
  (* Operating point for the linearization. *)
  let op =
    counting @@ fun counts ->
    solve_point
      ~state:(make_state ~counts (plan_of ~n_nodes devices))
      ~options ~mode:Dc_mode ~t:0.0 (Array.make n 0.0)
      ~what:(fun () -> "ac operating point")
  in
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
    for node = 1 to n_nodes do
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
          (if branch = Hashtbl.find branch_of_source source then
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
    Array.iter stamp_device cdevices;
    freq, Linear_complex.solve a rhs
  in
  List.map solve_at frequencies
