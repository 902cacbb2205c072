(** The analog simulation engine: DC operating point and transient.

    Modified nodal analysis solved by LU; nonlinear devices are solved by
    damped Newton–Raphson with a gmin shunt on every node, gmin stepping
    and source stepping as fallbacks — the standard SPICE convergence
    aids, which matter here because injected faults routinely produce
    floating nodes (opens) and near-shorts.

    Every Newton iteration spends one tick of the ambient
    {!Util.Watchdog} budget, so a caller that arms a deadline with
    [Util.Watchdog.with_limits] around an analysis bounds it in solver
    iterations and/or wall-clock time; expiry raises
    [Util.Watchdog.Deadline_exceeded] out of the analysis (through the
    convergence fallbacks and transient sub-stepping — the budget covers
    the whole analysis, not one Newton attempt). With no deadline armed
    the metering is a single domain-local read per iteration.

    Convergence effort is reported only through {!Util.Telemetry}
    counters, totalled per analysis: [engine.solves] (solved points),
    [newton_iterations] (spent over every point, a failed attempt at its
    full budget), [engine.fallback_gmin] and [engine.fallback_source]
    (points that needed gmin or source stepping) and
    [engine.no_convergence] (points every aid failed). *)

exception No_convergence of string

type options = {
  gmin : float;        (** shunt conductance from every node to ground *)
  abstol : float;      (** branch-current convergence floor, A *)
  vntol : float;       (** node-voltage convergence floor, V *)
  reltol : float;      (** relative convergence criterion *)
  max_iterations : int;
  max_step_voltage : float;  (** Newton damping: max |ΔV| per iteration *)
}

val default_options : options

(** {1 Escalation ladder}

    When a simulation fails to converge even through the gmin/source
    stepping aids, [Macro.Evaluate] retries it with progressively looser
    options. The ladder is documented and deterministic; level 0
    is the base options and each higher level loosens further:

    - level 1: [reltol] ×10, [max_iterations] ×2
    - level 2: [reltol] ×100, [gmin] ×100, [max_iterations] ×4
    - level 3: [reltol] ×1000, [gmin] ×10⁴, [vntol] ×10, [abstol] ×10,
      [max_iterations] ×8

    Results obtained at an escalated level are degraded (looser
    tolerances); callers should record that they retried. *)

(** Highest meaningful escalation level (levels above clamp to it). *)
val escalation_levels : int

(** [escalation base ~level] is the ladder rung [level] applied to
    [base]; [level <= 0] returns [base] unchanged. *)
val escalation : options -> level:int -> options

(** [with_options_override options f] makes every analysis started
    inside [f] use [options] instead of {!default_options}; it is the one
    way to set them. The override is scoped to the current domain and
    dynamic extent of [f] (it nests and is exception-safe), so the retry
    layer can escalate a macro's measurement procedure without threading
    options through it. *)
val with_options_override : options -> (unit -> 'a) -> 'a

(** {1 Solver selection}

    Every analysis compiles one plan per netlist — the Jacobian pattern
    of every position a stamp can touch, the stamp slots and the packed
    MOSFET arrays — and runs one damped Newton loop over it for the
    analysis's whole lifetime (all Newton iterations, transient steps
    and stepping-fallback stages). The Jacobian is assembled on the
    pattern in an order fixed by the netlist and factored with the sparse
    LU. The solver picks the loop's factorization policy:

    - [Dense] is full Newton: re-factor at every iteration. It is the
      reference for bisecting solver regressions.
    - [Auto] (the default) is the reuse policy: keep the factorization
      while no MOSFET linearization has moved beyond a tolerance
      (Jacobian bypass), fold small changes in as Sherman–Morrison rank-1
      updates, and re-factor only when many devices move at once or an
      update's denominator guard trips.

    Both policies print identical tables. All reuse/fallback decisions
    are pure functions of device values — never of timing — so results
    are deterministic at any job count, warm or cold. Telemetry:
    [engine.factorizations], [engine.rank1_solves] (Sherman–Morrison
    updates), [engine.jacobian_bypass], [engine.rank1_fallbacks]; the
    last three stay zero under [Dense]. *)

type solver = Dense | Auto

val default_solver : solver
(** [Auto]. *)

val solver_name : solver -> string

val all_solvers : solver list
(** In CLI-enumeration order: dense, auto. *)

(** [with_solver s f] makes every analysis started inside [f] use solver
    policy [s]. Scoped to the current domain and the dynamic extent of
    [f] (nests, exception-safe), on a separate key from
    {!with_options_override} so retry escalation cannot clobber it. Note
    domain-local state does not propagate into pool workers — parallel
    drivers must re-install the override inside each worker task. *)
val with_solver : solver -> (unit -> 'a) -> 'a

val current_solver : unit -> solver
(** The solver in effect: innermost {!with_solver}, else {!default_solver}. *)

(** {1 Cross-class shared nominal warm start}

    Most injected defects only {e add} two-terminal R/C stamps between
    pre-existing nodes, so the faulty operating point is usually a small
    excursion from the nominal one. When a [shared_nominal] context is
    installed, {!dc_operating_point} and {!transient} warm-start their
    first DC solve: they strip the injected stamps (per the context's
    [strip] predicate) to recover the nominal skeleton, derive that
    skeleton's operating point — once per worker domain, cached by
    (skeleton, options) — and start Newton from it instead of from zero.
    The solve itself is unchanged and builds its first factorization
    fresh.

    The warm start is part of the analysis semantics: both policies
    start Newton from the derived nominal operating point (the
    derivation is solver-independent, so the vector is bitwise identical
    under [Dense] and [Auto] — a reuse-only warm start would let the
    warm path resolve marginal classes the full-Newton reference cannot,
    and the cross-policy table-identity contract would break). Every
    decision is a pure function of (netlist, options), so the
    determinism contract is unchanged. Faults that are not pure R/C
    additions (node splits, parasitic devices) and skeletons whose
    nominal solve fails start cold under both policies alike.

    Telemetry: [engine.shared_nominal_hits] (first solve warm-started)
    and [engine.shared_nominal_misses] (context installed but the defect
    was not a pure R/C addition, or no usable skeleton entry). Both are
    per-class deterministic; the per-worker derivation itself is
    telemetry-silenced and watchdog-unmetered so counter totals and
    iteration-budget outcomes stay byte-identical at any [--jobs]. *)

type shared_nominal

(** [shared_nominal ~strip ()] — a context whose [strip] predicate
    recognizes injected-device names (e.g. [Fault.Inject.is_fault_device]).
    Create once per run; the derived operating-point cache is per worker
    domain and keyed to the context identity. *)
val shared_nominal : strip:(string -> bool) -> unit -> shared_nominal

(** [with_shared_nominal sn f] installs the context for the dynamic
    extent of [f] on the calling domain (nests, exception-safe). As with
    {!with_solver}, domain-local state does not propagate into pool
    workers — install inside each worker task. *)
val with_shared_nominal : shared_nominal -> (unit -> 'a) -> 'a

(** One solved time point. *)
type solution

val time : solution -> float

(** [voltage sol node] — node voltage in V. *)
val voltage : solution -> Netlist.node -> float

(** [source_current sol name] is the current a voltage source delivers
    from its positive terminal into the circuit (positive when the
    circuit draws from the source). @raise Not_found for unknown names. *)
val source_current : solution -> string -> float

(** [dc_operating_point netlist] solves the bias point with sources at
    their [t = 0] values and capacitors open.
    @raise No_convergence when all fallbacks fail. *)
val dc_operating_point : Netlist.t -> solution

(** [dense_jacobian netlist ~x] — the DC MNA Jacobian
    linearized at guess [x] (length = unknowns: node voltages then
    branch currents), assembled on the plan exactly as a Newton
    iteration would and returned as an n×n matrix. A diagnostic for
    tests that check the assembly against hand-built stamps; not a hot
    path.
    @raise Invalid_argument when [x] has the wrong length. *)
val dense_jacobian : Netlist.t -> x:float array -> float array array

(** [linearization_moved ~cur ~baked] is the reuse policy's test on one
    MOSFET conductance (gm or gds): whether its value at the current
    guess, [cur], has left the value baked into the factorization,
    [baked], by more than [1e-12 + 0.1·max(|cur|, |baked|)]. A device
    whose gm or gds moved costs a rank-1 update or a re-factorization;
    otherwise the iteration reuses the factorization as-is. A NaN on
    either side never counts as moved. Pure; exposed for tests. *)
val linearization_moved : cur:float -> baked:float -> bool

(** [transient netlist ~stop ~step] integrates from 0 to [stop] with
    fixed step [step] (backward Euler), returning the DC point at [t = 0]
    followed by every accepted step in time order. *)
val transient : Netlist.t -> stop:float -> step:float -> solution list

(** {1 AC small-signal analysis}

    The circuit is linearized at its DC operating point (MOSFETs become
    gm/gds conductances, capacitors jωC admittances) and the complex MNA
    system is solved per frequency with unit AC excitation on one named
    voltage source. This is the third leg of the paper's simple test
    repertoire (DC, transient and AC measurements). *)

type ac_solution

(** Complex node voltage (phasor) for 1 V AC at the excitation source. *)
val ac_voltage : ac_solution -> Netlist.node -> Complex.t

(** Gain magnitude in dB relative to the 1 V excitation. *)
val ac_magnitude_db : ac_solution -> Netlist.node -> float

(** Phase in degrees, in (-180, 180]. *)
val ac_phase_deg : ac_solution -> Netlist.node -> float

(** [ac_sweep netlist ~source ~frequencies] — [source] must name a
    voltage source; it is excited with 1 V AC while every other source is
    AC-quiet. Frequencies in Hz, each must be positive; each comes back
    beside its solution.
    @raise Invalid_argument on an unknown or non-voltage source. *)
val ac_sweep :
  Netlist.t ->
  source:string ->
  frequencies:float list ->
  (float * ac_solution) list

(** [decades ~lo ~hi ~per_decade] — logarithmically spaced frequency grid
    from [lo] to [hi] inclusive. *)
val decades : lo:float -> hi:float -> per_decade:int -> float list
