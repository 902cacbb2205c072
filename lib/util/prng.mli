(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the library (defect sprinkling,
    Monte-Carlo process spread, workload generation) draws from a [Prng.t]
    so that whole experiments are reproducible from a single integer seed.
    The generator is xoshiro256**, seeded through splitmix64 as its authors
    recommend; [split] derives an independent stream, which lets concurrent
    pipeline stages consume randomness without coupling their schedules. *)

type t

(** [create seed] builds a generator whose entire sequence is determined by
    [seed]. Equal seeds yield equal sequences. *)
val create : int -> t

(** [split t] advances [t] and returns a statistically independent
    generator. Use one split per subsystem so adding draws to one subsystem
    does not perturb another. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t n] is uniform in \[0, n). @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** [float t x] is uniform in \[0, x). [x] must be positive and finite. *)
val float : t -> float -> float

(** [uniform t ~lo ~hi] is uniform in \[lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool
