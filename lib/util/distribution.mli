(** Random-variate samplers for the Monte-Carlo subsystems.

    Defect sizes follow the classic spot-defect size distribution — density
    ∝ 1/x³ above the resolution limit — while process parameters follow
    truncated Gaussians. Discrete distributions drive the choice of defect
    mechanism per sprinkled spot. *)

(** [normal prng ~mean ~sigma] draws a Gaussian variate (Box–Muller). *)
val normal : Prng.t -> mean:float -> sigma:float -> float

(** [truncated_normal prng ~mean ~sigma ~lo ~hi] redraws until the variate
    lands in [\[lo, hi\]]; used for physical parameters that cannot go
    negative. Redraws are capped at 1000: a window many σ away from the
    mean (where the acceptance probability is essentially zero) cannot
    hang a Monte-Carlo die — after the cap the result is the mean clamped
    into [\[lo, hi\]], i.e. the bound nearer the mean.
    @raise Invalid_argument if [lo >= hi]. *)
val truncated_normal :
  Prng.t -> mean:float -> sigma:float -> lo:float -> hi:float -> float

(** [power_law_size prng ~x_min ~x_max] samples a defect diameter from the
    1/x³ spot-defect size density restricted to [\[x_min, x_max\]], by
    inversion of the CDF. Both bounds must be positive with
    [x_min < x_max]. *)
val power_law_size : Prng.t -> x_min:float -> x_max:float -> float

(** Weighted discrete distribution over the cases of ['a]. *)
type 'a discrete

(** [discrete cases] builds a sampler from [(weight, value)] pairs;
    weights must be non-negative and sum to a positive value. *)
val discrete : (float * 'a) list -> 'a discrete

(** [draw prng d] samples one value according to the weights. *)
val draw : Prng.t -> 'a discrete -> 'a

(** [cases d] returns the normalized [(probability, value)] pairs. *)
val cases : 'a discrete -> (float * 'a) list
