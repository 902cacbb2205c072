(** Dense complex linear algebra for AC (small-signal) analysis.

    Same algorithm as {!Linear} — LU with partial pivoting — over
    [Complex.t]. Matrices are row-major [Complex.t array array]. *)

exception Singular

(** [solve a b] solves [a · x = b] in place and returns [b].
    @raise Singular when no usable pivot exists.
    @raise Invalid_argument on shape mismatch. *)
val solve : Complex.t array array -> Complex.t array -> Complex.t array

(** [matrix n] is a fresh n×n zero matrix. *)
val matrix : int -> Complex.t array array
