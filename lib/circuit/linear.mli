(** Linear algebra for MNA systems, organized around factorizations.

    MNA matrices are mostly zeros (the comparator's n = 37 Jacobian holds
    under a hundred nonzeros of 1,369 entries), so the one factorization
    kernel is a sparse LU with partial pivoting over a {!Pattern} of the
    positions a matrix can hold. It picks the pivots of the dense kernel
    behind [solve] and repeats its multipliers and operation order on the
    stored entries, so for finite matrices the two agree bit for bit up
    to the sign of an entry that is exactly zero. The primary surface is
    {!Factor}: factor a matrix once, then reuse the factorization across
    many right-hand sides and cheap Sherman–Morrison rank-1 corrections.
    The in-place dense [solve] remains as the reference the sparse kernel
    is tested against.

    Singularity is judged relative to the matrix's largest entry (a pivot
    below [1e-30 · max|a_ij|] raises {!Singular}), so badly-scaled but
    well-conditioned systems — fA capacitor stamps next to mho-scale
    short conductances — no longer trip the historical absolute
    [1e-300] threshold. *)

exception Singular

(** Sparsity patterns in compressed sparse row form: per row, the columns
    of the positions a matrix may hold. Values travel separately, one per
    slot, so a pattern compiled once serves every matrix assembled on it. *)
module Pattern : sig
  type t

  (** [of_positions ~n iter] is the n×n pattern holding every position
      [iter] passes to its argument as [row col], duplicates merged. Rows
      keep their columns in ascending order. Working storage is reused
      per domain, so only the pattern itself is allocated.
      @raise Invalid_argument on a position out of range. *)
  val of_positions : n:int -> ((int -> int -> unit) -> unit) -> t

  (** [slot p r c] is the slot of position [(r, c)] in [p]'s value
      array, or [-1] when [p] does not store it. *)
  val slot : t -> int -> int -> int

  (** [extend p iter] is [None] when [p] holds every position [iter]
      passes to its argument as [row col]. Otherwise it is the pattern
      holding [p]'s positions and those, the one {!of_positions} would
      give for them all, beside the slot in it of each of [p]'s slots.
      @raise Invalid_argument on a position out of range. *)
  val extend : t -> ((int -> int -> unit) -> unit) -> (t * int array) option

  (** Number of stored positions (slots). *)
  val nnz : t -> int

  (** [positions p] — the position of each slot, in slot order: rows
      ascending, each row's columns ascending. *)
  val positions : t -> (int * int) array
end

(** Persistent LU factorizations with Sherman–Morrison update chains. *)
module Factor : sig
  (** A factorization of some n×n matrix [A], immutable once built.
      Internally: sparse LU factors + row permutation plus a list of
      rank-1 corrections applied on top. *)
  type t

  (** [factor_pattern p values] factors the matrix whose entry at slot
      [s] of [p] is [values.(s)] (zero elsewhere); [values] is left
      untouched. A sparse LU eliminates over the pattern: partial
      pivoting on the largest magnitude, lowest position on ties, fill-in
      tracked in a per-domain workspace reused across calls. A call does
      no O(n²) work and allocates only the factor's own L and U arrays.
      @raise Singular when pivoting finds no usable pivot.
      @raise Invalid_argument on a value-count mismatch. *)
  val factor_pattern : Pattern.t -> float array -> t

  (** [factor a] is [factor_pattern] on the pattern of [a]'s nonzero
      entries, derived with one scan; [a] is left untouched.
      @raise Singular when pivoting finds no usable pivot.
      @raise Invalid_argument on a non-square matrix. *)
  val factor : float array array -> t

  (** [solve_into t b ~into] solves [A·x = b] through the stored
      factorization and update chain, writing [x] into [into] and
      allocating nothing; [b] is left untouched. This is the one solve
      path: {!solve_factored} and {!rank1_update} go through it.
      @raise Invalid_argument on shape mismatch, or when [into] is [b]. *)
  val solve_into : t -> float array -> into:float array -> unit

  (** [solve_factored t b] is {!solve_into} into a fresh array.
      @raise Invalid_argument on shape mismatch. *)
  val solve_factored : t -> float array -> float array

  (** [rank1_update t ~c ~u ~v] is a factorization of [A + c·u·vᵀ]
      obtained by the Sherman–Morrison identity — one solve through the
      factors and a dot product over [v]'s nonzeros, no
      re-factorization. [u] and [v] are not retained, so a caller may
      reuse them as scratch. Returns [None] when the update denominator
      [1 + c·vᵀA⁻¹u] is too close to zero (the updated matrix is near
      singular), in which case the caller must re-factor from scratch.
      The guard is a pure function of the numbers, never of timing.
      @raise Invalid_argument on shape mismatch. *)
  val rank1_update : t -> c:float -> u:float array -> v:float array -> t option

  (** Number of rank-1 corrections stacked on the base factorization.
      Each correction adds one dot product + axpy per solve, so callers
      should re-factor once this grows past a handful. *)
  val updates : t -> int

  (** Dimension of the factored matrix. *)
  val size : t -> int
end

(** [solve a b] solves [a · x = b], overwriting both [a] (with its LU
    factors) and [b] (with the solution), and returns [b].
    @raise Singular when pivoting finds no usable pivot.
    @raise Invalid_argument on shape mismatch. *)
val solve : float array array -> float array -> float array

(** [matrix n] is a fresh n×n zero matrix. *)
val matrix : int -> float array array

(** [residual a x b] is the max-norm of [a·x - b]; for tests. *)
val residual : float array array -> float array -> float array -> float
