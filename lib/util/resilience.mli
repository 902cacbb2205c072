(** Generic fault-tolerance combinators for the simulation pipeline.

    Injected defects routinely produce pathological circuits (floating
    nodes, near-shorts) that are exactly the cases where Newton solvers
    fail; industrial defect-oriented flows treat such non-converging
    corner simulations as first-class data rather than crashes. This
    module provides the two mechanical pieces of that policy:

    - {!run}, an exception-classifying retry combinator. The caller
      supplies a deterministic escalation schedule implicitly: the work
      function receives the 0-based attempt number and is expected to
      derive its (progressively looser) solver settings from it, so a
      retry sequence is a pure function of the attempt count — never of
      wall-clock time or scheduling.
    - {!Budget_exhausted}, the failure of a run that exceeded its failure
      budget. Containment must not silently turn a completely broken run
      into an "everything unresolved" report; the caller counts the
      failures and raises this once they exceed its limit.

    Nothing here is specific to circuit simulation; the classifier
    decides which exceptions are worth retrying. *)

(** How an exception raised by one attempt should be treated. *)
type classification =
  | Retryable  (** a known failure mode; escalate and try again *)
  | Fatal      (** a programming error; re-raise immediately *)

(** The result of running a retried computation to completion. *)
type 'a outcome =
  | Resolved of { value : 'a; attempts : int }
      (** succeeded on attempt [attempts] (1 = first try, no retry). *)
  | Exhausted of { error : exn; attempts : int }
      (** every one of the [attempts] attempts raised a [Retryable]
          exception; [error] is the last one. *)

(** [run ~classify ~attempts f] calls [f ~attempt] with [attempt] going
    0, 1, 2, … until it returns a value, raises a [Fatal] exception (which
    propagates unchanged, with its backtrace), or [attempts] attempts have
    been used up. [attempts] must be at least 1.
    @raise Invalid_argument if [attempts < 1]. *)
val run :
  classify:(exn -> classification) ->
  attempts:int ->
  (attempt:int -> 'a) ->
  'a outcome

(** {1 Failure budget} *)

exception Budget_exhausted of { failures : int; limit : int }
