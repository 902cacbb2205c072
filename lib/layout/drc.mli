(** Design-rule checking on layout cells.

    Three rule families, parameterized by the technology:

    - {b width}: every drawn shape on a patterned layer is at least the
      layer's minimum width in its narrow dimension;
    - {b spacing}: two shapes on one layer that belong to different
      electrical nets keep the layer's minimum spacing (same-net shapes
      may abut — they merge);
    - {b enclosure}: every contact/via is covered by conducting material
      on each layer it joins, with the minimum enclosure margin.

    The checker is used both as a library feature and as a guard on the
    layout synthesizer: all generated macro cells must come out clean
    (enforced in the test suite). *)

type violation = {
  rule : string;        (** "width", "spacing" or "enclosure" *)
  layer : Process.Layer.t;
  shape_a : int;        (** offending shape id *)
  shape_b : int option; (** the partner, for spacing violations *)
  detail : string;      (** human-readable measurement *)
}

(** Enclosure margin required around cuts, nm. *)
val cut_enclosure : int

(** [check ?tech cell] runs all rules (default technology:
    {!Process.Tech.cmos1um}). *)
val check : ?tech:Process.Tech.t -> Cell.t -> violation list

(** [summary violations] — count per rule name, sorted by count. *)
val summary : violation list -> (string * int) list
