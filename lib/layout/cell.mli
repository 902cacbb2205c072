(** Layout cells: labelled rectangles on process layers.

    Every shape carries an {e owner} describing its electrical role. Nets
    are not stored — they are recomputed by {!Extract} from geometry — but
    wires are labelled with the net they are supposed to implement, and
    device shapes with the device terminal they realize, so extraction can
    be checked against the source netlist (LVS-lite) and so the defect
    analyzer can translate a geometric event into a circuit-level fault. *)

type owner =
  | Wire of string
      (** interconnect implementing the named net *)
  | Device_terminal of { device : string; terminal : string }
      (** conducting shape bonded to a device pin (MOS s/d diffusion,
          resistor end, capacitor plate) *)
  | Gate of { device : string }
      (** poly gate strip over the channel *)
  | Channel of { device : string }
      (** active area under the gate; not a static conductor *)
  | Cut of { connects_up : bool }
      (** contact or via; [connects_up] is informational *)

type shape = {
  id : int;
  layer : Process.Layer.t;
  rect : Geometry.Rect.t;
  owner : owner;
}

type t

(** [builder name] starts an empty cell. *)
type builder

val builder : string -> builder

(** [add_shape b ~layer ~rect ~owner] registers a shape, returning its id. *)
val add_shape :
  builder -> layer:Process.Layer.t -> rect:Geometry.Rect.t -> owner:owner -> int

(** [finish b] freezes the builder. @raise Invalid_argument on an empty
    cell. *)
val finish : builder -> t

val name : t -> string
val shapes : t -> shape array
val shape : t -> int -> shape
val bounds : t -> Geometry.Rect.t

(** Total drawn area (nm²) on one layer; the global scaling step weighs
    macros by area. *)
val layer_area : t -> Process.Layer.t -> int

(** Total cell area = bounding box area. *)
val area : t -> int

(** [index t] is a spatial index over all shapes, built lazily and
    cached: entry [i] is shape [i], and its payload is the shape id. *)
val index : t -> int Geometry.Spatial_index.t

(** [fingerprint t] is the hex digest of the cell's name and every shape
    (id, layer, corners, owner), the layout part of a result-cache key
    ([Core.Codec.cell_fingerprint]). Computed on the first call for a
    cell value and kept, like {!index}; two cells with the same name and
    shapes have the same fingerprint. *)
val fingerprint : t -> string

val pp_summary : Format.formatter -> t -> unit
