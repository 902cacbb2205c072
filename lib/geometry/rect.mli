(** Axis-aligned rectangles on the layout grid.

    Coordinates are integers in nanometres. A rectangle is half-open in
    spirit but stored by corners; [width]/[height] are [x1 - x0] and
    [y1 - y0]. Degenerate (zero-area) rectangles are rejected by
    [create]. *)

type t = private { x0 : int; y0 : int; x1 : int; y1 : int }

(** [create ~x0 ~y0 ~x1 ~y1] normalizes corner order.
    @raise Invalid_argument when the area would be zero. *)
val create : x0:int -> y0:int -> x1:int -> y1:int -> t

(** [of_size ~x ~y ~w ~h] is the rectangle with lower-left corner [(x, y)].
    [w] and [h] must be positive. *)
val of_size : x:int -> y:int -> w:int -> h:int -> t

val width : t -> int
val height : t -> int

(** Area in nm². *)
val area : t -> int

(** Centre point, rounded toward the lower-left on odd sizes. *)
val center : t -> int * int

(** [contains t (x, y)] tests closed containment of a point. *)
val contains : t -> int * int -> bool

(** [overlaps a b] is [true] when the rectangles share interior area
    (touching edges do not count). *)
val overlaps : t -> t -> bool

(** [touches_or_overlaps a b] also accepts shared edges/corners; used for
    connectivity, where abutting shapes on one layer connect. *)
val touches_or_overlaps : t -> t -> bool

(** [intersection a b] is the shared interior area, if any. *)
val intersection : t -> t -> t option

(** [inflate t margin] grows the rectangle by [margin] on all four sides
    ([margin] may be negative if the result keeps positive area). *)
val inflate : t -> int -> t

(** [translate t ~dx ~dy] shifts the rectangle. *)
val translate : t -> dx:int -> dy:int -> t

(** [separation a b] is the Euclidean distance between the closest points
    of the two rectangles, [0.] when they overlap or touch. Used to decide
    whether one circular spot defect can bridge both. *)
val separation : t -> t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
