(** Uniform-grid spatial index over rectangles.

    Defect sprinkling queries "which shapes does this disc touch?" millions
    of times; a bucket grid over the cell bounding box turns that from
    O(shapes) into O(1) for realistic layouts. Values of type ['a] are the
    caller's shape payloads (layer, net, device terminal…).

    Once built, an index may be queried from several domains at once:
    each query keeps its visited marks in domain-local scratch, not in
    the index. A callback may itself query. Inserting while another
    domain queries is not supported. *)

type 'a t

(** [create ~bounds ~cell_size] builds an empty index covering [bounds];
    [cell_size] is the bucket edge in nm and must be positive. *)
val create : bounds:Rect.t -> cell_size:int -> 'a t

(** [insert t rect payload] registers a rectangle. Rectangles may extend
    beyond [bounds]; they are clamped into the boundary buckets. *)
val insert : 'a t -> Rect.t -> 'a -> unit

(** [query_rect t rect f] applies [f] to every [(rect, payload)] whose
    rectangle overlaps-or-touches [rect], exactly once each. *)
val query_rect : 'a t -> Rect.t -> (Rect.t -> 'a -> unit) -> unit

(** [query_circle t circle f] applies [f] to every entry whose rectangle
    intersects the disc, exactly once each. *)
val query_circle : 'a t -> Circle.t -> (Rect.t -> 'a -> unit) -> unit

(** Total number of inserted rectangles. *)
val length : 'a t -> int
