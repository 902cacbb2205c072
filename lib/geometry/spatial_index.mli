(** Uniform-grid spatial index over rectangles.

    Defect sprinkling queries "which shapes does this disc touch?" millions
    of times; a bucket grid over the cell bounding box turns that from
    O(shapes) into O(1) for realistic layouts. Values of type ['a] are the
    caller's shape payloads (layer, net, device terminal…).

    The index is frozen: it is built in one call from all its entries and
    sizes its own grid, at about four entries per bucket, so the number of
    entries a small query examines does not grow with the layout. Buckets
    are flat arrays (compressed sparse rows of entry ids), not lists.

    An index may be queried from several domains at once: each query
    keeps its visited marks in domain-local scratch, not in the index. A
    callback may itself query. *)

type 'a t

(** [of_array ~bounds entries] indexes the [(rect, payload)] entries;
    entry [i] is the [i]-th element. Rectangles may extend beyond
    [bounds]; they are clamped into the boundary buckets. [entries] may be
    empty. *)
val of_array : bounds:Rect.t -> (Rect.t * 'a) array -> 'a t

(** [query_rect t rect f] applies [f] to every [(rect, payload)] whose
    rectangle overlaps-or-touches [rect], exactly once each. *)
val query_rect : 'a t -> Rect.t -> (Rect.t -> 'a -> unit) -> unit

(** [query_circle t circle f] applies [f] to every entry whose rectangle
    intersects the disc, exactly once each. *)
val query_circle : 'a t -> Circle.t -> (Rect.t -> 'a -> unit) -> unit

(** Number of entries. *)
val length : 'a t -> int
