(** Uniform-grid spatial index over rectangles.

    Defect sprinkling queries "which shapes does this disc touch?" millions
    of times; a bucket grid over the cell bounding box turns that from
    O(shapes) into O(1) for realistic layouts. Values of type ['a] are the
    caller's shape payloads (layer, net, device terminal…).

    The index is frozen: it is built in one call from all its entries and
    sizes its own grid, at about four entries per bucket, so the number of
    entries a small query examines does not grow with the layout. Buckets
    are flat arrays (compressed sparse rows of entry ids), not lists.

    Besides queries, the index answers "which entries touch each other?"
    in one pass over its buckets ({!iter_touching_pairs}), which is how
    connectivity extraction finds every bond of a layout.

    An index may be queried from several domains at once: each query
    keeps its visited marks in domain-local scratch, not in the index. A
    callback may itself query. *)

type 'a t

(** [of_arrays ~bounds rects payloads] indexes entry [i] with rectangle
    [rects.(i)] and payload [payloads.(i)]; the index keeps both arrays,
    so the caller must not change them afterwards. Rectangles may extend
    beyond [bounds]; they are clamped into the boundary buckets. The
    arrays may be empty.
    @raise Invalid_argument when their lengths differ. *)
val of_arrays : bounds:Rect.t -> Rect.t array -> 'a array -> 'a t

(** [query_rect t rect f] applies [f] to every [(rect, payload)] whose
    rectangle overlaps-or-touches [rect], exactly once each. *)
val query_rect : 'a t -> Rect.t -> (Rect.t -> 'a -> unit) -> unit

(** [query_circle t circle f] applies [f] to every entry whose rectangle
    intersects the disc, exactly once each. *)
val query_circle : 'a t -> Circle.t -> (Rect.t -> 'a -> unit) -> unit

(** [iter_touching_pairs t ~kind ~bonds f] applies [f i j], [i < j], to
    every pair of entries [i] and [j] whose rectangles overlap or touch
    (a shared edge or corner counts) and whose kinds bond, exactly once
    each. [kind.(i)] is entry [i]'s kind, from [0] to [Sys.int_size - 1],
    or negative for an entry that bonds with nothing; bit [k'] of
    [bonds.(k)] says kind [k] bonds with kind [k'], and the table must be
    symmetric. A pair whose kinds do not bond is dropped before either
    rectangle is read.

    One pass over the buckets: each pair is reported in the bucket that
    holds the lower-left corner of the two rectangles' intersection, in
    bucket order. It costs the pairs of bucket-mates, not a query per
    entry.
    @raise Invalid_argument unless [kind] has one element per entry. *)
val iter_touching_pairs :
  'a t -> kind:int array -> bonds:int array -> (int -> int -> unit) -> unit

(** Number of entries. *)
val length : 'a t -> int
