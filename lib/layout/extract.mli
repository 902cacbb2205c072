(** Connectivity extraction: from drawn geometry to electrical nets.

    One bond table says which touching shapes connect: shapes on the same
    conducting layer, a contact with poly, active or metal1, and a via
    with metal1 or metal2; two cuts never do. Channel shapes and wells
    bond with nothing, so the source and drain of a transistor stay
    separate — exactly the property the defect analyzer relies on when
    deciding whether a spot changed the circuit.

    [extract] finds every bond in one pass over the touching pairs of the
    cell's index ({!Geometry.Spatial_index.iter_touching_pairs}), with
    each shape's layer as its kind, so a pair on layers that cannot bond
    (a metal2 riser over a metal1 track) is dropped before its rectangles
    are compared. Nets are the connected components of the bonds.

    The extraction is also the reference for fault analysis on a damaged
    cell: [split] re-connects the nets that lose shapes, which is how opens
    (severed wires, missing contacts) are classified. It costs the size of
    those nets, not of the cell. *)

type t

(** A net is identified by the lowest id among its member shapes, so ids
    do not depend on the order extraction visits shapes. *)
type net = int

val extract : Cell.t -> t

(** [split t ~removed] is what removing the listed shape ids does to the
    nets that own them. [t] must be the clean extraction of the cell. For
    each such net, ascending, it lists the net's surviving member shapes
    partitioned into connected groups: every group ascends, and the groups
    come in order of their lowest member. The result equals extracting
    the cell without the removed shapes, since removing shapes can split
    a net but never join two; only the cut nets' members are
    re-connected, by the same bond table. Removed ids that own no net (channels, out of range)
    are ignored. *)
val split : t -> removed:int list -> (net * int list list) list

(** [net_of_shape t id] is the net of a conducting or cut shape; [None]
    for channels and wells. *)
val net_of_shape : t -> int -> net option

(** All nets, each listed once, ascending. *)
val nets : t -> net list

(** [shapes_of_net t net] — member shape ids, ascending. *)
val shapes_of_net : t -> net -> int list

(** [net_name t net] is the name carried by the net's [Wire] labels;
    [None] when unlabelled. Conflicting labels are reported by
    {!check_against}, and the lexicographically first name wins here. *)
val net_name : t -> net -> string option

(** [net_of_name t name] — reverse lookup over wire labels. *)
val net_of_name : t -> string -> net option

(** [check_against t netlist] verifies the layout implements the netlist:
    every wire-labelled net is internally consistent (a single name), and
    every device pin's extracted net carries exactly the node name the
    netlist gives that pin. Returns the list of human-readable violations
    (empty = clean). *)
val check_against : t -> Circuit.Netlist.t -> string list
