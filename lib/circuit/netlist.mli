(** Circuit netlists: nodes, devices, and the mutation hooks fault
    injection needs.

    A netlist is a mutable builder. Nodes are interned by name; ground is
    the distinguished node ["0"]. Devices are named, and every terminal
    can be re-pointed at another node ([reconnect]) — this is how opens
    (node splits), shorts (bridging resistors) and device defects are
    injected without rebuilding the circuit. [copy] yields an independent
    copy so the golden netlist survives any number of injections; it
    costs what the copy then changes, not the size of the circuit. *)

type t

type node

(** The ground reference; implicitly present in every netlist. *)
val ground : node

val create : unit -> t

(** [node t name] interns a node (creating it on first use).
    @raise Invalid_argument on the reserved name ["0"]. *)
val node : t -> string -> node

(** [fresh_node t prefix] creates a new node with a unique generated name
    ([prefix], [prefix'], …). *)
val fresh_node : t -> string -> node

val find_node : t -> string -> node option
val node_name : t -> node -> string

(** All non-ground nodes, in creation order. *)
val nodes : t -> node list

(** Number of non-ground nodes. *)
val node_count : t -> int

val node_equal : node -> node -> bool

(** {1 Devices} *)

type mosfet_spec = {
  polarity : Mos_model.polarity;
  params : Mos_model.params;
  w : float;  (** channel width, m *)
  l : float;  (** channel length, m *)
}

(** Device names must be unique per netlist; all [add_*] functions raise
    [Invalid_argument] on a duplicate name or a non-positive element
    value. *)

val add_resistor : t -> name:string -> node -> node -> float -> unit

val add_capacitor : t -> name:string -> node -> node -> float -> unit

val add_vsource : t -> name:string -> pos:node -> neg:node -> Waveform.t -> unit

val add_isource : t -> name:string -> pos:node -> neg:node -> Waveform.t -> unit

val add_mosfet :
  t ->
  name:string ->
  drain:node -> gate:node -> source:node -> bulk:node ->
  mosfet_spec ->
  unit

(** {1 Inspection} *)

type pin = { device : string; role : string }
(** A terminal reference: MOSFET roles are ["d"], ["g"], ["s"], ["b"];
    two-terminal devices use ["+"] and ["-"]. *)

val device_names : t -> string list
val has_device : t -> string -> bool
val device_count : t -> int

(** [pins_of_node t n] lists every terminal currently tied to [n]. *)
val pins_of_node : t -> node -> pin list

(** [pin_node t pin] is the node a terminal is tied to.
    @raise Not_found for an unknown device or role. *)
val pin_node : t -> pin -> node

(** {1 Mutation (fault injection)} *)

(** [reconnect t pin n] moves one device terminal to node [n].
    @raise Not_found for an unknown device or role. *)
val reconnect : t -> pin -> node -> unit

(** [remove_device t name] deletes a device. @raise Not_found if absent. *)
val remove_device : t -> string -> unit

(** [copy t] is an independent copy: no later change to either netlist
    shows in the other. The two share every device neither of them
    changes (a {!reconnect} puts a new device in its place), their
    device table, whose changes each keeps on the side until it holds
    32 of them, and their node table until one of them adds a node. A
    copy therefore costs what is then changed in it, and lookups on it
    stay about as cheap as on [t]. Copies of copies share alike. *)
val copy : t -> t

(** {1 Engine access}

    The view the simulation engine compiles; [index_of_node] maps ground
    to [0] and other nodes to contiguous indices [1..node_count]. *)

type device_kind =
  | Resistor of float
  | Capacitor of float
  | Vsource of Waveform.t
  | Isource of Waveform.t
  | Mosfet of mosfet_spec

type device_view = {
  dev_name : string;
  kind : device_kind;
  pin_nodes : (string * node) list;  (** role → node, in stamping order *)
}

val devices : t -> device_view list

(** A device as the engine reads it. A device never changes once it is
    in a netlist, so the same device (under [==]) has the same name,
    kind and terminals wherever it is met. *)
type device

(** [newest_first t] — every device of [t], the most recently added
    first. *)
val newest_first : t -> device list

val device_name : device -> string
val device_kind : device -> device_kind

(** [terminal d i] — the node of [d]'s [i]-th terminal in stamping
    order: [+] then [-] for a two-terminal device, [d g s b] for a
    MOSFET. *)
val terminal : device -> int -> node

(** [same_device a b] — whether [a] and [b] have the same name, kind
    and terminals, every value equal bit for bit; [true] at once when
    [a == b]. *)
val same_device : device -> device -> bool

(** [index_of_node n] is stable across copies of a netlist: ground is [0],
    other nodes are [1..node_count] in creation order. *)
val index_of_node : node -> int

val pp : Format.formatter -> t -> unit
