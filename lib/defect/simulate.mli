(** The catastrophic spot-defect simulator (VLASIC-style).

    Defects are sprinkled on the layout Monte-Carlo fashion: a mechanism
    is drawn from the line statistics, a diameter from its 1/x³ size law,
    and a position uniformly over the cell. Each spot is then analyzed
    geometrically against the extracted layout:

    - extra conducting material bridging shapes of distinct nets → short
      (or a drain-source device short, or a parasitic gate over a channel);
    - missing material severing a wire → open, with the severed-off pins
      computed by re-connecting the nets the spot cuts
      ({!Layout.Extract.split}; each such spot counts as telemetry
      [severing_spots]);
    - gate-oxide pinholes over a channel → gate leak whose site follows
      the spot position along the channel;
    - junction pinholes over source/drain diffusion → leak to the bulk;
    - thick-oxide pinholes and extra contacts where two conducting layers
      cross vertically → resistive bridges;
    - missing contacts → opens through the lost cut.

    Spots that disturb nothing are benign (most are — that is why millions
    must be sprinkled). *)

type result = {
  sprinkled : int;     (** number of spots thrown *)
  effective : int;     (** spots that produced at least one fault *)
  instances : Fault.Types.instance list;  (** catastrophic faults, one per
      circuit-level consequence of an effective spot *)
}

(** [analyze ~tech ~cell ~netlist ~extraction mechanism circle] classifies
    one spot. The [extraction] must be of the pristine [cell]. Returns the
    (possibly empty) list of catastrophic fault instances. *)
val analyze :
  tech:Process.Tech.t ->
  cell:Layout.Cell.t ->
  netlist:Circuit.Netlist.t ->
  extraction:Layout.Extract.t ->
  Process.Defect_stats.mechanism ->
  Geometry.Circle.t ->
  Fault.Types.instance list

(** Draws per sprinkling chunk ([1000]). *)
val chunk_size : int

(** [run ~tech ~stats ~cell ~netlist prng ~n] sprinkles [n] spots and
    collects the effective ones. The draws are partitioned into
    {!chunk_size}-draw chunks, each consuming its own [Util.Prng.split]
    stream, and the chunks run on the {!Util.Pool} at its process-wide
    job count. Because the partition and the stream assignment depend
    only on [n] and the PRNG state — never on the job count — the result
    is bit-identical for any job count.
    @raise Invalid_argument when [n] is not positive. *)
val run :
  tech:Process.Tech.t ->
  stats:Process.Defect_stats.t ->
  cell:Layout.Cell.t ->
  netlist:Circuit.Netlist.t ->
  Util.Prng.t ->
  n:int ->
  result
