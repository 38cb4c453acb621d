(** Parametric grid-CGRA generator and the built-in architectures.

    The paper's test architectures (§5, Figs. 3 & 6) are one point in
    the space this module generates: an R×C grid of functional blocks.
    A block holds two operand multiplexers, one ALU, a bypass
    multiplexer providing a route-through lane, and an output register
    capturing either the ALU result or the bypassed value (Fig. 3);
    block outputs drive the input muxes of topological neighbours.
    The periphery carries one I/O pad per edge position, wired to the
    adjacent row/column bus; each row shares one memory port (Fig. 6),
    readable and writable by every block in the row.

    A {!config} varies four independent axes at arbitrary [rows]×[cols]:

    - {b topology}: the {!Topology.t} interconnect — {!Topology.Mesh}
      (the paper's [Orthogonal]), {!Topology.King_mesh} (the paper's
      [Diagonal]), and their wrap-around variants {!Topology.Torus}
      and {!Topology.Diagonal_torus};
    - {b functional-unit mix}: [Homogeneous] (every ALU multiplies) vs.
      [Heterogeneous] (multipliers only on a checkerboard — half the
      ALUs), the paper's two capability sets;
    - {b operand routing}: [Direct] (each operand/bypass mux selects
      among every source, the paper's Fig. 3 block) vs. [Switchbox n]
      (an EDGE-style operand router: [n] shared switchbox lanes select
      among the sources and the operand muxes select among lanes, so a
      tile's operand bandwidth is capped at [n] distinct values per
      context — the tile/router structure of EDGE/TRIPS-like designs);
    - context count is {e not} part of the structure: it is the [ii]
      argument given to the MRRG generator.

    Table 2's eight architectures are {!paper_configs} × two context
    counts; {!gallery} adds larger and wrapped presets (8×8, 16×16,
    switchbox tiles) under stable names. *)

type topology = Topology.t = Mesh | Torus | King_mesh | Diagonal_torus
(** Re-exported so existing [Library.Mesh]-style references work; see
    {!Topology} for the semantics of each constructor. *)

type fu_mix = Homogeneous | Heterogeneous

type route_mix = Direct | Switchbox of int
(** Operand routing inside a block: [Direct] wires every source into
    every operand mux; [Switchbox n] interposes [n] shared routing
    lanes ([n >= 1]) between the sources and the operand muxes. *)

type config = {
  rows : int;
  cols : int;
  topology : topology;
  fu_mix : fu_mix;
  route : route_mix;
}

val default : config
(** The paper's 4×4 array: [Mesh], [Homogeneous], [Direct]. *)

val make : config -> Arch.t
(** Elaborate the grid into a flat architecture netlist.
    @raise Invalid_argument on an empty grid or [Switchbox n] with
    [n < 1]. *)

val name_of_config : config -> string
(** The architecture name {!make} stamps on the netlist, e.g.
    ["homo-orth-4x4"] or ["hetero-torus-8x8-sb4"].  Stable across
    runs, so it is safe to key caches and journals on it. *)

val block_fu : row:int -> col:int -> string
(** Instance name of the ALU of the block at (row, col) — for tests
    and result rendering. *)

val block_out : row:int -> col:int -> Arch.endpoint
(** The block's registered output endpoint. *)

val has_multiplier : config -> row:int -> col:int -> bool
(** Checkerboard predicate used for the heterogeneous mix. *)

val mux_source_count : config -> row:int -> col:int -> int
(** How many sources feed the block's input muxes: topological
    neighbours plus the row memory port, the accumulator feedback and
    the bus I/O pads covering the block.  With [Direct] routing this
    is the width of the operand muxes; with [Switchbox _] it is the
    width of each switchbox lane. *)

val paper_configs : size:int -> (string * config) list
(** The four structural architectures of Table 2 (context count is
    applied later), named ["hetero-orth"], ["hetero-diag"],
    ["homo-orth"], ["homo-diag"], at [size]×[size]. *)

val find_config : size:int -> string -> config option
(** Look up a paper architecture by its Table-2 name. *)

val gallery : (string * config) list
(** Every built-in architecture under a stable, size-qualified name:
    the four paper structures at 4×4 plus generated presets — torus
    and diagonal-torus interconnect at 8×8 and 16×16, a king-mesh,
    and EDGE-style switchbox tiles.  The ADL reference manual
    ([docs/ADL.md]) prints this list with MRRG sizes, and a test pins
    the two in sync. *)

val find_gallery : string -> config option
(** Look up a {!gallery} entry by name. *)

val topology_to_string : topology -> string
(** Alias of {!Topology.short} — the compact tag used in architecture
    names (["orth"], ["diag"], ["torus"], ["dtorus"]). *)

val fu_mix_to_string : fu_mix -> string
val fu_mix_of_string : string -> fu_mix option
