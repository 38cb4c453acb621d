(** Elaboration of an architecture netlist into an MRRG.

    Implements the translation rules of the paper's Figs. 1–3:

    - a {b multiplexer} becomes per-context input nodes, an internal
      exclusivity node and an output node;
    - a {b register} becomes an input node in context [c] wired to an
      output node in context [(c+1) mod II];
    - a {b functional unit} with latency [L] and initiation interval
      [F] becomes, for every issue context [c] with [c mod F = 0],
      operand input nodes and an execution-slot node in context [c]
      plus a result node in context [(c+L) mod II];
    - an architecture {b wire} becomes one edge per context between the
      nodes that exist in that context (wires are combinational and do
      not cross contexts).

    Elaboration is oblivious to how the netlist was produced: the
    torus wrap links and switchbox lanes of the parametric
    {!Cgra_arch.Library} generators arrive here as ordinary wires and
    multiplexers, which is what makes the mapper
    architecture-agnostic. *)

val elaborate : Cgra_arch.Arch.t -> ii:int -> Mrrg.t
(** @raise Invalid_argument if [ii < 1]. *)

val node_name : ctx:int -> inst:string -> port:string -> string
(** The canonical node naming scheme, ["c<ctx>.<inst>.<port>"]. *)
