(** The connectivity-based ILP formulation — a second, independent
    compilation of DFG × MRRG into a 0-1 model, in the style of Walker
    & Anderson's architecture-agnostic connectivity ILP
    (arXiv 1901.11129).

    Where the base formulation ({!Formulation}) routes each
    DFG edge as its own chain of per-sink occupancy variables, this one
    routes each {e value} as a single-driver tree shared by all of its
    sinks, and proves the tree connected with per-sink unit flows:

    - [N(i,j)] — routing node [i] belongs to value [j]'s route tree;
    - [A(m,i,j)] — tree edge: [i]'s driver for value [j] is fanin [m].
      The driver equality [N(i) = Σ A(·→i) + Σ F(producer hosts)]
      gives every used node exactly one driver — an active in-edge or
      direct injection by the placed producer;
    - [g(m,i,j,k)] — sink [k]'s unit of flow rides edge [m→i].  Flow
      is conserved at every corridor node, supplied (exactly [F]) at
      the producer's fanouts and absorbed at the placed sink's operand
      port, and capped by the tree edge it rides on ([g ≤ A]) — the
      flow-based reachability rows that replace the base model's
      per-sink continuity chains.

    All coefficients are ±1, so every row clausifies exactly through
    {!Cgra_ilp.Encode}; placement rows, exclusivity rows, group labels
    ([place:]/[excl:]/[route:val<j>]) and forced-zero pruning are
    shared vocabulary with the base formulation, which keeps LP export,
    certification, unsat-core explanation and
    {!Check} working unchanged — and makes the two
    formulations agree on feasibility verdicts (the
    [formulation-vs-conn] fuzz invariant enforces this).

    {!Formulation_intf.conn} wraps this module as formulation
    ["conn"], which makes ["conn-sat"]/["conn-bnb"] valid
    {!Solver_spec} names. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg
module Model := Cgra_ilp.Model

type t = {
  model : Model.t;
  dfg : Dfg.t;
  mrrg : Mrrg.t;
  values : Dfg.value array;     (** value index [j] -> producer and sinks *)
  f_vars : (int * int, Model.var) Hashtbl.t;
      (** (mrrg func node [p], dfg op [q]) -> F variable (shared shape
          with the base formulation) *)
  n_vars : (int * int, Model.var) Hashtbl.t;
      (** (route node [i], value [j]) -> tree-node variable N *)
  a_vars : (int * int * int, Model.var) Hashtbl.t;
      (** (fanin [m], node [i], value [j]) -> tree-edge variable A *)
  g_vars : (int * int * int * int, Model.var) Hashtbl.t;
      (** (edge src, edge dst, value [j], sink [k]) -> flow variable g;
          src may be a functional-unit node (producer source edge) *)
}

val build : ?objective:Formulation.objective -> Dfg.t -> Mrrg.t -> t
(** Construct the full model.  [objective] defaults to [Min_routing]
    (over tree-node occupancy).  Variables are restricted to
    producer→sink corridors exactly as the base builder's default
    pruning does — the same {!Cgra_mrrg.Mrrg.reachable_set} /
    {!Cgra_mrrg.Mrrg.corridor} machinery, memoized per
    producer-candidate set. *)

val mapping : t -> bool array -> Mapping.t
(** Extract a mapping from a feasible assignment: placement from the
    true [F] variables, and each sink's route by walking its unit flow
    backward from the sink's operand port to the producer's output.
    The result passes {!Check.run} for any assignment that
    satisfies the model.
    @raise Failure on an assignment that does not (a solver bug). *)

val apply_warm_phases : t -> Mapping.t -> unit
(** Seed branch phases from a heuristic mapping (placement exactly,
    route nodes as tree occupancy). *)

val describe_value : t -> int -> string
(** Human-readable [producer -> sink.op, ...] rendering of value [j].
    @raise Invalid_argument on an out-of-range index. *)

val size : t -> Formulation.size
(** Sizes in the shared vocabulary: [n_f] placement variables, [n_r]
    tree variables (N + A), [n_rk] flow variables (g). *)
