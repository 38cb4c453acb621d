(** The paper's ILP formulation (§4): DFG × MRRG → 0-1 model.

    Three families of binary variables are created (paper §4.1):
    - [F(p,q)] — operation [q] executes on functional-unit node [p];
      created only when [p] supports [q]'s operation, which realises
      the Functional Unit Legality constraint (3) by omission;
    - [R(i,j)] — routing node [i] carries value [j];
    - [R(i,j,k)] — routing node [i] carries value [j] on its way to
      sink [k] (one sink per sub-value, paper Fig. 5).

    Constraints (1)–(9) and objective (10) are emitted as described in
    the paper, with two implementation refinements documented in
    DESIGN.md: sub-value variables exist only on routing nodes that lie
    on some producer→sink corridor (an exactness-preserving pruning),
    and operand routing is positional (each sink terminates at the
    operand port its DFG edge names), which on the symmetric-mux test
    architectures loses no mappings. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg
module Ilp := Cgra_ilp

type objective =
  | Feasibility        (** decide mappability only (Table 2) *)
  | Min_routing        (** paper objective (10): minimise used routing nodes *)
  | Weighted of (Mrrg.node -> int)
      (** §4.2's weighted variant, e.g. penalising power-hungry nodes *)

and t = {
  model : Ilp.Model.t;
  dfg : Dfg.t;
  mrrg : Mrrg.t;
  values : Dfg.value array;      (** value index [j] -> producer and sinks *)
  f_vars : ((int * int), Ilp.Model.var) Hashtbl.t;
      (** (mrrg func node [p], dfg op [q]) -> F variable *)
  r_vars : ((int * int), Ilp.Model.var) Hashtbl.t;
      (** (mrrg route node [i], value [j]) -> R variable *)
  rk_vars : ((int * int * int), Ilp.Model.var) Hashtbl.t;
      (** (route node [i], value [j], sink [k]) -> sub-value variable *)
}

val candidates : Dfg.t -> Mrrg.t -> int -> int list
(** Functional-unit nodes able to host a DFG operation (constraint (3)
    by construction).  Shared with the annealing mapper. *)

val operand_node : Mrrg.t -> int -> int -> int option
(** [operand_node mrrg p o] is the operand-[o] input port of
    functional-unit node [p], if it has one. *)

val route_fanins : Mrrg.t -> int -> int list
(** The routing-node fanins of a node. *)

val route_fanouts : Mrrg.t -> int -> int list
(** The routing-node fanouts of a node. *)

val add_placement :
  Ilp.Model.t -> Dfg.t -> Mrrg.t -> int list array * ((int * int), Ilp.Model.var) Hashtbl.t
(** Emit constraints (1)–(2) into a model: an [F(p,q)] variable for
    every {!candidates} pair (branch priority by dataflow rank, so
    operations are placed in dataflow order, and phase true), one
    [place:<op>] row per operation and one [excl:<fu>] row per FU with
    two or more users.  Returns the candidate lists, indexed by
    operation, and [f_vars].  The one emitter of these rows: {!build},
    {!Conn.build} and {!build_placement} all open with them, while
    {!build_reference} keeps its own copy as the oracle. *)

val build :
  ?objective:objective ->
  ?prune:bool ->
  ?anchor_sinks:bool ->
  ?backward_continuity:bool ->
  Dfg.t ->
  Mrrg.t ->
  t
(** Construct the full model.  The three flags select
    exactness-preserving refinements over the literal paper
    formulation, all on by default; turning them off reproduces the
    paper's constraint set verbatim and is used by the ablation
    benchmarks and equivalence tests:
    - [prune]: restrict sub-value variables to producer→sink
      reachability corridors;
    - [anchor_sinks]: strengthen constraint (6) to an equality at the
      sink's operand port;
    - [backward_continuity]: require every used corridor node to have a
      used predecessor (the dual of constraint (5)).

    The builder is corridor-sparse: instead of scanning every MRRG node
    per sink, it iterates packed {!Cgra_mrrg.Mrrg.corridor} bitsets,
    memoizes forward cones by producer-candidate set, and defers
    variable/row name rendering until something (LP export, explain,
    validation) asks for them. *)

val placement_var : t -> op:int -> fu:int -> Ilp.Model.var option
(** The variable placing DFG operation [op] on FU node [fu], if [fu]
    can run it. *)

val build_placement : Dfg.t -> Mrrg.t -> t
(** A model of {!add_placement}'s rows alone, with no routing variable
    ([r_vars] and [rk_vars] empty, so {!size} reports [n_r = n_rk = 0])
    and the [Feasibility] objective.  Its rows, variables and names are the leading ones of {!build} and
    of {!Conn.build}, so a check that reads only [place:]/[excl:] rows
    on it means what it would on either full model, and its
    {!placement_var} names the same variable in both.  An explained Hall
    answer checks its core against it. *)

val build_reference :
  ?objective:objective ->
  ?prune:bool ->
  ?anchor_sinks:bool ->
  ?backward_continuity:bool ->
  Dfg.t ->
  Mrrg.t ->
  t
(** The pre-optimization dense-scan builder, retained verbatim as the
    differential-testing oracle: for every input it must produce a
    model whose LP rendering is byte-identical to {!build}'s.  The
    formulation-differential fuzz invariant and the equivalence tests
    enforce this; do not optimise it. *)

(** {1 Constraint groups}

    Every row [build] emits is tagged with a named constraint group
    (the [?group] of {!Ilp.Model.add_row}), so an infeasibility core
    extracted by {!Ilp.Unsat_core} reads directly in mapping terms:
    - [place:<op>] — constraint (1) for operation [<op>] (exactly one
      placement);
    - [excl:<node>] — constraint (2) or (4): exclusive use of the
      functional-unit or routing node [<node>];
    - [route:val<j>] — constraints (5)–(9) and corridor-pruning
      implications for value [j] (its complete routing obligation). *)

type group_subject =
  | Placement of string    (** operation name from a [place:] label *)
  | Exclusivity of string  (** MRRG node name from an [excl:] label *)
  | Routing of int         (** value index from a [route:val] label *)

val group_subject : string -> group_subject option
(** Parse a group label back into the entity it constrains; [None] for
    labels this formulation never emits. *)

val value_description : t -> int -> string
(** Human-readable [producer -> sink.op, ...] rendering of value [j].
    @raise Invalid_argument on an out-of-range index. *)

type size = { n_f : int; n_r : int; n_rk : int; n_rows : int }

val size : t -> size
val pp_size : Format.formatter -> size -> unit
