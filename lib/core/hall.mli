(** Placement infeasibility by Hall's theorem.

    Every operation needs its own functional-unit slot, so a mapping
    contains a matching of DFG operations into the FU nodes of the MRRG
    that support them.  By Hall's theorem no such matching exists
    exactly when some set S of operations has fewer capable slots N(S)
    than members.  Such a cell is infeasible whatever the routing, and
    a bipartite matching finds S in microseconds where CDCL would have
    to refute a pigeonhole formula.

    The module has three parts:
    - {!search}: Kuhn's augmenting paths over {!Cgra_mrrg.Mrrg.supports};
      on a deficiency it returns the König set;
    - {!check_witness}: an independent check of a witness against the
      DFG and the MRRG alone;
    - {!check_counting}: an independent check of the witness's core
      against a built model's own rows, a one-step cutting-planes
      refutation.

    Both checkers are defined above the search and call none of it. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg
module Model := Cgra_ilp.Model

type witness = {
  ops : int list;  (** S: DFG operation ids, ascending *)
  fus : int list;  (** N(S): MRRG functional-unit node ids, ascending *)
}
(** A Hall violator: every FU able to run an operation of S lies in
    N(S), and |N(S)| < |S|. *)

(** {1 Checkers} *)

val check_witness : Dfg.t -> Mrrg.t -> witness -> (unit, string) result
(** Reads only the DFG, {!Cgra_mrrg.Mrrg.func_units} and
    {!Cgra_mrrg.Mrrg.supports}.  Accepts exactly when S is a non-empty
    set of operations, N(S) a set of FU nodes, every FU supporting an
    operation of S lies in N(S), and |N(S)| < |S|.  The [Error] names
    every violated condition. *)

val core_groups : Dfg.t -> Mrrg.t -> witness -> string list
(** The witness in the formulations' group vocabulary (see
    {!Formulation.group_subject}): [place:<op>] for each operation of
    S, then [excl:<node>] for each FU of N(S). *)

val check_counting : Model.t -> string list -> (unit, string) result
(** Refute a core from the model's own rows by counting.  The demand
    rows are the core's [place:] rows of sense [=] or [>=] with
    positive terms; the capacity rows are its [excl:] rows of sense
    [<=] with positive terms; other rows are not used.  With c_v and
    d_v a variable's total coefficient in each, the sum of the demand
    rows is at least D, and on binaries it is at most
    C + Σ max(0, c_v − d_v), where D and C are the summed right-hand
    sides.  The check accepts when that bound is below D.  A variable
    no capacity row covers counts as a lone binary (at most 1), which
    is how an FU with a single user, and hence no [excl:] row, enters
    the count.  Linear in the rows read. *)

val check_relaxations :
  Model.t ->
  placement_var:(op:int -> fu:int -> Model.var option) ->
  string list ->
  (string * (int * int) list) list ->
  bool
(** [check_relaxations model ~placement_var core relaxations]: whether
    the relaxations show [core] minimal.  There must be one per group,
    and each [(g, placement)], read as an assignment with exactly the
    placement variables of [placement]'s [(op, fu)] pairs true, must
    satisfy every row of the core's other groups and every ungrouped
    row ({!Cgra_ilp.Model.row_satisfied}).  [false] when a pair has
    no placement variable. *)

(** {1 The search} *)

type deficiency
(** A König set together with the matching and the alternating tree
    that found it. *)

val search : Dfg.t -> Mrrg.t -> deficiency option
(** Match operations (in id order) to the FUs supporting them by
    augmenting paths; [None] when every operation is matched.  The
    first operation [q] whose augmentation fails yields S = [q] plus
    the mates of every FU its search reached, and N(S) = those FUs.
    Every FU of N(S) is matched into S and every operation of S but
    [q] is matched, so |N(S)| = |S| − 1.

    S is a minimal violator: for any [q'] in S, flipping the
    alternating path from [q] to [q'] matches S − [q'] into N(S).  An
    operation with no capable FU yields S = [q], N(S) = ∅. *)

val witness : deficiency -> witness

val relaxations : Dfg.t -> Mrrg.t -> deficiency -> (string * (int * int) list) list
(** For each group of {!core_groups}, in that order, a placement of
    operations of S onto N(S) that meets every other group of the core:
    without [place:q], S − q matched one to one; without [excl:p],
    all of S placed with [p] holding two operations.  Each comes from
    one alternating-path flip of the deficiency's matching. *)

val searches : unit -> int
(** How many times {!search} has run in this process (tests use it to
    show that the checkers never call the search). *)
