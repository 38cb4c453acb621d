(** Failed-literal probing over binary-implication-graph roots.

    Assumes each root literal of {!Bin_graph} on a throwaway decision
    level; when propagation fails, asserts the negation as a root unit
    (a RUP step by definition).  The only inprocessing pass (see
    {!Inprocess}). *)

val run : Solver.t -> budget:int -> unit
(** Run one round from the quiescent root state established by
    {!Solver.simp_prepare}; [budget] caps the propagations spent.
    Bumps the [probed_failed] counter per failed literal. *)
