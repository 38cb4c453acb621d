(** Binary implication graph: the roots failed-literal probing starts
    from.

    Built on the fly from the live binary clauses: (a | b) contributes
    the edges [~a -> b] and [~b -> a].  Part of the inprocessing layer
    (see {!Inprocess}); requires the quiescent root state established
    by {!Solver.simp_prepare}. *)

val roots : Solver.t -> Lit.t list
(** Source literals of the implication graph — out-edges but no
    in-edges.  These are the candidates {!Probe} assumes: a failed root
    refutes its entire implication cone at once. *)
