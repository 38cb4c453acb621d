(** Bound-propagation presolve for 0-1 models.

    Iterates two rules to a fixpoint: a row whose attainable range can
    never violate it is retired; a variable whose setting would force a
    violation is fixed to the opposite value.  The fixpoint reads the
    model's flat row storage ({!Model.row_len} and friends) in place.

    {b Identity contract.}  When the fixpoint fixes no variable, the
    result is the input itself: [reduced == model] (physically),
    [old_of_new] is the identity, [fixed = []] and [objective_offset =
    0].  Rows found never-violable are then kept, not dropped: such a
    row clausifies to no clause, so the SAT encoding of [reduced] is the
    same either way, and no copy of the model is made.

    Otherwise the reduced model is rebuilt with fixed variables
    substituted out (their objective contribution is carried in
    [objective_offset]), never-violable rows dropped, and survivors
    renumbered densely in original order. *)

type t = {
  reduced : Model.t;
      (** the model to solve; meaningless when [infeasible] *)
  infeasible : bool;        (** a row was proven unsatisfiable *)
  fixed : (Model.var * bool) list;  (** original-variable fixings *)
  old_of_new : Model.var array;     (** reduced index -> original index *)
  objective_offset : int;   (** objective value contributed by fixings *)
}

val run : Model.t -> t
(** Reduce a model to fixpoint.  Constraint-group tags survive on the
    rows that remain.  ({!Unsat_core} nevertheless extracts cores from
    the {e original} model: a presolve fixing could silently discharge
    a grouped row that belongs in the blame.) *)

val lift : original:Model.t -> t -> bool array -> bool array
(** Extend an assignment of the reduced model to the original
    variables. *)

val n_fixed : t -> int
(** Number of variables eliminated. *)
