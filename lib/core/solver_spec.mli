(** One solver selection: which formulation to build and which solver
    decides it.

    A name is parsed once, at the edge (CLI flags, the serve wire
    request, bench options); everything below takes a {!t}.  The names
    are:
    - ["native-sat"]: the paper formulation on the in-process CDCL
      SAT engine ({!Cgra_ilp.Solve});
    - ["conn-sat"]: the connectivity formulation
      ({!Formulation_intf.conn}) on the same engine;
    - ["highs"], ["cbc"], ["scip"]: the paper formulation exported as
      an LP file to an external MILP solver
      ({!Cgra_backend.Milp_adapter}).

    The table is fixed.  A caller that wants another solver, such as a
    test double, builds a {!t} record itself. *)

type engine =
  | Native  (** the in-process CDCL SAT engine, {!Cgra_ilp.Solve} *)
  | External of Cgra_backend.Backend.t  (** subprocess over the LP export *)

type t = {
  name : string;  (** the name it was parsed from *)
  formulation : Formulation_intf.impl;
  engine : engine;
}

val default : t
(** ["native-sat"]: the paper formulation on the SAT engine. *)

val of_name : string -> (t, string) result
(** Parse a solver name; the error lists {!names}. *)

val names : unit -> string list
(** Every name {!of_name} accepts, in the order [cgra_map backends]
    lists them: [native-sat, conn-sat, highs, cbc, scip]. *)
