(** The formulations: "compile DFG × MRRG into a 0-1 model" as a
    value, and the fixed table of the two this mapper has.

    A formulation packages everything {!Ilp_mapper.map} needs beyond
    the model itself — solution extraction, warm-start phase seeding,
    and value naming for unsat-core diagnosis — so genuinely different
    encodings (the paper's per-edge sub-value model, the
    connectivity/flow model of {!Conn}) flow through the same solve /
    certify / explain / check pipeline unchanged.  {!Solver_spec} pairs
    a formulation with an engine.

    The table is static: every program that links [cgra_core] knows
    both formulations, with no registration step. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg

type built = {
  model : Cgra_ilp.Model.t;
  size : Formulation.size;
      (** variable/row counts in the base formulation's vocabulary:
          [n_f] placement vars, [n_r] per-value vars, [n_rk] per-sink
          vars (formulations without a family report 0) *)
  extract : bool array -> Mapping.t;
      (** read a feasible assignment back into a mapping; the result
          must pass {!Check.run} or the mapper treats it as a bug *)
  warm : Mapping.t -> unit;
      (** seed the model's branch phases from a heuristic solution *)
  describe_value : int -> string;
      (** human-readable rendering of value [j] for diagnoses *)
}
(** One compiled model plus the closures tying it back to mapping
    vocabulary. *)

type impl = {
  name : string;  (** table key, ["paper"] or ["conn"] *)
  doc : string;   (** one-line description for [cgra_map backends] *)
  build : objective:Formulation.objective -> Dfg.t -> Mrrg.t -> built;
      (** compile, with corridor pruning on *)
}

val default_name : string
(** ["paper"], the name of {!paper}. *)

val paper : impl
(** The paper's per-edge sub-value model, the formulation of
    {!Solver_spec.default}. *)

val conn : impl
(** The connectivity model of {!Conn}, kept as a differential oracle
    for {!paper}. *)

val all : impl list
(** [[paper; conn]]. *)

val find : string -> impl option
(** The entry of {!all} with this name. *)

val names : unit -> string list
(** The names of {!all}, in its order. *)

val apply_warm_phases : Formulation.t -> Mapping.t -> unit
(** Phase-seed a base-formulation model from a heuristic mapping:
    placement variables of the mapping's choices (and only those) go
    phase-true, as do the route variables along its routes.  Exposed
    for the ["paper"] impl and for direct [Formulation.t] users. *)
