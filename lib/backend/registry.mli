(** The backend registry: name → external {!Backend.t}.

    Ships with the three external MILP adapters; the in-process engines
    are not backends ([Cgra_core.Solver_spec] names them).  {!register}
    adds (or replaces) entries at runtime — used by tests to inject
    adversarial backends and available to embedders as a plugin
    point.  All operations are mutex-protected and safe to
    call from any domain. *)

val builtin : Backend.t list
(** [highs; cbc; scip], in that order. *)

val all : unit -> Backend.t list
(** Built-ins plus runtime registrations, registration order;
    a registered backend shadows a built-in of the same name. *)

val names : unit -> string list

val find : string -> Backend.t option

val register : Backend.t -> unit
(** Add a backend, replacing any previous entry with the same name. *)

