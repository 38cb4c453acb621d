(** Single-job execution: resolve a {!Job.t}'s benchmark and
    architecture names, elaborate the MRRG, run one solver (a
    {!Cgra_core.Solver_spec.t}), and fold the answer into a
    {!Record.t}.

    Runs are hermetic by construction — every invocation builds its own
    DFG, architecture and MRRG, so concurrent invocations on separate
    domains (the scheduler's workers, the portfolio's racers) share no
    mutable state.  Exceptions never escape: any failure becomes an
    [Error] record — with engine ["-"] when the job's names or
    dimensions do not resolve ({!prepare}), else naming the engine and
    the time spent. *)

type variant = {
  name : string;  (** recorded as the winning engine in the journal *)
  solver : Cgra_core.Solver_spec.t;
  warm_start : float;
      (** annealing warm-start budget in seconds, clamped to a quarter
          of the job's limit *)
}

val variant : ?name:string -> ?warm_start:float -> Cgra_core.Solver_spec.t -> variant
(** [name] defaults to the solver's name, [warm_start] to 0 (none,
    the mapper's default). *)

val default_variant : variant
(** The single-engine configuration: the SAT engine cold, the
    repository's standard exact query. *)

val racer_pool : variant list
(** The SAT engine cold, warm, then diminishing-return warm-start
    variations ([sat-cold], [sat-warm], [sat-eager], [sat-patient]), in
    priority order; the source {!default_racers} draws from. *)

val default_racers : int -> variant list
(** The first [max 1 n] variants of {!racer_pool} — the portfolio
    sized to a machine with [n] usable cores (pass
    [Domain.recommended_domain_count ()]). *)

val record_of_result :
  Job.t -> engine:string -> total_seconds:float -> Cgra_core.Ilp_mapper.result -> Record.t
(** Fold a mapper answer into a journal record: the status from the
    verdict, the timings and statistics from its info, the core from
    its diagnosis (empty without one). *)

val run_variant :
  ?cancel:bool Atomic.t -> ?certify:bool -> ?explain:bool -> variant -> Job.t -> Record.t
(** Run one variant under the job's time budget.  [cancel] attaches a
    shared cancellation flag to the job's deadline (see
    {!Cgra_util.Deadline.with_cancellation}), the warm start's
    included; a cancelled run records [Timeout].  [certify] (default
    [false]) requests DRAT-certified infeasibility verdicts (see
    {!Cgra_core.Ilp_mapper.map}); the record's [certified] field
    reports the outcome.  [explain] (default
    [false]) extracts a constraint-group unsat core for an [Infeasible]
    verdict and journals it in the record's [core] field.  An external
    solver that is missing or misbehaves yields an [Error] record
    carrying the backend's message, never an exception. *)

val reprove : Cgra_core.Solver_spec.t -> Job.t -> Record.t
(** The solver's engine alone on the cell's feasibility model
    ({!Cgra_core.Ilp_mapper.reprove}): no Hall step and no warm
    start.  {!cross_checked} uses it,
    so the second solver re-proves a cell the Hall step decided rather
    than repeating the step.  Errors become [Error] records, as in
    {!run_variant}. *)

val run : ?certify:bool -> ?explain:bool -> Job.t -> Record.t
(** [run_variant default_variant]. *)

val cross_checked : Cgra_core.Solver_spec.t -> (Job.t -> Record.t) -> Job.t -> Record.t
(** [cross_checked checker execute job] is [execute job] with, when
    that answer is definitive ([Feasible]/[Infeasible]), a second
    opinion from [checker] ({!reprove}, under the same time budget)
    folded into the record's [cross] field.  A contradiction (see
    {!Record.verdicts_agree}) marks the record as a
    {!Record.disagreement}.  A checker that times out, errors, or is
    simply not installed is inconclusive — recorded, never a
    disagreement.  A [Timeout] or [Error] primary is returned as is:
    there is no verdict to contradict. *)

val run_anneal : ?seeds:int -> Job.t -> Record.t
(** The Figure-8 heuristic baseline: simulated annealing restarted
    over [seeds] (default 3) RNG streams, each slice getting an equal
    share of the job's time limit.  Records [Feasible] (engine ["sa"],
    never certified — the checker vouches for the mapping but annealing
    proves nothing about the cell) when any seed finds a mapping that
    passes {!Cgra_core.Check}, else [Timeout]: a heuristic cannot
    return [Infeasible]. *)

val prepare : Job.t -> (Cgra_dfg.Dfg.t * Cgra_mrrg.Mrrg.t, string) result
(** Name resolution + MRRG elaboration without solving (for tests and
    diagnostics).  A job with [contexts < 1], or a [size] {!load_arch}
    refuses, is an [Error]. *)

val load_benchmark : string -> (Cgra_dfg.Dfg.t, string) result
(** Resolve a benchmark by built-in name, else as a [.dfg] file path.
    A path that exists but cannot be read (a directory) is an [Error]. *)

val load_arch : size:int -> string -> (Cgra_arch.Arch.t, string) result
(** Resolve an architecture by library name at [size], else as an ADL
    file path (whose own dimensions then apply); a path that exists but
    cannot be read is an [Error].  A [size] below 1 is
    an [Error] whatever the name: the CLI, the daemon and the sweep all
    load through here, so none of them reaches the library with an
    empty grid. *)
