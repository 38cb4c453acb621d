(** The sweep work queue: fan a job list out over OCaml 5 domains.

    Workers claim jobs from a shared atomic counter, so the schedule is
    dynamic (long jobs do not stall the queue) while the result list
    stays in input order — the answers are deterministic regardless of
    worker count, only timings vary.  A job that raises records
    [Error] and the sweep continues; a worker can never die with jobs
    still queued.

    [on_event] is serialised by a mutex, so callbacks may write to
    shared channels (progress lines) without their own locking;
    exceptions it raises are swallowed. *)

type event =
  | Job_started of { index : int; total : int; worker : int; job : Job.t }
  | Job_finished of { index : int; total : int; worker : int; record : Record.t }

type stats = {
  ran : int;           (** jobs executed *)
  skipped : int;       (** jobs the journal already held ([resume]) *)
  disagreements : int;
      (** cross-checked cells where the second backend contradicted the
          primary verdict (see {!Record.disagreement}); always 0
          without [cross_check] *)
  wall_seconds : float;
}

val run :
  ?jobs:int ->
  ?portfolio:bool ->
  ?racers:Runner.variant list ->
  ?cross_check:Cgra_core.Solver_spec.t ->
  ?executor:(Job.t -> Record.t) ->
  ?certify:bool ->
  ?explain:bool ->
  ?journal:string ->
  ?resume:bool ->
  ?on_event:(event -> unit) ->
  Job.t list ->
  Record.t list * stats
(** [run ~jobs job_list] executes the non-skipped jobs on [jobs]
    workers (the calling domain plus [jobs - 1] spawned ones; default
    1) and returns their records in input order.

    [portfolio] races a
    variant field per job instead of the single default engine; the
    field is [racers] when non-empty, otherwise
    {!Runner.default_racers} sized to the machine.  [racers] without
    [portfolio] is ignored.

    [cross_check] is a solver to run ({!Runner.reprove}: its engine on
    the built model, without the Hall step) as a second, independent
    prover on every cell whose primary answer is
    definitive ([Feasible]/[Infeasible]).  The second opinion is folded
    into the record's [cross] field and journaled with it; a
    contradiction (see {!Record.verdicts_agree}) marks the record as a
    disagreement and is counted in [stats.disagreements].  A checker
    that times out, errors, or is simply not installed is inconclusive
    — recorded, never a disagreement, and never a sweep failure.

    [executor] replaces the per-job solver entirely (the annealing
    baseline of [bench fig8] runs through it); [portfolio], [racers],
    [certify] and [explain] are then ignored, while [journal],
    [resume], [on_event] and [cross_check] still apply.  An executor exception
    becomes the job's [Error] record.

    [certify] requests DRAT-certified verdicts from every job
    (see {!Runner.run_variant}).  [explain] journals a constraint-group
    unsat core with every [Infeasible] record (the definitive 0-cells
    of the Table-2 grid).

    [journal] names a JSONL {!Store}: every finished record is appended
    to it before its [Job_finished] event, and the file is closed when
    the run returns.  With [resume] (default [false]; ignored without
    [journal]) the jobs whose {!Job.key} the journal already holds are
    skipped: they produce no record here and count in
    [stats.skipped]. *)
