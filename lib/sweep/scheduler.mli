(** The sweep work queue: fan a job list out over OCaml 5 domains.

    The scheduler knows nothing about mapping: it runs one job function
    per job.  Callers compose that function — {!Runner.run},
    {!Portfolio.race}, {!Runner.run_anneal}, wrapped in
    {!Runner.cross_checked} for a second opinion.

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
      (** records whose cross-check contradicted the primary verdict
          ({!Record.disagreement}); 0 unless [execute] cross-checks *)
  wall_seconds : float;
}

val run :
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?on_event:(event -> unit) ->
  execute:(Job.t -> Record.t) ->
  Job.t list ->
  Record.t list * stats
(** [run ~jobs ~execute job_list] applies [execute] to the non-skipped
    jobs on [jobs] workers (the calling domain plus [jobs - 1] spawned
    ones; default 1) and returns their records in input order.
    [execute] runs concurrently on several domains, so it must share no
    mutable state across jobs; an exception it raises becomes the job's
    [Error] record naming the exception.

    [journal] names a JSONL {!Store}: every finished record is appended
    to it before its [Job_finished] event, and the file is closed when
    the run returns.  With [resume] (default [false]) the jobs whose
    {!Job.key} the journal already holds are skipped: they produce no
    record here and count in [stats.skipped]. *)
