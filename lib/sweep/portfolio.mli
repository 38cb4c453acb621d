(** Portfolio racing: run several engine variants concurrently on the
    same job and keep the first definitive answer.

    Every variant runs on its own domain with its own solver state (see
    {!Runner}); the variants share only one cancellation flag.  When a
    racer returns [Feasible] or [Infeasible] — proofs, on which
    complete engines cannot disagree — it publishes itself as the
    winner and raises the flag; the losers observe it at their next
    deadline poll and wind down.  If no racer is definitive the race
    reports a [Timeout] (preferred) or, failing that, the first
    racer's error.

    The returned record's [engine] names the winning variant and
    [total_seconds] is the race's wall clock; [solve_seconds] and
    [sat_calls] are the winner's own statistics. *)

val race :
  variants:Runner.variant list ->
  ?certify:bool ->
  ?explain:bool ->
  Job.t ->
  Record.t
(** Race [variants]; a portfolio sized to the machine is
    {!Runner.default_racers} of [Domain.recommended_domain_count ()].
    A variant may name an external MILP solver
    (see {!Runner.variant}); an external racer that errors (missing
    binary, bad answer) simply never becomes definitive and cannot
    poison the race.
    [certify] requests DRAT-certified verdicts from every racer (see
    {!Runner.run_variant}); the winner's [certified] field is reported.
    [explain] asks each racer for a constraint-group unsat core on an
    [Infeasible] verdict; the winner's [core] is journaled.
    A singleton list is exactly {!Runner.run_variant}: no domain is
    spawned, and the record is that variant's own.
    @raise Invalid_argument if the racer list is empty. *)
