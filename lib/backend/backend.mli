(** An external solver: "solve a {!Cgra_ilp.Model.t} under a
    deadline" in another process, as a first-class value.

    The paper hands its 0-1 program to Gurobi; this reproduction's
    native engines argue equivalence (DESIGN.md §2).  A backend closes
    the loop: the model the in-process engines solve can also go to an
    industry MILP solver spawned as a subprocess over the
    {!Cgra_ilp.Lp_format} export, and the answers can be raced or
    diffed.  [Cgra_core.Solver_spec] names native and external solvers
    alike.  External answers are never trusted blindly — the adapter replays every claimed assignment through
    {!Cgra_ilp.Model.feasible} and recomputes the objective, and the
    mapper layer re-checks the extracted mapping with
    [Cgra_core.Check.run]. *)

type availability =
  | Available of { version : string option }
      (** usable now; [version] captured from the binary, [None] when
          it prints none *)
  | Unavailable of string  (** why not, e.g. "highs: not found on PATH" *)

type t = {
  name : string;  (** registry key, e.g. ["highs"] *)
  doc : string;   (** one-line description for [cgra_map backends] *)
  available : unit -> availability;
      (** probe now (PATH lookup + version capture); not cached, so tests and long-lived processes see PATH
          changes *)
  solve : ?deadline:Cgra_util.Deadline.t -> Cgra_ilp.Model.t -> Cgra_ilp.Solve.outcome;
      (** decide (and optimise) the model.
          @raise Error when the backend cannot answer at all (binary
          missing, solver crashed, unparseable or replay-refuted
          solution) — as opposed to a clean [Timeout] outcome *)
}

exception Error of string
(** A backend-level failure that is not a verdict: missing binary,
    subprocess spawn failure, a solution file that does not parse, or
    an external assignment that fails independent replay. *)
