(** One sweep outcome: everything needed to rebuild a Table-2 cell (or
    a Figure-8 bar) deterministically, plus the provenance the paper
    reports — which engine decided the cell and how long it took.

    Records round-trip through single JSONL lines ({!to_line} /
    {!of_line}); the line format is the sweep's on-disk journal and is
    documented in EXPERIMENTS.md. *)

type status =
  | Feasible        (** a verified mapping exists *)
  | Infeasible      (** proven: no mapping exists *)
  | Timeout         (** budget exhausted, undecided *)
  | Error of string (** the job raised; the message, never the sweep, dies *)

type cross = {
  backend : string;        (** the second prover's backend name *)
  status : status;         (** its verdict ([Timeout]/[Error] = inconclusive) *)
  objective : int option;  (** its objective value, when it reported one *)
  agreed : bool;           (** {!verdicts_agree} of primary vs. this *)
}
(** A cross-check's second opinion, journaled alongside the primary
    verdict (fields ["cross_backend"], ["cross_status"],
    ["cross_objective"], ["cross_agreed"]; a disagreement additionally
    writes ["disagreement": true]). *)

type t = {
  job : Job.t;
  status : status;
  engine : string;        (** winning engine variant, e.g. ["sat-warm"]; ["-"] on error *)
  total_seconds : float;  (** wall clock for the whole job (all racers) *)
  solve_seconds : float;  (** winning engine's solve time *)
  build_seconds : float;  (** winning engine's formulation-build time *)
  sat_calls : int;        (** winning engine's SAT invocations *)
  certified : bool;
      (** the verdict carries independently validated evidence
          ({!Cgra_core.Check} for [Feasible], a checked DRAT refutation
          for [Infeasible]); [false] for timeouts, errors, uncertified
          sweeps and records from pre-certification journals *)
  objective : int option;
      (** objective value for an optimising query; [None] for
          feasibility-only cells and legacy journals.  Journaled as
          ["objective"] only when present. *)
  core : string list;
      (** constraint-group unsat core for an explained [Infeasible]
          cell (see {!Cgra_ilp.Unsat_core}); [[]] when no explanation
          was requested or extracted, and for records from
          pre-explanation journals.  Journaled as a ["core"] JSON array
          only when non-empty. *)
  evidence : string option;
      (** what decided an [Infeasible] verdict: ["hall"] or ["drat"]
          ({!Cgra_core.Ilp_mapper.evidence_name}).  Journaled as
          ["evidence"] only when present; [None] for other statuses
          and for records from journals that predate the field. *)
  cross : cross option;
      (** second opinion from a [--cross-check] backend; [None] when
          the cell was not cross-checked (including all records from
          pre-cross-check journals) *)
}

val error : Job.t -> string -> t
(** A zero-cost [Error] record for a job that could not run. *)

val definitive : t -> bool
(** [Feasible] and [Infeasible] are proofs; [Timeout]/[Error] are not. *)

val disagreement : t -> bool
(** [true] exactly when a cross-check ran and contradicted the primary
    verdict. *)

val verdicts_agree :
  status:status ->
  objective:int option ->
  status2:status ->
  objective2:int option ->
  bool
(** Whether two provers' answers are compatible.  Only contradicting
    proofs disagree: [Feasible] vs. [Infeasible] in either order, or
    two [Feasible] verdicts whose reported objectives both exist and
    differ.  [Timeout] and [Error] on either side are inconclusive and
    always compatible. *)

val status_to_string : status -> string

val to_json : t -> Jsonl.t
val of_json : Jsonl.t -> (t, string) result

val to_line : t -> string
(** One JSONL line (no trailing newline). *)

val of_line : string -> (t, string) result
(** Parse one journal line.  Keys it does not know, such as fields
    older journals carry and this version retired, are ignored. *)

val pp : Format.formatter -> t -> unit
