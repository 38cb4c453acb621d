(** Random-architecture fuzzing.

    The paper's claim is architecture {e agnosticism}: the formulation
    is derived from the MRRG alone, so it should hold over the whole
    generator space, not just the eight Table-2 instances.  This
    module samples random {!Cgra_arch.Library.config}s (topology ×
    size × FU mix × operand routing × context count × kernel) and
    checks end-to-end invariants on each:

    - {b arch-valid} — the generated netlist passes
      {!Cgra_arch.Arch.validate};
    - {b adl-roundtrip} — the netlist and the compact [(arch-gen ...)]
      form survive print → parse unchanged;
    - {b mrrg-counts} — elaborated node/edge totals equal the
      per-primitive formula (a redundant declarative oracle for
      {!Cgra_mrrg.Build.elaborate});
    - {b mrrg-valid}, {b mrrg-symmetry}, {b mrrg-connected} — MRRG
      invariants: paper-model checks, fanin/fanout adjacency
      symmetry, no isolated nodes;
    - {b formulation-differential} — the corridor-sparse
      {!Cgra_core.Formulation.build} and the dense
      {!Cgra_core.Formulation.build_reference} oracle produce
      byte-identical LP renderings of the sample's model;
    - {b mapped-check} — a [Mapped] verdict's mapping is re-accepted
      by the independent {!Cgra_core.Check};
    - {b hall-vs-engine} — on a sample the Hall step refutes
      ({!Cgra_core.Hall.search}), the paper formulation's model solved
      directly by the SAT engine ({!Cgra_core.Ilp_mapper.reprove},
      i.e. {!Cgra_ilp.Solve.solve_report}) never returns an
      assignment;
    - {b formulation-vs-conn} — the connectivity formulation
      ({!Cgra_core.Conn}) and the paper formulation, each model built
      and solved directly by the SAT engine (so the Hall step does not
      decide both sides), agree on the sample's feasibility verdict
      whenever both finish (a timeout on either side proves nothing);
    - {b wrap-monotone} — adding wrap-around links never turns
      [Mapped] into [Infeasible] (a torus contains every mesh link);
    - {b journal-roundtrip} — the outcome survives the sweep journal's
      {!Cgra_sweep.Record.to_line}/[of_line].

    Samples are derived deterministically from an integer seed
    (sample [i] of a run seeded [s] uses seed [s + i]), so any
    violation replays from its printed seed, and {!shrink} reduces a
    failing sample before reporting it. *)

module Library := Cgra_arch.Library

(** The kernel mapped during the solver-backed invariants. *)
type kernel =
  | Benchmark of string  (** a built-in Table-1 benchmark name *)
  | Random of int  (** a {!Cgra_dfg.Generator} DFG from this seed *)

type sample = {
  seed : int;  (** replay handle: [sample_of_seed ~seed] rebuilds it *)
  config : Library.config;
  ii : int;
  kernel : kernel;
}

type violation = {
  invariant : string;  (** which check failed, e.g. ["wrap-monotone"] *)
  sample : sample;  (** the shrunk failing sample *)
  detail : string;
}

type report = { samples : int; checks : int; violations : violation list }

val kernel_to_string : kernel -> string
val sample_to_string : sample -> string
(** One-line replay rendering: seed, [(arch-gen ...)] form, II, kernel. *)

val config_gen : ?max_dim:int -> unit -> Library.config QCheck.Gen.t
(** QCheck generator over grid configs with [rows], [cols] in
    [1..max_dim] (default 3), all four topologies, both FU mixes, and
    occasional 1–3-lane switchbox routing. *)

val arbitrary_config : ?max_dim:int -> unit -> Library.config QCheck.arbitrary
(** {!config_gen} packaged with a printer (the [(arch-gen ...)] form)
    and a structural shrinker, for [QCheck.Test.make] properties. *)

val sample_of_seed : ?max_dim:int -> seed:int -> unit -> sample
(** The deterministic sample a seed denotes: config, context count
    (1–2) and kernel (a small built-in benchmark or a random DFG). *)

val check : ?solve:bool -> ?limit:float -> sample -> (string * string) list
(** Run every invariant on one sample; returns [(invariant, detail)]
    failures, [[]] when all hold.  [solve] (default [true]) enables
    the mapper-backed invariants; [limit] (default 5 s) bounds each
    solve — a timeout is never a violation. *)

val shrink : still_failing:(sample -> bool) -> sample -> sample
(** Greedily reduce a failing sample (smaller grid, fewer contexts,
    simpler topology/routing/mix/kernel) while [still_failing] holds;
    returns the fixpoint. *)

val run :
  ?solve:bool ->
  ?limit:float ->
  ?max_dim:int ->
  ?progress:(int -> sample -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  report
(** Check [count] samples seeded [seed], [seed+1], …; violations are
    shrunk (re-checking the failing invariant only) before being
    reported.  [progress] is called before each sample with its
    index. *)
