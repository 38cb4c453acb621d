(** Inprocessing scheduler: bounded failed-literal probing between
    restarts.

    Installs a hook the solver fires at the start of every solve and
    after every Luby restart; each due round runs failed-literal
    probing ({!Probe}) over the roots of the binary implication graph
    ({!Bin_graph}) under a propagation budget, backing off while it
    finds nothing.  Every unit a probe derives flows through the
    solver's {!Proof} sink, so DRAT certificates remain checkable by
    {!Drat.check}.  The work done is reported in {!Solver.stats}
    ([probed_failed]). *)

type config = {
  enabled : bool;
  interval : int;  (** min conflicts between two rounds *)
  probe_budget : int;  (** propagations per round *)
}

val all_on : config
(** Probing with the default interval and budget. *)

val all_off : config
(** Inprocessing disabled entirely (the plain CDCL solver). *)

val eager : config
(** [all_on] with a round at the start of every solve and after every
    restart ([interval = 0]) — what the differential fuzzers run, so
    probing fires even on small, quickly-decided instances. *)

val install : ?config:config -> Solver.t -> unit
(** Install the scheduler on a solver (replacing any previous hook);
    [config] defaults to {!all_on}.  With [enabled = false] the
    hook is removed. *)
