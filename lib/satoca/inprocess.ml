(* The inprocessing scheduler: decides when and how much failed-literal
   probing to run.  The solver fires the installed hook at the start of
   every solve and after every Luby restart; the scheduler rate-limits
   actual work by the conflict counter so probing amortises against
   search, and hands each round a propagation budget so a single
   invocation stays bounded on any instance size. *)

type config = {
  enabled : bool;
  interval : int;  (* min conflicts between two rounds *)
  probe_budget : int;  (* propagations per round *)
}

let all_on = { enabled = true; interval = 1000; probe_budget = 120_000 }
let all_off = { all_on with enabled = false }

(* The fuzzers want probing to actually run on small, quickly-decided
   instances: a round at the start of every solve and after every
   restart. *)
let eager = { all_on with interval = 0 }

let install ?(config = all_on) solver =
  if not config.enabled then Solver.set_inprocess solver None
  else begin
    (* Start the clock at zero conflicts: the first round only fires
       once [interval] conflicts of real search have accrued, so easy
       instances (decided in a few hundred conflicts) never pay for
       simplification they cannot amortise.  [interval = 0] forces a
       round at the start of every solve and after every restart — the
       differential fuzzers use that to exercise probing on small
       instances. *)
    let last_conflicts = ref 0 in
    (* Probing backs off exponentially while it finds nothing: an
       instance whose binary-graph roots never fail would otherwise
       burn the full propagation budget every round for zero
       deductions.  One productive round resets the stride. *)
    let probe_stride = ref 1 in
    let probe_round = ref 0 in
    let hook s =
      let st = Solver.stats s in
      let due = st.conflicts - !last_conflicts >= config.interval in
      if due && Solver.simp_prepare s then begin
        last_conflicts := st.conflicts;
        incr probe_round;
        if !probe_round mod !probe_stride = 0 then begin
          let before = (Solver.stats s).Solver.probed_failed in
          Probe.run s ~budget:config.probe_budget;
          if (Solver.stats s).Solver.probed_failed = before then
            probe_stride := min 16 (2 * !probe_stride)
          else probe_stride := 1
        end
      end
    in
    Solver.set_inprocess solver (Some hook)
  end
