(* Failed-literal probing over the roots of the binary implication
   graph.

   Assuming a root literal l and propagating explores its full
   implication cone in one step; if that hits a conflict, the unit ~l
   is implied (and is RUP by definition), shrinking the search space at
   the root.  Probing only roots keeps the candidate set small without
   losing strength: a non-root literal that fails would make its
   ancestors fail too, and those are probed.

   The budget is measured in propagations, read off the solver's own
   counter, so probe cost is commensurable across instance sizes.  A
   pleasant side effect: the polarities each probe propagates are kept
   as saved phases, seeding later decisions. *)

let run solver ~budget =
  let start = (Solver.stats solver).propagations in
  let within_budget () = (Solver.stats solver).propagations - start < budget in
  let rec go = function
    | [] -> ()
    | l :: rest ->
        if Solver.ok solver && within_budget () then begin
          if Solver.root_value solver l = -1 && Solver.probe_lit solver l then
            Solver.note_probed_failed solver;
          go rest
        end
  in
  go (Bin_graph.roots solver)
