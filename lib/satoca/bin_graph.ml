(* Binary implication graph over the live binary clauses.

   A binary clause (a | b) contributes the two implication edges
   ~a -> b and ~b -> a.  Its source literals ("roots": out-edges but no
   in-edges) are the highest-yield candidates for failed-literal
   probing — a failed root kills its whole implication cone.  Only the
   presence of in- and out-edges matters for that, so the graph is never
   materialised. *)

let roots solver =
  let nlits = 2 * Solver.nvars solver in
  let has_out = Array.make nlits false and has_in = Array.make nlits false in
  Solver.iter_binary solver (fun a b ->
      if Solver.root_value solver a = -1 && Solver.root_value solver b = -1 then begin
        has_out.(Lit.negate a) <- true;
        has_out.(Lit.negate b) <- true;
        has_in.(a) <- true;
        has_in.(b) <- true
      end);
  let out = ref [] in
  for l = nlits - 1 downto 0 do
    if has_out.(l) && not has_in.(l) then out := l :: !out
  done;
  !out
