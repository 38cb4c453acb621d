module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Deadline = Cgra_util.Deadline

type core = { groups : string list; minimized : bool; sat_calls : int }

type verdict = Core of core | Satisfiable | Unknown

(* A literal set as marks in a byte per solver literal, so a membership
   test costs O(1) however many groups the model has.  [with_marks]
   sets the marks of [lits] for the duration of [f] only. *)
let with_marks marks lits f =
  List.iter (fun l -> Bytes.set marks l '\001') lits;
  let r = f () in
  List.iter (fun l -> Bytes.set marks l '\000') lits;
  r

let marked marks l = Bytes.get marks l <> '\000'

let extract ?(deadline = Deadline.none) ?(minimize = true) model =
  let enc = Encode.encode_grouped model in
  let solver = enc.Encode.g_solver in
  let marks = Bytes.make (2 * Solver.nvars solver) '\000' in
  let sat_calls = ref 0 in
  let solve_under sels =
    incr sat_calls;
    Solver.solve_with ~deadline ~assumptions:sels solver
  in
  match solve_under (List.map snd enc.Encode.selectors) with
  | Solver.Sat -> Satisfiable
  | Solver.Unknown -> Unknown
  | Solver.Unsat ->
      (* An empty failed set means the hard (ungrouped) rows alone are
         contradictory; the core is then legitimately empty. *)
      let first = Solver.failed_assumptions solver in
      let aborted = ref false in
      (* Deletion-based shrinking to a minimal core (an irreducible
         unsatisfiable subset of groups).  Invariant: [kept @ cands] is
         an unsatisfiable assumption set, and every member of [kept]
         has been proven necessary — removable-necessity is monotone
         under further deletions, so the final set is minimal.  Each
         Unsat answer also commits its (possibly much smaller) failed
         subset, which is what makes the descent cheap in practice. *)
      let rec shrink kept cands =
        match cands with
        | [] -> kept
        | c :: rest ->
            if Deadline.expired deadline then begin
              aborted := true;
              kept @ cands
            end
            else begin
              match solve_under (kept @ rest) with
              | Solver.Unsat ->
                  let kept, rest =
                    with_marks marks (Solver.failed_assumptions solver) (fun () ->
                        (List.filter (marked marks) kept, List.filter (marked marks) rest))
                  in
                  shrink kept rest
              | Solver.Sat -> shrink (kept @ [ c ]) rest
              | Solver.Unknown ->
                  aborted := true;
                  kept @ cands
            end
      in
      let lits = if minimize && first <> [] then shrink [] first else first in
      (* the empty core (contradictory hard rows) is trivially minimal *)
      let minimized = minimize && not !aborted in
      (* labels in model-construction order, as the selectors were made *)
      let groups =
        with_marks marks lits (fun () ->
            List.filter_map
              (fun (g, l) -> if marked marks l then Some g else None)
              enc.Encode.selectors)
      in
      Core
        {
          groups;
          minimized;
          sat_calls = !sat_calls;
        }

(* The certificate of a core: clausify only the named groups' rows and
   the hard rows, refute them under proof logging, and have the
   independent checker accept the refutation.  The kept rows are a
   subset of the model's, so a refutation of them refutes the model. *)
let check ?(deadline = Deadline.none) ?proof model labels =
  let named = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace named g ()) labels;
  let keep i =
    match Model.row_group model i with None -> true | Some g -> Hashtbl.mem named g
  in
  let proof = match proof with Some p -> p | None -> Proof.create () in
  let enc = Encode.encode ~proof ~keep model in
  match Solver.solve ~deadline enc.Encode.solver with
  | Solver.Sat -> Some false
  | Solver.Unknown -> None
  | Solver.Unsat -> (
      (* the replay also demands the refutation be complete *)
      match Drat.check_until ~deadline proof with
      | Drat.Finished Drat.Valid -> Some true
      | Drat.Unfinished -> None
      | Drat.Finished (Drat.Invalid msg) ->
          failwith ("Unsat_core.check: the core's refutation was rejected (bug): " ^ msg))

let restrict model labels =
  let sub = Model.create ~name:(Model.name model ^ "+core") () in
  for v = 0 to Model.nvars model - 1 do
    ignore (Model.add_binary sub (Model.var_name model v))
  done;
  Model.iter_rows model
    (fun i (r : Model.row) ->
      let keep =
        match r.Model.group with None -> true | Some g -> List.mem g labels
      in
      if keep then
        (* render the original name: row indices shift under the filter,
           so auto names must be pinned to their source row *)
        Model.add_row sub ~name:(Model.row_name model i) ?group:r.Model.group r.Model.terms
          r.Model.sense r.Model.rhs);
  sub
