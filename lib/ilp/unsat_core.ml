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

(* The rows a set of group labels names: the hard (ungrouped) rows and
   every row of a named group. *)
let named_rows model labels =
  let named = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace named g ()) labels;
  fun i -> match Model.row_group model i with None -> true | Some g -> Hashtbl.mem named g

(* The labels of the marked selectors, in model-construction order (the
   order the selectors were made in). *)
let marked_labels marks selectors =
  List.filter_map (fun (g, l) -> if marked marks l then Some g else None) selectors

(* Decide the model under every selector of its full grouped encoding,
   with the failed set of an [Unsat] answer as labels (empty
   otherwise).  The encoding is local, so it is garbage once this
   returns. *)
let first_answer solve_under model =
  let enc = Encode.encode_grouped model in
  let solver = enc.Encode.g_solver in
  let answer = solve_under solver (List.map snd enc.Encode.selectors) in
  let marks = Bytes.make (2 * Solver.nvars solver) '\000' in
  ( answer,
    with_marks marks (Solver.failed_assumptions solver) (fun () ->
        marked_labels marks enc.Encode.selectors) )

(* Shrink the unsatisfiable group set [first] to a minimal core, on an
   encoding of only the hard rows and the rows of [first]'s groups: an
   unassumed selector frees its group on either encoding, so each
   answer is the full encoding's.  Invariant: [kept @ cands] is an
   unsatisfiable assumption set, and every member of [kept] has been
   proven necessary — necessity is monotone under further deletions, so
   the final set is minimal.  Each probe drops the first [k] candidates
   at once (QuickXplain's chunks, [k] starting at a quarter of them): an
   [Unsat] answer commits its (possibly much smaller) failed subset and
   doubles [k]; a [Sat] answer halves [k] and retries the same
   candidates, until at [k = 1] it proves the candidate necessary, and
   the next probe drops two.  Returns the core and whether the deadline
   left it minimal. *)
let shrink ~deadline solve_under model first =
  let enc = Encode.encode_grouped ~keep:(named_rows model first) model in
  let solver = enc.Encode.g_solver in
  let marks = Bytes.make (2 * Solver.nvars solver) '\000' in
  let rec go kept cands n k =
    if n = 0 then (kept, true)
    else if Deadline.expired deadline then (kept @ cands, false)
    else
      let k = min k n in
      let dropped = List.filteri (fun i _ -> i < k) cands
      and rest = List.filteri (fun i _ -> i >= k) cands in
      match solve_under solver (kept @ rest) with
      | Solver.Unsat ->
          let kept, rest =
            with_marks marks (Solver.failed_assumptions solver) (fun () ->
                (List.filter (marked marks) kept, List.filter (marked marks) rest))
          in
          go kept rest (List.length rest) (2 * k)
      | Solver.Sat when k > 1 -> go kept cands n (k / 2)
      | Solver.Sat -> go (kept @ dropped) rest (n - 1) 2
      | Solver.Unknown -> (kept @ cands, false)
  in
  let n = List.length enc.Encode.selectors in
  let lits, minimized = go [] (List.map snd enc.Encode.selectors) n ((n + 3) / 4) in
  (with_marks marks lits (fun () -> marked_labels marks enc.Encode.selectors), minimized)

let extract ?(deadline = Deadline.none) ?(minimize = true) model =
  let sat_calls = ref 0 in
  let solve_under solver sels =
    incr sat_calls;
    Solver.solve_with ~deadline ~assumptions:sels solver
  in
  match first_answer solve_under model with
  | Solver.Sat, _ -> Satisfiable
  | Solver.Unknown, _ -> Unknown
  | Solver.Unsat, first ->
      (* An empty failed set means the hard (ungrouped) rows alone are
         contradictory; the core is then legitimately empty, and
         trivially minimal. *)
      let groups, minimized =
        if (not minimize) || first = [] then (first, minimize)
        else if Deadline.expired deadline then (first, false)
        else shrink ~deadline solve_under model first
      in
      Core { groups; minimized; sat_calls = !sat_calls }

(* The certificate of a core: clausify only the named groups' rows and
   the hard rows, refute them under proof logging, and have the
   independent checker accept the refutation.  The kept rows are a
   subset of the model's, so a refutation of them refutes the model. *)
let check ?(deadline = Deadline.none) ?proof model labels =
  let proof = match proof with Some p -> p | None -> Proof.create () in
  let enc = Encode.encode ~proof ~keep:(named_rows model labels) model in
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
