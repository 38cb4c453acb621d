module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Rng = Cgra_util.Rng

let valid = function Drat.Valid -> true | Drat.Invalid _ -> false

(* Solve [clauses] over [nvars] variables with proof logging attached;
   returns the solver result and the trace. *)
let solve_logged nvars clauses =
  let s = Solver.create () in
  let proof = Proof.create () in
  Solver.set_proof s (Some proof);
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve s, proof)

(* var p*holes + h: pigeon p sits in hole h *)
let php_clauses pigeons holes =
  let at_least =
    List.init pigeons (fun p -> List.init holes (fun h -> Lit.pos ((p * holes) + h)))
  in
  let mutex = ref [] in
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 2 do
      for p2 = p1 + 1 to pigeons - 1 do
        mutex := [ Lit.neg ((p1 * holes) + h); Lit.neg ((p2 * holes) + h) ] :: !mutex
      done
    done
  done;
  at_least @ List.rev !mutex

let php_proof () =
  let result, proof = solve_logged 12 (php_clauses 4 3) in
  Alcotest.(check bool) "php(4,3) is unsat" true (result = Solver.Unsat);
  proof

(* x0..x2; each pair must contain a true variable, yet all variables
   are pairwise exclusive: a 3-clique of mutexes with covering pairs. *)
let mutex_clique_clauses =
  [
    [ Lit.pos 0; Lit.pos 1 ];
    [ Lit.pos 0; Lit.pos 2 ];
    [ Lit.pos 1; Lit.pos 2 ];
    [ Lit.neg 0; Lit.neg 1 ];
    [ Lit.neg 0; Lit.neg 2 ];
    [ Lit.neg 1; Lit.neg 2 ];
  ]

(* ---------------- solver proofs are accepted ---------------- *)

let test_php_proof_valid () =
  let proof = php_proof () in
  Alcotest.(check bool) "trace claims a refutation" true (Proof.has_empty_clause proof);
  Alcotest.(check bool) "trace has derivation steps" true (Proof.n_steps proof > 0);
  Alcotest.(check int) "trace records the whole CNF" (List.length (php_clauses 4 3))
    (Proof.n_inputs proof);
  match Drat.check proof with
  | Drat.Valid -> ()
  | Drat.Invalid msg -> Alcotest.failf "php(4,3) certificate rejected: %s" msg

let test_mutex_clique_proof_valid () =
  let result, proof = solve_logged 3 mutex_clique_clauses in
  Alcotest.(check bool) "mutex clique is unsat" true (result = Solver.Unsat);
  Alcotest.(check bool) "certificate validates" true (valid (Drat.check proof))

let test_large_php_proof_valid () =
  (* php(6,5) takes hundreds of conflicts: exercises learnt clauses,
     restarts and (potentially) deletions in one certificate *)
  let result, proof = solve_logged 30 (php_clauses 6 5) in
  Alcotest.(check bool) "php(6,5) is unsat" true (result = Solver.Unsat);
  Alcotest.(check bool) "certificate validates" true (valid (Drat.check proof))

(* ---------------- tampered proofs are rejected ---------------- *)

let test_tamper_deleted_step () =
  (* strip every derivation except the final empty clause: with no
     lemma chain the empty clause is not unit-propagation derivable
     from the pigeonhole axioms *)
  let events = Proof.events (php_proof ()) in
  let tampered =
    List.filter
      (function
        | Proof.Input _ -> true
        | Proof.Add [] -> true
        | Proof.Add _ | Proof.Delete _ -> false)
      events
  in
  match Drat.check_events tampered with
  | Drat.Invalid _ -> ()
  | Drat.Valid -> Alcotest.fail "proof with its lemmas deleted was accepted"

let test_tamper_flipped_literal () =
  (* In an UNSAT CNF a flipped lemma can stay derivable (every clause is
     entailed), so the rejection must be engineered: here x is forced by
     the first two clauses, but refuting the last four needs a decision,
     so the flip [~x] propagates nothing — neither RUP nor RAT.  The
     untampered trace is the control. *)
  let a = Lit.pos 0 and x = Lit.pos 1 and p = Lit.pos 2 and q = Lit.pos 3 in
  let na = Lit.neg 0 and nx = Lit.neg 1 and np = Lit.neg 2 and nq = Lit.neg 3 in
  let inputs =
    [
      Proof.Input [ a; x ];
      Proof.Input [ na; x ];
      Proof.Input [ nx; p; q ];
      Proof.Input [ nx; np; q ];
      Proof.Input [ nx; p; nq ];
      Proof.Input [ nx; np; nq ];
    ]
  in
  let derivation first = [ Proof.Add [ first ]; Proof.Add [ p ]; Proof.Add [] ] in
  Alcotest.(check bool) "control: untampered proof validates" true
    (valid (Drat.check_events (inputs @ derivation x)));
  match Drat.check_events (inputs @ derivation nx) with
  | Drat.Invalid _ -> ()
  | Drat.Valid -> Alcotest.fail "proof with a flipped literal was accepted"

let test_tamper_forged_unit () =
  (* a forged unit "pigeon 0 sits in hole 0" propagates nothing over
     the pigeonhole axioms, so it is neither RUP nor RAT *)
  let events = Proof.events (php_proof ()) in
  let inputs, derivation =
    List.partition (function Proof.Input _ -> true | _ -> false) events
  in
  let tampered = inputs @ (Proof.Add [ Lit.pos 0 ] :: derivation) in
  match Drat.check_events tampered with
  | Drat.Invalid msg ->
      Alcotest.(check bool) "diagnostic names the step" true
        (Astring.String.is_infix ~affix:"neither RUP nor RAT" msg)
  | Drat.Valid -> Alcotest.fail "forged unit was accepted"

let test_truncated_proof_incomplete () =
  (* dropping the final empty clause leaves every step sound but the
     refutation unfinished *)
  let events = Proof.events (php_proof ()) in
  let truncated = List.filter (function Proof.Add [] -> false | _ -> true) events in
  (match Drat.check_events truncated with
  | Drat.Invalid msg ->
      Alcotest.(check bool) "diagnosed as incomplete" true
        (Astring.String.is_infix ~affix:"incomplete" msg)
  | Drat.Valid -> ());
  (* ... which is exactly what require_empty:false permits *)
  Alcotest.(check bool) "steps alone check out" true
    (valid (Drat.check_events ~require_empty:false truncated))

(* ---------------- inprocessing certificates ---------------- *)

module Inprocess = Cgra_satoca.Inprocess

let solve_logged_inproc config nvars clauses =
  let s = Solver.create () in
  let proof = Proof.create () in
  Solver.set_proof s (Some proof);
  Inprocess.install ~config s;
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve s, proof, s)

let test_inprocess_certificates_validate () =
  (* with eager probing the refutation must still check, because every
     failed-literal unit is logged as a derivation step *)
  let result, proof, s = solve_logged_inproc Inprocess.eager 30 (php_clauses 6 5) in
  Alcotest.(check bool) "unsat" true (result = Solver.Unsat);
  (match Drat.check proof with
  | Drat.Valid -> ()
  | Drat.Invalid msg -> Alcotest.failf "certificate rejected: %s" msg);
  (* the validation is not vacuous: probing does find failed literals
     on php(6,5) *)
  Alcotest.(check bool) "probing did work" true ((Solver.stats s).Solver.probed_failed > 0)

(* The next two are hand-written traces in the shapes variable
   elimination and self-subsuming resolution log.  No solver here
   produces them; they test the checker's deletion and RAT handling,
   which the DRAT format requires of any checker. *)
let test_tamper_dropped_elim_deletion () =
  (* BVE on x: add the resolvent, delete both parents.  A later blocked
     clause [c] is RAT only because the deletion removed the one clause
     whose resolvent is not derivable; drop that deletion from the
     trace and the checker must refuse the RAT step. *)
  let x = Lit.pos 0 and c = Lit.pos 1 and a = Lit.pos 2 and b = Lit.pos 3 in
  let nx = Lit.neg 0 and nc = Lit.neg 1 and nb = Lit.neg 3 in
  let c1 = [ x; nc ] and c2 = [ nx; a ] in
  let prefix =
    [
      Proof.Input c1;
      Proof.Input c2;
      Proof.Input [ a; b ];
      Proof.Input [ a; nb ];
      Proof.Add [ nc; a ];  (* the x-resolvent of c1 and c2 *)
      Proof.Delete c2;
    ]
  in
  Alcotest.(check bool) "control: elimination then blocked clause validates" true
    (valid
       (Drat.check_events ~require_empty:false (prefix @ [ Proof.Delete c1; Proof.Add [ c ] ])));
  match Drat.check_events ~require_empty:false (prefix @ [ Proof.Add [ c ] ]) with
  | Drat.Invalid _ -> ()
  | Drat.Valid -> Alcotest.fail "trace missing an elimination deletion was accepted"

let test_tamper_forged_strengthening () =
  (* self-subsuming resolution shortens (a|b|c) to (a|b) only against a
     partner like (a|b|~c); forge the same strengthened clause without
     the partner and it is neither RUP nor RAT *)
  let a = Lit.pos 0 and b = Lit.pos 1 and c = Lit.pos 2 and d = Lit.pos 3 in
  let na = Lit.neg 0 and nc = Lit.neg 2 in
  let strengthened = [ Proof.Add [ a; b ]; Proof.Delete [ a; b; c ] ] in
  Alcotest.(check bool) "control: genuine strengthening validates" true
    (valid
       (Drat.check_events ~require_empty:false
          ([ Proof.Input [ a; b; c ]; Proof.Input [ a; b; nc ]; Proof.Input [ na; d ] ]
          @ strengthened)));
  match
    Drat.check_events ~require_empty:false
      ([ Proof.Input [ a; b; c ]; Proof.Input [ na; d ] ] @ strengthened)
  with
  | Drat.Invalid _ -> ()
  | Drat.Valid -> Alcotest.fail "forged strengthened clause was accepted"

(* ---------------- checker unit behaviour ---------------- *)

let test_hand_written_proof () =
  (* (x|y)(~x|y)(~y|x)(~x|~y): derive y, delete a clause the rest of
     the proof no longer needs, derive x, conclude *)
  let x = Lit.pos 0 and y = Lit.pos 1 in
  let nx = Lit.neg 0 and ny = Lit.neg 1 in
  let events =
    [
      Proof.Input [ x; y ];
      Proof.Input [ nx; y ];
      Proof.Input [ ny; x ];
      Proof.Input [ nx; ny ];
      Proof.Add [ y ];
      Proof.Delete [ x; y ];
      Proof.Add [ x ];
      Proof.Add [];
    ]
  in
  Alcotest.(check bool) "hand-written DRAT accepted" true (valid (Drat.check_events events))

let test_rat_step_accepted () =
  (* [x] is not RUP over {(x|y)} but is RAT on pivot x (no clause
     contains ~x), the classic blocked-clause case *)
  let events = [ Proof.Input [ Lit.pos 0; Lit.pos 1 ]; Proof.Add [ Lit.pos 0 ] ] in
  Alcotest.(check bool) "pure-pivot RAT addition accepted" true
    (valid (Drat.check_events ~require_empty:false events));
  (* [x] against {~x} breaks satisfiability: the pivot's resolvent is
     not RUP, so neither RUP nor RAT admits it *)
  let events = [ Proof.Input [ Lit.neg 0 ]; Proof.Add [ Lit.pos 0 ] ] in
  Alcotest.(check bool) "satisfiability-breaking addition rejected" false
    (valid (Drat.check_events ~require_empty:false events))

let test_deletion_is_real () =
  (* [y] is RUP from {(x|y), (~x|y)}; delete (x|y) and the derivation
     collapses (the (~y|z) clause blocks the vacuous-RAT escape) *)
  let x = Lit.pos 0 and y = Lit.pos 1 and z = Lit.pos 2 in
  let nx = Lit.neg 0 and ny = Lit.neg 1 in
  let base = [ Proof.Input [ x; y ]; Proof.Input [ nx; y ]; Proof.Input [ ny; z ] ] in
  Alcotest.(check bool) "control: derivable before deletion" true
    (valid (Drat.check_events ~require_empty:false (base @ [ Proof.Add [ y ] ])));
  Alcotest.(check bool) "deleted clause cannot support a step" false
    (valid
       (Drat.check_events ~require_empty:false
          (base @ [ Proof.Delete [ x; y ]; Proof.Add [ y ] ])))

let test_proof_export () =
  let proof = php_proof () in
  let dimacs = Proof.to_dimacs proof in
  let drat = Proof.to_drat proof in
  Alcotest.(check bool) "DIMACS header present" true
    (Astring.String.is_prefix ~affix:"p cnf 12 " dimacs);
  (* the exported CNF is exactly the logged inputs over 12 variables *)
  Alcotest.(check string) "exported clauses match the trace"
    (Test_sat.print_dimacs ~nvars:12 (Proof.cnf proof))
    dimacs;
  Alcotest.(check bool) "DRAT body ends with the empty clause" true
    (Astring.String.is_suffix ~affix:"0\n" drat)

(* ---------------- replay under a deadline ---------------- *)

module Deadline = Cgra_util.Deadline

let proof_of events =
  let p = Proof.create () in
  List.iter
    (function
      | Proof.Input c -> Proof.log_input p c
      | Proof.Add c -> Proof.log_add p c
      | Proof.Delete c -> Proof.log_delete p c)
    events;
  p

let test_expired_deadline_unfinished () =
  List.iter
    (fun (what, proof) ->
      Alcotest.(check bool) (what ^ " validates") true (valid (Drat.check proof));
      match Drat.check_until ~deadline:(Deadline.after ~seconds:0.0) proof with
      | Drat.Unfinished -> ()
      | Drat.Finished _ -> Alcotest.failf "%s: replay finished past an expired deadline" what)
    [ ("php(4,3)", php_proof ()); ("php(6,5)", snd (solve_logged 30 (php_clauses 6 5))) ]

(* Without a deadline the replay is [check]: the same verdict, the
   same diagnostic, on every trace above, valid or tampered. *)
let test_no_deadline_is_check () =
  let php = Proof.events (php_proof ()) in
  let inputs, derivation = List.partition (function Proof.Input _ -> true | _ -> false) php in
  let traces =
    [
      php;
      Proof.events (snd (solve_logged 3 mutex_clique_clauses));
      Proof.events (snd (solve_logged 30 (php_clauses 6 5)));
      (let _, proof, _ = solve_logged_inproc Inprocess.eager 30 (php_clauses 6 5) in
       Proof.events proof);
      List.filter (function Proof.Add (_ :: _) | Proof.Delete _ -> false | _ -> true) php;
      inputs @ (Proof.Add [ Lit.pos 0 ] :: derivation);
      List.filter (function Proof.Add [] -> false | _ -> true) php;
      [ Proof.Input [ Lit.neg 0 ]; Proof.Add [ Lit.pos 0 ] ];
      [];
    ]
  in
  List.iteri
    (fun i events ->
      let proof = proof_of events in
      let expected = Drat.check proof in
      match Drat.check_until ~deadline:Deadline.none proof with
      | Drat.Finished v when v = expected -> ()
      | Drat.Finished _ -> Alcotest.failf "trace %d: a verdict other than check's" i
      | Drat.Unfinished -> Alcotest.failf "trace %d: unfinished with no deadline" i)
    traces

(* ---------------- ILP-layer certification ---------------- *)

module Model = Cgra_ilp.Model
module Solve = Cgra_ilp.Solve

(* x0 + x1 <= 1 and x0 + x1 >= 2: infeasible beyond presolve's reach
   only via clausal reasoning on two rows *)
let infeasible_model () =
  let m = Model.create () in
  let a = Model.add_binary m "a" and b = Model.add_binary m "b" in
  Model.add_row m [ (1, a); (1, b) ] Model.Le 1;
  Model.add_row m [ (1, a); (1, b) ] Model.Ge 2;
  m

let test_solve_certifies_infeasible () =
  let proof = Proof.create () in
  let outcome = Solve.solve ~proof (infeasible_model ()) in
  Alcotest.(check bool) "proven infeasible" true (outcome = Solve.Infeasible);
  Alcotest.(check bool) "trace refutes" true (Proof.has_empty_clause proof);
  Alcotest.(check bool) "certificate validates" true (valid (Drat.check proof))

let test_inprocess_ilp_certificate () =
  (* the certified path with eager probing: failed-literal units join
     the trace and the refutation must still check *)
  let proof = Proof.create () in
  let outcome = Solve.solve ~proof ~inprocess:Inprocess.eager (infeasible_model ()) in
  Alcotest.(check bool) "proven infeasible" true (outcome = Solve.Infeasible);
  Alcotest.(check bool) "trace refutes" true (Proof.has_empty_clause proof);
  Alcotest.(check bool) "certificate validates" true (valid (Drat.check proof))

let suites =
  [
    ( "drat",
      [
        Alcotest.test_case "php(4,3) proof validates" `Quick test_php_proof_valid;
        Alcotest.test_case "mutex-clique proof validates" `Quick test_mutex_clique_proof_valid;
        Alcotest.test_case "php(6,5) proof validates" `Quick test_large_php_proof_valid;
        Alcotest.test_case "deleted lemmas reject" `Quick test_tamper_deleted_step;
        Alcotest.test_case "flipped literal rejects" `Quick test_tamper_flipped_literal;
        Alcotest.test_case "forged unit rejects" `Quick test_tamper_forged_unit;
        Alcotest.test_case "truncated proof is incomplete" `Quick test_truncated_proof_incomplete;
        Alcotest.test_case "hand-written DRAT accepted" `Quick test_hand_written_proof;
        Alcotest.test_case "RAT fallback" `Quick test_rat_step_accepted;
        Alcotest.test_case "deletions really delete" `Quick test_deletion_is_real;
        Alcotest.test_case "trace exports (DIMACS/DRAT)" `Quick test_proof_export;
        Alcotest.test_case "expired deadline leaves a valid replay unfinished" `Quick
          test_expired_deadline_unfinished;
        Alcotest.test_case "no deadline: check_until is check" `Quick test_no_deadline_is_check;
        Alcotest.test_case "all engines certify infeasibility" `Quick
          test_solve_certifies_infeasible;
        Alcotest.test_case "inprocessing certificates validate" `Quick
          test_inprocess_certificates_validate;
        Alcotest.test_case "dropped elimination deletion rejects" `Quick
          test_tamper_dropped_elim_deletion;
        Alcotest.test_case "forged strengthening rejects" `Quick
          test_tamper_forged_strengthening;
        Alcotest.test_case "certified ILP with inprocessing" `Quick
          test_inprocess_ilp_certificate;
      ] );
  ]
