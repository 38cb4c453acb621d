(* The propagation kernel: the search it drives must stay exactly the
   same, and its binary-clause fast path must be sound. *)

module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Inprocess = Cgra_satoca.Inprocess
module Encode = Cgra_ilp.Encode

(* ---------------- search-identity pins ---------------- *)

(* Conflicts, propagations and decisions of one cold solve of the paper
   formulation, with every inprocessing pass on.  Any change to one of
   these numbers means the solver explores a different search tree: a
   kernel change must leave all three untouched.  A cell names a paper
   architecture at [size], or a gallery preset (size 0). *)
let test_search_pins () =
  List.iter
    (fun (bench, arch, size, ii, conflicts, propagations, decisions) ->
      let dfg = Option.get (Cgra_dfg.Benchmarks.by_name bench) in
      let config =
        match Cgra_arch.Library.find_config ~size arch with
        | Some c -> c
        | None -> Option.get (Cgra_arch.Library.find_gallery arch)
      in
      let a = Cgra_arch.Library.make config in
      let mrrg = Cgra_mrrg.Build.elaborate a ~ii in
      let f = Cgra_core.Formulation.build ~objective:Cgra_core.Formulation.Feasibility dfg mrrg in
      let e = Encode.encode ~inprocess:Inprocess.all_on f.Cgra_core.Formulation.model in
      ignore (Solver.solve e.Encode.solver);
      let st = Solver.stats e.Encode.solver in
      let label =
        Printf.sprintf "%s@%s/ii%d" bench (Cgra_arch.Library.name_of_config config) ii
      in
      Alcotest.(check (triple int int int))
        (label ^ " (conflicts, propagations, decisions)")
        (conflicts, propagations, decisions)
        (st.Solver.conflicts, st.Solver.propagations, st.Solver.decisions))
    [
      ("mac", "homo-orth", 4, 1, 273, 312390, 1657);
      ("mult_10", "homo-orth", 2, 1, 2790, 698254, 3695);
      ("cos_4", "homo-orth", 2, 2, 902, 1592302, 1562);
      ("2x2-p", "homo-torus-8x8", 0, 1, 307, 705650, 7935);
    ]

(* ---------------- search pin across incremental intake ---------------- *)

(* One optimising search: the first solve finds a mapping, then the
   descent adds the objective's totalizer to the solved solver and
   re-solves under bound assumptions until the optimum is proven.  The
   totalizer's clauses reach a solver that already watches learnt
   clauses, so the pin covers intake into a searched solver.  Counts
   are cumulative over the whole descent. *)
let test_incremental_pin () =
  let dfg = Option.get (Cgra_dfg.Benchmarks.by_name "2x2-f") in
  let a = Cgra_arch.Library.make (Option.get (Cgra_arch.Library.find_config ~size:2 "homo-orth")) in
  let mrrg = Cgra_mrrg.Build.elaborate a ~ii:2 in
  let f = Cgra_core.Formulation.build ~objective:Cgra_core.Formulation.Min_routing dfg mrrg in
  let model = f.Cgra_core.Formulation.model in
  let e = Encode.encode ~inprocess:Inprocess.all_on model in
  let report = Cgra_ilp.Solve.search e model in
  let calls = report.Cgra_ilp.Solve.sat_calls in
  let objective =
    match report.Cgra_ilp.Solve.outcome with
    | Cgra_ilp.Solve.Optimal (_, obj) -> obj
    | o -> Alcotest.failf "expected an optimum, got %a" Cgra_ilp.Solve.pp_outcome o
  in
  let st = Solver.stats e.Encode.solver in
  Alcotest.(check (pair int int)) "2x2-f@homo-orth-2x2/ii2 (objective, SAT calls)" (86, 10)
    (objective, calls);
  Alcotest.(check (triple int int int))
    "2x2-f@homo-orth-2x2/ii2 descent (conflicts, propagations, decisions)" (8958, 26257333, 18793)
    (st.Solver.conflicts, st.Solver.propagations, st.Solver.decisions)

(* ---------------- search pin through learnt-DB reduction ---------------- *)

(* PHP(9,8): nine pigeons, eight holes, variable [p * 8 + h] = pigeon p
   in hole h.  The hole constraints come first, then each pigeon's
   at-least-one clause, everything in descending order: last hole and
   last pigeon first.  Its search learns past the
   8000-clause limit, so [reduce_db] deletes learnt clauses and the
   clause store is compacted: the pinned counts cover deletion order,
   compaction and relocated reasons and watches.  The proof logs every
   deletion, and the checker must accept it. *)
let php_9_8 () =
  let pigeons = 9 and holes = 8 in
  let var p h = (p * holes) + h in
  let mutex = ref [] in
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 2 do
      for p2 = p1 + 1 to pigeons - 1 do
        mutex := [ Lit.neg (var p1 h); Lit.neg (var p2 h) ] :: !mutex
      done
    done
  done;
  !mutex
  @ List.init pigeons (fun i -> List.init holes (fun h -> Lit.pos (var (pigeons - 1 - i) h)))

let test_reduce_db_pin () =
  let s = Solver.create () in
  let proof = Proof.create () in
  Solver.set_proof s (Some proof);
  ignore (Solver.new_vars s 72);
  List.iter (Solver.add_clause s) (php_9_8 ());
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check (triple int int int))
    "PHP(9,8) (conflicts, propagations, decisions)" (26649, 344240, 32256)
    (st.Solver.conflicts, st.Solver.propagations, st.Solver.decisions);
  Alcotest.(check int) "learnt clauses kept" 6681 st.Solver.learnt;
  Alcotest.(check int) "proof steps" 46611 (Proof.n_steps proof);
  Alcotest.(check bool) "refutation checks" true (Drat.check proof = Drat.Valid);
  Alcotest.(check bool) "the oracle accepts it too" true
    (Drat_oracle.check (Proof.events proof) = Drat.Valid)

(* ---------------- binary-heavy differential properties ---------------- *)

(* Random CNFs shaped like the mapper's: at least four binary clauses
   (over two distinct variables) for every clause of three to five
   literals, so most watch entries take the binary path. *)
let gen_binary_heavy =
  let open QCheck2.Gen in
  let* nvars = int_range 2 10 in
  let var = int_range 0 (nvars - 1) in
  let binary =
    let* v = var and* d = int_range 1 (nvars - 1) and* s1 = bool and* s2 = bool in
    return [ Lit.make v s1; Lit.make ((v + d) mod nvars) s2 ]
  in
  let* bins = list_size (int_range 1 40) binary in
  let* longs =
    list_size (int_range 0 (List.length bins / 4)) (list_size (int_range 3 5) (map2 Lit.make var bool))
  in
  let* clauses = shuffle_l (bins @ longs) in
  return (nvars, clauses)

let print_cnf (nvars, clauses) = Test_sat.print_dimacs ~nvars clauses

(* Plain CDCL, and eager probing, whose probes run the same propagation
   kernel from the root at solve start and between restarts. *)
let configs = [ Inprocess.all_off; Inprocess.eager ]

(* Both the hint checker and the test tree's RUP/RAT oracle accept. *)
let checks ?require_empty proof =
  Drat.check ?require_empty proof = Drat.Valid
  && Drat_oracle.check ?require_empty (Proof.events proof) = Drat.Valid

let solve_logged config nvars clauses =
  let s = Solver.create () in
  let proof = Proof.create () in
  Solver.set_proof s (Some proof);
  Inprocess.install ~config s;
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve s, s, proof)

let prop_binary_heavy_agrees =
  QCheck2.Test.make ~name:"binary-heavy CNF: verdict = brute force, models satisfy" ~count:400
    ~print:print_cnf gen_binary_heavy (fun (nvars, clauses) ->
      let expected = Test_sat.brute_force_sat nvars clauses in
      List.for_all
        (fun config ->
          match solve_logged config nvars clauses with
          | Solver.Sat, s, _ -> expected && Test_sat.model_satisfies s clauses
          | Solver.Unsat, _, _ -> not expected
          | Solver.Unknown, _, _ -> false)
        configs)

let prop_binary_heavy_drat =
  QCheck2.Test.make ~name:"binary-heavy CNF: every proof checks" ~count:400 ~print:print_cnf
    gen_binary_heavy (fun (nvars, clauses) ->
      List.for_all
        (fun config ->
          match solve_logged config nvars clauses with
          | Solver.Unsat, _, proof -> checks proof
          | Solver.Sat, _, proof -> checks ~require_empty:false proof
          | Solver.Unknown, _, _ -> false)
        configs)

(* ---------------- interleaved intake ---------------- *)

(* Random CNFs fed in batches, with a solve between batches.  Some
   clauses are units, some repeat a literal and some hold a literal and
   its complement.  A batch may go in under a guard: variable [g]
   (the last one) is appended to each of its clauses, and a solve that
   assumes [~g] enforces them.  A batch may also seed phases, which
   propagates without searching.  Clauses reach the solver through
   every entry point, so a unit mid-batch, a phase seeding, a solve and
   a probe each find clauses not yet watched. *)
type batch = { clauses : Lit.t list list; guarded : bool; assume : bool; seed : bool }

let gen_interleaved =
  let open QCheck2.Gen in
  let* nvars = int_range 1 8 in
  let lit = map2 Lit.make (int_range 0 (nvars - 1)) bool in
  let clause =
    frequency
      [
        (2, map (fun l -> [ l ]) lit);
        (3, list_size (return 2) lit);
        (1, map2 (fun l rest -> l :: Lit.negate l :: rest) lit (list_size (int_range 0 2) lit));
        (4, list_size (int_range 3 5) lit);
      ]
  in
  let batch =
    let* clauses = list_size (int_range 0 6) clause
    and* guarded = bool
    and* assume = bool
    and* seed = bool in
    return { clauses; guarded; assume; seed }
  in
  let* batches = list_size (int_range 1 6) batch in
  return (nvars, batches)

let print_interleaved (nvars, batches) =
  String.concat ""
    (List.mapi
       (fun i b ->
         Printf.sprintf "batch %d%s%s%s:\n%s" i
           (if b.guarded then " guarded" else "")
           (if b.assume then " assume ~g" else "")
           (if b.seed then " seed" else "")
           (Test_sat.print_dimacs ~nvars:(nvars + 1) b.clauses))
       batches)

let add_any s = function
  | [ a; b ] -> Solver.add_binary s a b
  | [ a; b; c ] -> Solver.add_ternary s a b c
  | c when List.length c mod 2 = 0 -> Solver.add_clause_array s (Array.of_list c)
  | c -> Solver.add_clause s c

(* Each solve: the verdict is brute force's on every clause added so
   far (guarded ones with [g]) and the assumption; a model satisfies
   them all; the proof so far checks, and ends in the empty clause when
   no assumption is to blame. *)
let interleaved_agrees config (nvars, batches) =
  let s = Solver.create () in
  let proof = Proof.create () in
  Solver.set_proof s (Some proof);
  Inprocess.install ~config s;
  ignore (Solver.new_vars s (nvars + 1));
  let g = Lit.pos nvars in
  let added = ref [] in
  List.for_all
    (fun b ->
      Solver.set_guard s (if b.guarded then Some g else None);
      List.iter
        (fun c ->
          add_any s c;
          added := (if b.guarded then g :: c else c) :: !added)
        b.clauses;
      Solver.set_guard s None;
      if b.seed then Solver.seed_phases s (List.concat b.clauses);
      let assumptions = if b.assume then [ Lit.negate g ] else [] in
      let cnf = List.map (fun a -> [ a ]) assumptions @ !added in
      let expected = Test_sat.brute_force_sat (nvars + 1) cnf in
      match Solver.solve_with ~assumptions s with
      | Solver.Sat ->
          expected && Test_sat.model_satisfies s cnf
          && checks ~require_empty:false proof
      | Solver.Unsat ->
          (not expected) && checks ~require_empty:(Solver.failed_assumptions s = []) proof
      | Solver.Unknown -> false)
    batches

let prop_interleaved_intake =
  QCheck2.Test.make
    ~name:"interleaved intake: verdicts = brute force, models satisfy, proofs check" ~count:300
    ~print:print_interleaved gen_interleaved (fun case ->
      List.for_all (fun config -> interleaved_agrees config case) configs)

(* ---------------- binary watch entries ---------------- *)

let result = Alcotest.testable (fun fmt r ->
    Format.pp_print_string fmt
      (match r with Solver.Sat -> "Sat" | Solver.Unsat -> "Unsat" | Solver.Unknown -> "Unknown"))
    ( = )

let sorted l = List.sort compare l

(* a, b, c = variables 0, 1, 2.  Deciding a then b runs into
   (~a | ~b | c) & (~a | ~b | ~c), so the first conflict learns the
   binary clause (~b | ~a) and it becomes the reason of ~b at once.
   Assuming b afterwards makes it fire the other way round: it must
   then imply ~a with ~a moved to position 0, which final-conflict
   analysis relies on when it walks back from ~a to the decision b. *)
let test_binary_learnt_reason () =
  let a = Lit.pos 0 and b = Lit.pos 1 and c = Lit.pos 2 in
  let s = Solver.create () in
  let proof = Proof.create () in
  Solver.set_proof s (Some proof);
  ignore (Solver.new_vars s 3);
  Solver.set_random_freq s 0.;
  Solver.add_clause s [ Lit.negate a; Lit.negate b; c ];
  Solver.add_clause s [ Lit.negate a; Lit.negate b; Lit.negate c ];
  Solver.set_activity s 0 3.;
  Solver.set_activity s 1 2.;
  Solver.set_phase s 0 true;
  Solver.set_phase s 1 true;
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  (* slots 0 and 1 hold the two input clauses; later ones are learnt *)
  let learnt =
    List.filter
      (fun ci -> ci >= 2 && Array.length (Solver.clause_view s ci) = 2)
      (List.init (Solver.n_clause_slots s) Fun.id)
  in
  let ci =
    match learnt with [ ci ] -> ci | _ -> Alcotest.fail "expected one binary learnt clause"
  in
  Alcotest.(check (array int)) "asserting literal first" [| Lit.negate b; Lit.negate a |]
    (Solver.clause_view s ci);
  Alcotest.(check bool) "a true, b false" true (Solver.lit_value s a && not (Solver.lit_value s b));
  Alcotest.check result "b assumed: sat" Solver.Sat (Solver.solve_with ~assumptions:[ b ] s);
  Alcotest.(check bool) "b implies ~a" false (Solver.lit_value s a);
  Alcotest.check result "b and a assumed: unsat" Solver.Unsat
    (Solver.solve_with ~assumptions:[ b; a ] s);
  Alcotest.(check (array int)) "implied literal moved to position 0"
    [| Lit.negate a; Lit.negate b |] (Solver.clause_view s ci);
  Alcotest.(check (list int)) "both assumptions blamed" (sorted [ a; b ])
    (sorted (Solver.failed_assumptions s));
  Solver.add_clause s [ a ];
  Solver.add_clause s [ b ];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "refutation checks" true (checks proof)

let suites =
  [
    ( "sat:kernel",
      [
        Alcotest.test_case "search pins" `Quick test_search_pins;
        Alcotest.test_case "binary learnt clause as a reason" `Quick test_binary_learnt_reason;
        Alcotest.test_case "PHP(9,8) pin through learnt-DB reduction" `Slow test_reduce_db_pin;
        Alcotest.test_case "optimising descent pin across incremental intake" `Slow
          test_incremental_pin;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_binary_heavy_agrees; prop_binary_heavy_drat; prop_interleaved_intake ]
    );
  ]
