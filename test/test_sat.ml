module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Card = Cgra_satoca.Card
module Rng = Cgra_util.Rng

(* ---------------- brute force reference ---------------- *)

(* Evaluate a clause list under assignment bitmask m (bit v = var v). *)
let eval_clauses nvars clauses m =
  ignore nvars;
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          let v = Lit.var l in
          let bit = (m lsr v) land 1 = 1 in
          if Lit.sign l then bit else not bit)
        clause)
    clauses

let brute_force_sat nvars clauses =
  let rec go m = m < 1 lsl nvars && (eval_clauses nvars clauses m || go (m + 1)) in
  go 0

(* A clause list as DIMACS CNF: the QCheck printer of the CNF
   properties here and in the kernel suite. *)
let print_dimacs ~nvars clauses =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" nvars (List.length clauses));
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d " (Lit.to_dimacs l))) c;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf

let solve_clauses nvars clauses =
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  Solver.solve s

(* ---------------- unit tests ---------------- *)

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "v true" true (Solver.value s v)

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Solver.add_clause s [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "not ok" false (Solver.ok s)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_no_clauses_sat () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 5);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_implication_chain () =
  (* x0 -> x1 -> ... -> x9, x0 forced true: all true *)
  let s = Solver.create () in
  let n = 10 in
  ignore (Solver.new_vars s n);
  for i = 0 to n - 2 do
    Solver.add_clause s [ Lit.neg i; Lit.pos (i + 1) ]
  done;
  Solver.add_clause s [ Lit.pos 0 ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "x%d true" i) true (Solver.value s i)
  done

let test_model_satisfies () =
  (* A satisfiable 3-CNF; check the returned model satisfies it. *)
  let clauses =
    [
      [ Lit.pos 0; Lit.pos 1; Lit.neg 2 ];
      [ Lit.neg 0; Lit.pos 2; Lit.pos 3 ];
      [ Lit.neg 1; Lit.neg 3; Lit.pos 4 ];
      [ Lit.pos 2; Lit.neg 4; Lit.pos 5 ];
      [ Lit.neg 5; Lit.pos 0 ];
    ]
  in
  let s = Solver.create () in
  ignore (Solver.new_vars s 6);
  List.iter (Solver.add_clause s) clauses;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  List.iter
    (fun clause ->
      Alcotest.(check bool) "clause satisfied" true
        (List.exists (fun l -> Solver.lit_value s l) clause))
    clauses

let pigeonhole pigeons holes =
  (* var p*holes + h: pigeon p in hole h *)
  let s = Solver.create () in
  ignore (Solver.new_vars s (pigeons * holes));
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos ((p * holes) + h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 2 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg ((p1 * holes) + h); Lit.neg ((p2 * holes) + h) ]
      done
    done
  done;
  Solver.solve s

let test_pigeonhole_unsat () =
  Alcotest.(check bool) "php(4,3) unsat" true (pigeonhole 4 3 = Solver.Unsat);
  Alcotest.(check bool) "php(6,5) unsat" true (pigeonhole 6 5 = Solver.Unsat)

let test_pigeonhole_sat () =
  Alcotest.(check bool) "php(4,4) sat" true (pigeonhole 4 4 = Solver.Sat)

let test_incremental_clauses () =
  (* solve, then add clauses ruling the model out, solve again *)
  let s = Solver.create () in
  let n = 4 in
  ignore (Solver.new_vars s n);
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.(check bool) "first sat" true (Solver.solve s = Solver.Sat);
  let rec exclude_and_count count =
    if count > 20 then Alcotest.fail "too many models"
    else begin
      let blocking = List.init n (fun v -> Lit.make v (not (Solver.value s v))) in
      Solver.add_clause s blocking;
      match Solver.solve s with
      | Solver.Sat -> exclude_and_count (count + 1)
      | Solver.Unsat -> count
      | Solver.Unknown -> Alcotest.fail "unexpected unknown"
    end
  in
  (* 2^4 = 16 assignments, minus the 4 with x0=x1=0 -> 12 models; we
     found one already so 11 more *)
  Alcotest.(check int) "model count" 11 (exclude_and_count 0)

let test_deadline_unknown () =
  (* A hard instance with an immediate deadline must return Unknown. *)
  let s = Solver.create () in
  let pigeons = 9 and holes = 8 in
  ignore (Solver.new_vars s (pigeons * holes));
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos ((p * holes) + h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 2 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg ((p1 * holes) + h); Lit.neg ((p2 * holes) + h) ]
      done
    done
  done;
  let d = Cgra_util.Deadline.after ~seconds:0.0 in
  Alcotest.(check bool) "unknown on expired deadline" true (Solver.solve ~deadline:d s = Solver.Unknown)

let test_stats_accumulate () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 12);
  ignore (pigeonhole 4 3);
  (* stats on a fresh solver that solved something non-trivial *)
  let s2 = Solver.create () in
  ignore (Solver.new_vars s2 12);
  for p = 0 to 3 do
    Solver.add_clause s2 (List.init 3 (fun h -> Lit.pos ((p * 3) + h)))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 3 do
        Solver.add_clause s2 [ Lit.neg ((p1 * 3) + h); Lit.neg ((p2 * 3) + h) ]
      done
    done
  done;
  ignore (Solver.solve s2);
  let st = Solver.stats s2 in
  Alcotest.(check bool) "conflicts counted" true (st.conflicts > 0);
  ignore s

(* ---------------- random CNF vs brute force ---------------- *)

let random_cnf rng nvars nclauses width =
  List.init nclauses (fun _ ->
      let w = 1 + Rng.int rng width in
      List.init w (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))

let prop_agrees_with_brute_force =
  QCheck2.Test.make ~name:"solver agrees with brute force" ~count:300
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let nvars = 1 + Rng.int rng 8 in
      let nclauses = Rng.int rng 30 in
      let clauses = random_cnf rng nvars nclauses 3 in
      let expected = brute_force_sat nvars clauses in
      match solve_clauses nvars clauses with
      | Solver.Sat -> expected
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

let prop_sat_model_valid =
  QCheck2.Test.make ~name:"returned models satisfy the formula" ~count:300
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let nvars = 1 + Rng.int rng 15 in
      let nclauses = Rng.int rng 60 in
      let clauses = random_cnf rng nvars nclauses 4 in
      let s = Solver.create () in
      ignore (Solver.new_vars s nvars);
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Unsat -> true
      | Solver.Unknown -> false
      | Solver.Sat ->
          List.for_all (fun clause -> List.exists (fun l -> Solver.lit_value s l) clause) clauses)

(* ---------------- cardinality encodings ---------------- *)

let count_true s lits = List.length (List.filter (fun l -> Solver.lit_value s l) lits)

(* Enumerate all models of [extra constraints + cardinality] by blocking
   over the base variables, and compare against arithmetic truth. *)
let check_card_encoding ~nbase ~constrain ~predicate =
  let s = Solver.create () in
  let base = List.init nbase (fun _ -> Lit.pos (Solver.new_var s)) in
  constrain s base;
  let seen = Hashtbl.create 64 in
  let rec loop () =
    match Solver.solve s with
    | Solver.Unknown -> Alcotest.fail "unknown in cardinality check"
    | Solver.Unsat -> ()
    | Solver.Sat ->
        let m = List.map (fun l -> Solver.lit_value s l) base in
        Hashtbl.replace seen m ();
        Solver.add_clause s
          (List.map (fun l -> if Solver.lit_value s l then Lit.negate l else l) base);
        loop ()
  in
  loop ();
  (* every model found satisfies the predicate *)
  Hashtbl.iter
    (fun m () ->
      let k = List.length (List.filter Fun.id m) in
      Alcotest.(check bool) "model obeys bound" true (predicate k))
    seen;
  (* and the model count matches the full enumeration *)
  let expected = ref 0 in
  for mask = 0 to (1 lsl nbase) - 1 do
    let k = ref 0 in
    for b = 0 to nbase - 1 do
      if (mask lsr b) land 1 = 1 then incr k
    done;
    if predicate !k then incr expected
  done;
  Alcotest.(check int) "model count" !expected (Hashtbl.length seen)

let test_amo_pairwise () =
  check_card_encoding ~nbase:5
    ~constrain:(fun s base -> Card.at_most_one ~encoding:Card.Pairwise s base)
    ~predicate:(fun k -> k <= 1)

let test_amo_sequential () =
  check_card_encoding ~nbase:7
    ~constrain:(fun s base -> Card.at_most_one ~encoding:Card.Sequential s base)
    ~predicate:(fun k -> k <= 1)

let test_exactly_one () =
  check_card_encoding ~nbase:6
    ~constrain:(fun s base -> Card.exactly_one s base)
    ~predicate:(fun k -> k = 1)

let test_at_most_k () =
  List.iter
    (fun (n, k) ->
      check_card_encoding ~nbase:n
        ~constrain:(fun s base -> Card.at_most_k s base k)
        ~predicate:(fun c -> c <= k))
    [ (5, 0); (5, 2); (6, 3); (7, 1); (6, 5); (4, 4) ]

let test_at_least_k () =
  List.iter
    (fun (n, k) ->
      check_card_encoding ~nbase:n
        ~constrain:(fun s base -> Card.at_least_k s base k)
        ~predicate:(fun c -> c >= k))
    [ (5, 0); (5, 2); (6, 3); (7, 6); (4, 4) ]

(* Uncapped, and capped just above the bound or past it: a capped tree
   bounds the sum exactly like the full one, for every bound it
   covers, and refuses the others. *)
let test_totalizer_bound () =
  List.iter
    (fun (n, k) ->
      List.iter
        (fun cap ->
          check_card_encoding ~nbase:n
            ~constrain:(fun s base ->
              let tot = Card.Totalizer.build ?cap s base in
              Option.iter (fun l -> Solver.add_clause s [ l ]) (Card.Totalizer.bound_lit tot k))
            ~predicate:(fun c -> c <= k))
        [ None; Some (k + 1); Some (k + 3) ])
    [ (5, 0); (5, 2); (6, 3); (6, 1); (4, 4); (7, 2); (8, 3) ];
  let s = Solver.create () in
  let base = List.init 6 (fun _ -> Lit.pos (Solver.new_var s)) in
  let tot = Card.Totalizer.build ~cap:3 s base in
  Alcotest.(check int) "three outputs" 3 (Array.length (Card.Totalizer.outputs tot));
  Alcotest.(check bool) "a bound past the inputs is vacuous" true
    (Card.Totalizer.bound_lit tot 6 = None);
  Alcotest.check_raises "bound past the cap rejected"
    (Invalid_argument "Totalizer.bound_lit: bound past the cap") (fun () ->
      ignore (Card.Totalizer.bound_lit tot 4))

(* A capped totalizer under a bound it covers, and a random partial
   assignment of its inputs (by assumption): satisfiable exactly when
   the inputs assumed true do not pass the bound, and a model never
   does.  Inputs may repeat, as the objective's weighted units do. *)
let prop_capped_totalizer =
  QCheck2.Test.make ~name:"capped totalizer bounds like arithmetic" ~count:300
    ~print:(fun (n, k, cap, picks) ->
      Printf.sprintf "n=%d k=%d cap=%d assumed=[%s]" n k cap
        (String.concat ";" (List.map (fun (i, b) -> Printf.sprintf "%d:%b" i b) picks)))
    QCheck2.Gen.(
      let* n = int_range 1 9 in
      let* k = int_range 0 n in
      let* cap = int_range (k + 1) (n + 1) in
      let* picks = list_size (int_range 0 n) (pair (int_range 0 (n - 1)) bool) in
      return (n, k, cap, picks))
    (fun (n, k, cap, picks) ->
      let s = Solver.create () in
      let nvars = max 1 (n - 1) in
      let vars = List.init nvars (fun _ -> Solver.new_var s) in
      (* input i is variable i mod (n - 1): the last input repeats one *)
      let inputs = List.init n (fun i -> Lit.pos (List.nth vars (i mod nvars))) in
      let tot = Card.Totalizer.build ~cap s inputs in
      let picks = List.sort_uniq compare (List.map (fun (i, b) -> (i mod nvars, b)) picks) in
      let consistent = List.for_all (fun (v, b) -> not (List.mem (v, not b) picks)) picks in
      let assumptions =
        Option.to_list (Card.Totalizer.bound_lit tot k)
        @ List.map (fun (v, b) -> Lit.make (List.nth vars v) b) picks
      in
      let count value = List.length (List.filter value inputs) in
      let forced = count (fun l -> List.mem (Lit.var l, true) picks) in
      match Solver.solve_with ~assumptions s with
      | Solver.Sat -> consistent && count (Solver.lit_value s) <= k
      | Solver.Unsat -> (not consistent) || forced > k
      | Solver.Unknown -> false)

(* [count_at_most_k] counts exactly what [at_most_k_array] stores and
   allocates, with and without a guard literal on every clause: fresh
   literals leave the solver nothing to shorten or drop. *)
let test_count_at_most_k () =
  for n = 0 to 12 do
    for k = 0 to n + 1 do
      List.iter
        (fun extra ->
          let s = Solver.create () in
          let arr = Array.init n (fun _ -> Lit.pos (Solver.new_var s)) in
          if extra = 1 then Solver.set_guard s (Some (Lit.pos (Solver.new_var s)));
          let before = Solver.nvars s in
          Card.at_most_k_array s arr k;
          let stored = List.init (Solver.n_clause_slots s) (Solver.clause_view s) in
          let literals = List.fold_left (fun acc c -> acc + Array.length c) 0 stored in
          let size = { Card.clauses = 0; literals = 0; vars = 0 } in
          Card.count_at_most_k size ~extra n k;
          Alcotest.(check (triple int int int))
            (Printf.sprintf "n=%d k=%d extra=%d" n k extra)
            (List.length stored, literals, Solver.nvars s - before)
            (size.Card.clauses, size.Card.literals, size.Card.vars))
        [ 0; 1 ]
    done
  done

let prop_at_most_k_random =
  QCheck2.Test.make ~name:"at_most_k never admits overflow" ~count:100
    QCheck2.Gen.(tup2 (int_range 2 9) (int_range 0 60_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let k = Rng.int rng (n + 1) in
      let s = Solver.create () in
      let base = List.init n (fun _ -> Lit.pos (Solver.new_var s)) in
      Card.at_most_k s base k;
      (* random extra forcing clauses *)
      for _ = 1 to Rng.int rng 5 do
        let l = Rng.choose_list rng base in
        Solver.add_clause s [ (if Rng.bool rng then l else Lit.negate l) ]
      done;
      match Solver.solve s with
      | Solver.Sat -> count_true s base <= k
      | Solver.Unsat -> true
      | Solver.Unknown -> false)

(* ---------------- assumptions ---------------- *)

let test_assumptions_empty_is_solve () =
  (* solve_with ~assumptions:[] must be the plain decision procedure,
     on both a satisfiable and an unsatisfiable instance *)
  let sat = Solver.create () in
  ignore (Solver.new_vars sat 4);
  Solver.add_clause sat [ Lit.pos 0; Lit.pos 1 ];
  Solver.add_clause sat [ Lit.neg 0; Lit.pos 2 ];
  Alcotest.(check bool) "sat" true (Solver.solve_with ~assumptions:[] sat = Solver.Sat);
  Alcotest.(check (list int)) "no failed assumptions" [] (Solver.failed_assumptions sat);
  let unsat = Solver.create () in
  let v = Solver.new_var unsat in
  Solver.add_clause unsat [ Lit.pos v ];
  Solver.add_clause unsat [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve_with ~assumptions:[] unsat = Solver.Unsat);
  Alcotest.(check (list int)) "empty core" [] (Solver.failed_assumptions unsat)

let test_assumptions_conflicting_pair () =
  (* assuming a and ¬a must fail without touching the clause database:
     the failed set names the assumptions, and the solver stays usable *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  ignore (Solver.new_vars s 2);
  Alcotest.(check bool) "unsat under a,¬a" true
    (Solver.solve_with ~assumptions:[ Lit.pos a; Lit.neg a ] s = Solver.Unsat);
  let failed = Solver.failed_assumptions s in
  Alcotest.(check bool) "conflicting literal in core" true (List.mem (Lit.neg a) failed);
  Alcotest.(check bool) "core within assumptions" true
    (List.for_all (fun l -> l = Lit.pos a || l = Lit.neg a) failed);
  Alcotest.(check bool) "solver still ok" true (Solver.ok s);
  Alcotest.(check bool) "plain solve recovers sat" true (Solver.solve s = Solver.Sat)

let test_assumptions_implied_conflict () =
  (* (¬a∨b) ∧ (¬a∨¬b): assuming a is refuted by propagation, and the
     core is exactly [a]; dropping the assumption restores Sat *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  let b = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg a; Lit.neg b ];
  Alcotest.(check bool) "unsat under a" true
    (Solver.solve_with ~assumptions:[ Lit.pos a ] s = Solver.Unsat);
  Alcotest.(check (list int)) "core is [a]" [ Lit.pos a ] (Solver.failed_assumptions s);
  Alcotest.(check bool) "sat without assumptions" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a decided false" false (Solver.value s a)

let test_assumptions_irrelevant_excluded () =
  (* an assumption that plays no role in the conflict must not be
     blamed: assume [c; a] where only a is refutable *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  let b = Solver.new_var s in
  let c = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg a; Lit.neg b ];
  Alcotest.(check bool) "unsat under c,a" true
    (Solver.solve_with ~assumptions:[ Lit.pos c; Lit.pos a ] s = Solver.Unsat);
  let failed = Solver.failed_assumptions s in
  Alcotest.(check bool) "a blamed" true (List.mem (Lit.pos a) failed);
  Alcotest.(check bool) "c not blamed" false (List.mem (Lit.pos c) failed)

let test_assumptions_globally_unsat () =
  (* when the clauses alone are contradictory the core is empty: no
     assumption is to blame, and the solver is dead for good *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Solver.add_clause s [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true
    (Solver.solve_with ~assumptions:[ Lit.pos a ] s = Solver.Unsat);
  Alcotest.(check (list int)) "empty core" [] (Solver.failed_assumptions s);
  Alcotest.(check bool) "solver dead" false (Solver.ok s)

let test_assumptions_unknown_var () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 2);
  Alcotest.check_raises "unknown variable rejected"
    (Invalid_argument "Solver.solve_with: unknown variable") (fun () ->
      ignore (Solver.solve_with ~assumptions:[ Lit.pos 7 ] s))

let test_totalizer_bound_lit_reusable () =
  (* assumption bounds are not monotone: after
     refuting <=2 against an at-least-3 floor the same solver must
     still answer Sat for <=3 *)
  let s = Solver.create () in
  let base = List.init 6 (fun _ -> Lit.pos (Solver.new_var s)) in
  let tot = Card.Totalizer.build s base in
  Card.at_least_k s base 3;
  let bound k =
    match Card.Totalizer.bound_lit tot k with
    | Some l -> [ l ]
    | None -> []
  in
  Alcotest.(check bool) "<=2 unsat" true
    (Solver.solve_with ~assumptions:(bound 2) s = Solver.Unsat);
  Alcotest.(check bool) "<=3 still sat" true
    (Solver.solve_with ~assumptions:(bound 3) s = Solver.Sat);
  Alcotest.(check int) "exactly 3 true" 3 (count_true s base);
  Alcotest.(check bool) "<=7 trivial (no output lit)" true (bound 7 = []);
  Alcotest.check_raises "negative bound rejected"
    (Invalid_argument "Totalizer.bound_lit: negative bound") (fun () ->
      ignore (Card.Totalizer.bound_lit tot (-1)))

let prop_solve_with_agrees_with_units =
  (* solve_with ~assumptions must decide exactly like solving the
     clauses plus one unit clause per assumption, and on Unsat the
     failed subset must itself be contradictory with the clauses *)
  QCheck2.Test.make ~name:"solve_with agrees with unit-clause encoding" ~count:300
    QCheck2.Gen.(
      let* nvars = int_range 1 8 in
      let gen_lit =
        map2 (fun v s -> if s then Lit.pos v else Lit.neg v) (int_range 0 (nvars - 1)) bool
      in
      let* clauses = list_size (int_range 0 10) (list_size (int_range 0 4) gen_lit) in
      let* assumptions = list_size (int_range 0 4) gen_lit in
      return (nvars, clauses, assumptions))
    (fun (nvars, clauses, assumptions) ->
      let s = Solver.create () in
      ignore (Solver.new_vars s nvars);
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force_sat nvars (clauses @ List.map (fun l -> [ l ]) assumptions) in
      match Solver.solve_with ~assumptions s with
      | Solver.Sat -> expected
      | Solver.Unknown -> false
      | Solver.Unsat ->
          (not expected)
          &&
          let failed = Solver.failed_assumptions s in
          List.for_all (fun l -> List.mem l assumptions) failed
          && not (brute_force_sat nvars (clauses @ List.map (fun l -> [ l ]) failed)))

let gen_cnf =
  let open QCheck2.Gen in
  let* nvars = int_range 1 8 in
  let gen_lit =
    map2 (fun v s -> if s then Lit.pos v else Lit.neg v) (int_range 0 (nvars - 1)) bool
  in
  let* clauses = list_size (int_range 0 10) (list_size (int_range 0 4) gen_lit) in
  return (nvars, clauses)

(* ---------------- inprocessing differential fuzzers ----------------

   Failed-literal probing against the all-off baseline: the verdict
   must match both the baseline and brute force, and any Sat model
   must satisfy the original clauses.  The [eager] config forces a
   round at the start of every solve, so probing really fires on these
   tiny instances. *)

module Inprocess = Cgra_satoca.Inprocess
module Solve = Cgra_ilp.Solve

let solve_inproc config nvars clauses =
  let s = Solver.create () in
  Inprocess.install ~config s;
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve s, s)

let model_satisfies s clauses =
  List.for_all (fun clause -> List.exists (fun l -> Solver.lit_value s l) clause) clauses

let prop_inprocess_probe_cnf =
  QCheck2.Test.make ~name:"inprocess probe alone: CNF verdict = all-off = brute force"
    ~count:250
    ~print:(fun (nvars, clauses) -> print_dimacs ~nvars clauses)
    gen_cnf
    (fun (nvars, clauses) ->
      let expected = brute_force_sat nvars clauses in
      let off, _ = solve_inproc Inprocess.all_off nvars clauses in
      let on, s = solve_inproc Inprocess.eager nvars clauses in
      (match off with
      | Solver.Sat -> expected
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)
      &&
      match on with
      | Solver.Unknown -> false
      | Solver.Unsat -> not expected
      | Solver.Sat -> expected && model_satisfies s clauses)

let prop_inprocess_probe_lp =
  (* through the whole Sat_backed pipeline: clausification, totalizer
     descent, model decoding — the optimum must be invariant under
     probing, and shrunken counterexamples print as pasteable LP text *)
  QCheck2.Test.make ~name:"inprocess probe alone: LP optimum = all-off" ~count:200
    ~print:Test_ilp.print_model_spec Test_ilp.gen_model_spec (fun spec ->
      let m = Test_ilp.build_model spec in
      let on = Solve.solve ~inprocess:Inprocess.eager m in
      let off = Solve.solve ~inprocess:Inprocess.all_off m in
      Test_ilp.outcome_matches m on off)

let test_inprocess_regression_corpus () =
  (* fixed seeds, replayed forever, plus hand-built instances: a binary
     equivalence cycle, a failing root for probing, a subsumed superset
     clause and a two-occurrence pivot *)
  let seeds = [ 11; 42; 97; 1234; 5678; 90210; 31337; 271828; 314159; 999983 ] in
  let random_instances =
    List.map
      (fun seed ->
        let rng = Rng.create ~seed in
        let nvars = 2 + Rng.int rng 10 in
        let nclauses = Rng.int rng 40 in
        (Printf.sprintf "seed %d" seed, nvars, random_cnf rng nvars nclauses 3))
      seeds
  in
  let crafted_instances =
    [
      ( "crafted: x0<->x1 equivalence",
        6,
        [
          [ Lit.neg 0; Lit.pos 1 ];
          [ Lit.neg 1; Lit.pos 0 ];
          [ Lit.pos 1; Lit.pos 2; Lit.pos 3 ];
          [ Lit.neg 1; Lit.pos 4; Lit.pos 5 ];
          [ Lit.pos 2; Lit.neg 4 ];
        ] );
      ( "crafted: ~x0 fails under probing",
        4,
        [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.pos 0; Lit.neg 1 ]; [ Lit.neg 0; Lit.pos 2; Lit.pos 3 ] ]
      );
      ( "crafted: subsumed superset",
        5,
        [
          [ Lit.pos 0; Lit.pos 1 ];
          [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];
          [ Lit.neg 0; Lit.pos 3; Lit.pos 4 ];
          [ Lit.pos 0; Lit.pos 3 ];
          [ Lit.neg 0; Lit.pos 3; Lit.neg 4 ];
        ] );
      ( "crafted: two-occurrence pivot x5",
        6,
        [
          [ Lit.pos 5; Lit.pos 0 ];
          [ Lit.neg 5; Lit.pos 1 ];
          [ Lit.pos 0; Lit.pos 2; Lit.pos 3 ];
          [ Lit.pos 1; Lit.neg 2; Lit.pos 4 ];
        ] );
    ]
  in
  (* failed literals summed across the corpus, to prove the fuzzers are
     not vacuously green because probing never ran *)
  let fired = ref 0 in
  List.iter
    (fun (label, nvars, clauses) ->
      let expected = brute_force_sat nvars clauses in
      let verdict, s = solve_inproc Inprocess.eager nvars clauses in
      fired := !fired + (Solver.stats s).Solver.probed_failed;
      let ok =
        match verdict with
        | Solver.Sat -> expected && model_satisfies s clauses
        | Solver.Unsat -> not expected
        | Solver.Unknown -> false
      in
      Alcotest.(check bool) (label ^ ": probe") true ok)
    (random_instances @ crafted_instances);
  Alcotest.(check bool) "probe fired somewhere in the corpus" true (!fired > 0)

let test_lit_encoding () =
  Alcotest.(check int) "pos var" 3 (Lit.var (Lit.pos 3));
  Alcotest.(check bool) "pos sign" true (Lit.sign (Lit.pos 3));
  Alcotest.(check bool) "neg sign" false (Lit.sign (Lit.neg 3));
  Alcotest.(check int) "negate involution" (Lit.pos 5) (Lit.negate (Lit.negate (Lit.pos 5)));
  Alcotest.(check int) "dimacs pos" 4 (Lit.to_dimacs (Lit.pos 3));
  Alcotest.(check int) "dimacs neg" (-4) (Lit.to_dimacs (Lit.neg 3));
  Alcotest.(check int) "of_dimacs" (Lit.neg 0) (Lit.of_dimacs (-1))

(* ---------------- add_clause normalisation ---------------- *)

let stored s = List.init (Solver.n_clause_slots s) (Solver.clause_view s)
let clause_list = Alcotest.(list (array int))

let test_add_clause_dedupes () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 30);
  Solver.add_clause s [ Lit.pos 2; Lit.neg 0; Lit.pos 2; Lit.neg 0; Lit.pos 1 ];
  (* past the short-clause sort: 30 literals, reversed, each twice *)
  let long = List.init 30 (fun v -> Lit.neg (29 - v)) in
  Solver.add_clause s (long @ long);
  Alcotest.check clause_list "sorted, duplicates merged"
    [ [| Lit.neg 0; Lit.pos 1; Lit.pos 2 |]; Array.init 30 Lit.neg ]
    (stored s)

(* Units are asserted, not stored; [clause_view] hands out copies, and
   [iter_binary] walks exactly the stored binary clauses, in order. *)
let test_stored_clauses () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 5);
  Solver.add_clause s [ Lit.pos 1; Lit.pos 0 ];
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];
  Solver.add_clause s [ Lit.neg 3; Lit.pos 4 ];
  Solver.add_clause s [ Lit.neg 2 ];
  Alcotest.(check int) "three clauses stored" 3 (Solver.n_clause_slots s);
  (Solver.clause_view s 0).(0) <- Lit.pos 4;
  Alcotest.check clause_list "views are copies"
    [ [| Lit.pos 0; Lit.pos 1 |]; [| Lit.pos 0; Lit.pos 1; Lit.pos 2 |]; [| Lit.neg 3; Lit.pos 4 |] ]
    (stored s);
  let binaries = ref [] in
  Solver.iter_binary s (fun a b -> binaries := (a, b) :: !binaries);
  Alcotest.(check (list (pair int int))) "binary clauses"
    [ (Lit.pos 0, Lit.pos 1); (Lit.neg 3, Lit.pos 4) ]
    (List.rev !binaries)

let test_add_clause_tautology () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 3);
  Solver.add_clause s [ Lit.pos 1; Lit.pos 0; Lit.neg 1 ];
  Alcotest.check clause_list "l or ~l dropped" [] (stored s);
  (* under a guard, the guard literal joins the clause first *)
  Solver.set_guard s (Some (Lit.neg 2));
  Solver.add_clause s [ Lit.pos 0; Lit.neg 0 ];
  Alcotest.check clause_list "guarded tautology dropped" [] (stored s);
  Solver.add_clause s [ Lit.pos 2; Lit.pos 0 ];
  Alcotest.check clause_list "guard against its complement dropped" [] (stored s);
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Solver.set_guard s None;
  Alcotest.check clause_list "non-tautology keeps the guard"
    [ [| Lit.pos 0; Lit.pos 1; Lit.neg 2 |] ]
    (stored s)

let test_add_clause_root_true_dropped () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 3);
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.pos 1; Lit.pos 0; Lit.pos 2 ];
  Alcotest.check clause_list "satisfied at the root, not stored" [] (stored s);
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat)

let test_add_clause_root_false_logged () =
  let s = Solver.create () in
  let proof = Cgra_satoca.Proof.create () in
  Solver.set_proof s (Some proof);
  ignore (Solver.new_vars s 3);
  Solver.add_clause s [ Lit.neg 0 ];
  Solver.add_clause s [ Lit.pos 2; Lit.pos 0; Lit.pos 1 ];
  Alcotest.check clause_list "root-false literal removed" [ [| Lit.pos 1; Lit.pos 2 |] ] (stored s);
  (* the lemma cites the unit [~x0] (ID 1), then the input (ID 2) *)
  Alcotest.(check bool) "input logged sorted, strengthened clause logged as derived" true
    (Cgra_satoca.Proof.events proof
    = Cgra_satoca.Proof.
        [
          Input [ Lit.neg 0 ];
          Input [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];
          Add ([ Lit.pos 1; Lit.pos 2 ], [ 1; 2 ]);
        ]);
  Solver.add_clause s [ Lit.neg 1 ];
  Solver.add_clause s [ Lit.neg 2 ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "refutation checks" true
    (Cgra_satoca.Drat.check proof = Cgra_satoca.Drat.Valid)

let suites =
  [
    ( "sat:basic",
      [
        Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
        Alcotest.test_case "empty clause" `Quick test_empty_clause;
        Alcotest.test_case "no clauses" `Quick test_no_clauses_sat;
        Alcotest.test_case "implication chain" `Quick test_implication_chain;
        Alcotest.test_case "model satisfies" `Quick test_model_satisfies;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
        Alcotest.test_case "incremental clauses" `Quick test_incremental_clauses;
        Alcotest.test_case "deadline" `Quick test_deadline_unknown;
        Alcotest.test_case "stats" `Quick test_stats_accumulate;
        Alcotest.test_case "lit encoding" `Quick test_lit_encoding;
      ] );
    ( "sat:add_clause",
      [
        Alcotest.test_case "duplicates merged, literals sorted" `Quick test_add_clause_dedupes;
        Alcotest.test_case "units asserted, views copied, binaries walked" `Quick
          test_stored_clauses;
        Alcotest.test_case "tautologies dropped, with and without guard" `Quick
          test_add_clause_tautology;
        Alcotest.test_case "clause true at the root dropped" `Quick
          test_add_clause_root_true_dropped;
        Alcotest.test_case "root-false literals dropped and logged" `Quick
          test_add_clause_root_false_logged;
      ] );
    ( "sat:card",
      [
        Alcotest.test_case "amo pairwise" `Quick test_amo_pairwise;
        Alcotest.test_case "amo sequential" `Quick test_amo_sequential;
        Alcotest.test_case "exactly one" `Quick test_exactly_one;
        Alcotest.test_case "at most k" `Quick test_at_most_k;
        Alcotest.test_case "at least k" `Quick test_at_least_k;
        Alcotest.test_case "count_at_most_k counts the stored clauses" `Quick
          test_count_at_most_k;
        Alcotest.test_case "totalizer bound" `Quick test_totalizer_bound;
        QCheck_alcotest.to_alcotest prop_capped_totalizer;
      ] );
    ( "sat:assumptions",
      [
        Alcotest.test_case "empty assumptions = solve" `Quick test_assumptions_empty_is_solve;
        Alcotest.test_case "conflicting pair fails" `Quick test_assumptions_conflicting_pair;
        Alcotest.test_case "implied conflict blames assumption" `Quick
          test_assumptions_implied_conflict;
        Alcotest.test_case "irrelevant assumption not blamed" `Quick
          test_assumptions_irrelevant_excluded;
        Alcotest.test_case "global unsat yields empty core" `Quick
          test_assumptions_globally_unsat;
        Alcotest.test_case "unknown variable rejected" `Quick test_assumptions_unknown_var;
        Alcotest.test_case "totalizer bound_lit reusable" `Quick
          test_totalizer_bound_lit_reusable;
      ] );
    ( "sat:properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_agrees_with_brute_force;
          prop_sat_model_valid;
          prop_at_most_k_random;
          prop_solve_with_agrees_with_units;
        ] );
    ( "sat:inprocess",
      Alcotest.test_case "fixed-seed regression corpus" `Quick test_inprocess_regression_corpus
      :: List.map QCheck_alcotest.to_alcotest [ prop_inprocess_probe_cnf; prop_inprocess_probe_lp ]
    );
  ]
