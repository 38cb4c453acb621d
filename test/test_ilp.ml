module Model = Cgra_ilp.Model
module Solve = Cgra_ilp.Solve
module Presolve = Cgra_ilp.Presolve
module Lp_format = Cgra_ilp.Lp_format
module Encode = Cgra_ilp.Encode
module Rng = Cgra_util.Rng

(* ---------------- helpers ---------------- *)

(* The exact 0-1 reference: enumerate every assignment of the model's
   variables and keep the cheapest feasible one.  It shares no
   clausification with the SAT engine; small models only. *)
let brute_solve model =
  let n = Model.nvars model in
  if n > 22 then invalid_arg "brute_solve: limited to 22 variables";
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let assign v = (mask lsr v) land 1 = 1 in
    if Model.feasible model assign then begin
      let obj = Model.objective_value model assign in
      match !best with
      | Some (_, b) when b <= obj -> ()
      | _ -> best := Some (Array.init n assign, obj)
    end
  done;
  match !best with
  | Some (a, obj) -> Solve.Optimal (a, obj)
  | None -> Solve.Infeasible

(* The SAT engine and its brute-force reference, for the fixed models
   below. *)
let engines = [ (fun m -> Solve.solve m); brute_solve ]

let assignment_of_array a v = a.(v)

let check_feasible name model = function
  | Solve.Optimal (a, obj) | Solve.Feasible (a, obj) ->
      Alcotest.(check bool) (name ^ ": assignment feasible") true
        (Model.feasible model (assignment_of_array a));
      Alcotest.(check int)
        (name ^ ": objective consistent")
        obj
        (Model.objective_value model (assignment_of_array a))
  | Solve.Infeasible | Solve.Timeout -> ()

(* ---------------- model basics ---------------- *)

let test_model_basics () =
  let m = Model.create ~name:"m" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Alcotest.(check int) "nvars" 2 (Model.nvars m);
  Alcotest.(check string) "name x" "x" (Model.var_name m x);
  Alcotest.(check bool) "find" true (Model.find_var m "y" = Some y);
  Model.add_row m [ (1, x); (1, y) ] Model.Le 1;
  Model.add_row m ~name:"force" [ (1, x) ] Model.Ge 1;
  Alcotest.(check int) "rows" 2 (Model.nrows m);
  Model.set_objective m (Model.Minimize [ (1, y) ]);
  Alcotest.(check bool) "feasible x=1,y=0" true
    (Model.feasible m (fun v -> v = x));
  Alcotest.(check bool) "infeasible x=0" false (Model.feasible m (fun _ -> false));
  Alcotest.(check int) "objective" 0 (Model.objective_value m (fun v -> v = x))

let test_model_merges_terms () =
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  Model.add_row m [ (1, x); (2, x); (-3, x) ] Model.Le 0;
  (* all terms cancel: row is 0 <= 0, always satisfiable *)
  match Model.rows m with
  | [ row ] -> Alcotest.(check int) "terms merged away" 0 (List.length row.Model.terms)
  | _ -> Alcotest.fail "expected one row"

let test_model_duplicate_var () =
  let m = Model.create () in
  ignore (Model.add_binary m "x");
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Model.add_binary m "x");
       false
     with Invalid_argument _ -> true)

(* ---------------- known tiny models ---------------- *)

(* min x+y+z  s.t. x+y >= 1, y+z >= 1, x+z >= 1  -> optimum 2 *)
let vertex_cover_triangle () =
  let m = Model.create ~name:"triangle" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  let z = Model.add_binary m "z" in
  Model.add_row m [ (1, x); (1, y) ] Model.Ge 1;
  Model.add_row m [ (1, y); (1, z) ] Model.Ge 1;
  Model.add_row m [ (1, x); (1, z) ] Model.Ge 1;
  Model.set_objective m (Model.Minimize [ (1, x); (1, y); (1, z) ]);
  m

let test_triangle_all_engines () =
  let m = vertex_cover_triangle () in
  List.iter
    (fun solve ->
      match solve m with
      | Solve.Optimal (a, 2) ->
          Alcotest.(check bool) "feasible" true (Model.feasible m (assignment_of_array a))
      | o -> Alcotest.failf "expected optimum 2, got %a" Solve.pp_outcome o)
    engines

let test_infeasible_model () =
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_row m [ (1, x); (1, y) ] Model.Ge 2;
  Model.add_row m [ (1, x); (1, y) ] Model.Le 1;
  List.iter
    (fun solve -> Alcotest.(check bool) "infeasible" true (solve m = Solve.Infeasible))
    engines

let test_negative_coefficients () =
  (* min -x - 2y  s.t. x + y <= 1  -> optimum -2 at y=1 *)
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_row m [ (1, x); (1, y) ] Model.Le 1;
  Model.set_objective m (Model.Minimize [ (-1, x); (-2, y) ]);
  List.iter
    (fun solve ->
      match solve m with
      | Solve.Optimal (a, -2) -> Alcotest.(check bool) "y chosen" true a.(y)
      | o -> Alcotest.failf "expected -2, got %a" Solve.pp_outcome o)
    engines

let test_equality_rows () =
  (* x + y + z = 2, min x -> 0 with y=z=1 *)
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  let z = Model.add_binary m "z" in
  Model.add_row m [ (1, x); (1, y); (1, z) ] Model.Eq 2;
  Model.set_objective m (Model.Minimize [ (1, x) ]);
  List.iter
    (fun solve ->
      match solve m with
      | Solve.Optimal (a, 0) ->
          Alcotest.(check bool) "y and z" true (a.(y) && a.(z) && not a.(x))
      | o -> Alcotest.failf "expected 0, got %a" Solve.pp_outcome o)
    engines

let test_feasibility_objective () =
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  Model.add_row m [ (1, x) ] Model.Ge 1;
  (match Solve.solve m with
  | Solve.Optimal (a, 0) -> Alcotest.(check bool) "x true" true a.(x)
  | o -> Alcotest.failf "unexpected %a" Solve.pp_outcome o);
  Alcotest.(check bool) "report timing" true
    ((Solve.solve_report m).Solve.solve_seconds >= 0.0)

let test_weighted_coefficients () =
  (* 3x + 2y + z <= 3, maximise coverage => min -(3x+2y+z) *)
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  let z = Model.add_binary m "z" in
  Model.add_row m [ (3, x); (2, y); (1, z) ] Model.Le 3;
  Model.set_objective m (Model.Minimize [ (-3, x); (-2, y); (-1, z) ]);
  List.iter
    (fun solve ->
      match solve m with
      | Solve.Optimal (_, -3) -> ()
      | o -> Alcotest.failf "expected -3, got %a" Solve.pp_outcome o)
    engines

(* A kept totalizer whose bounds no model meets (a descent never keeps
   one; it is planted here): the descent finds its largest bound
   refuted, builds the tree again up to its incumbent and still proves
   the optimum; a repeat then reuses that tree. *)
let test_descent_rebuilds_short_totalizer () =
  let m = Model.create () in
  let xs = List.init 6 (fun i -> Model.add_binary m (Printf.sprintf "x%d" i)) in
  Model.add_row m (List.map (fun x -> (1, x)) xs) Model.Ge 3;
  Model.set_objective m (Model.Minimize (List.map (fun x -> (1, x)) xs));
  let enc = Encode.encode m in
  let solver = enc.Encode.solver in
  (* bounds up to 1 only; any incumbent is at least 3 *)
  let units = List.map snd enc.Encode.objective_lits in
  enc.Encode.totalizer <- Some (Cgra_satoca.Card.Totalizer.build ~cap:2 solver units);
  let optimum () =
    match (Solve.search enc m).Solve.outcome with
    | Solve.Optimal (_, v) -> v
    | o -> Alcotest.failf "expected an optimum, got %a" Solve.pp_outcome o
  in
  let before = Cgra_satoca.Solver.nvars solver in
  Alcotest.(check int) "optimum through a rebuilt totalizer" 3 (optimum ());
  Alcotest.(check bool) "the tree was built again" true
    (Cgra_satoca.Solver.nvars solver > before);
  let vars = Cgra_satoca.Solver.nvars solver in
  Alcotest.(check int) "a repeat proves it again" 3 (optimum ());
  Alcotest.(check int) "and adds no variable" vars (Cgra_satoca.Solver.nvars solver)

(* ---------------- presolve ---------------- *)

let test_presolve_fixes_singletons () =
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  let z = Model.add_binary m "z" in
  Model.add_row m [ (1, x) ] Model.Ge 1;
  Model.add_row m [ (1, y) ] Model.Le 0;
  Model.add_row m [ (1, x); (1, y); (1, z) ] Model.Le 2;
  let p = Presolve.run m in
  Alcotest.(check bool) "not infeasible" false p.Presolve.infeasible;
  Alcotest.(check bool) "x fixed true" true (List.mem (x, true) p.Presolve.fixed);
  Alcotest.(check bool) "y fixed false" true (List.mem (y, false) p.Presolve.fixed);
  (* remaining model over z only, and the <= row became slack -> dropped *)
  Alcotest.(check int) "one var left" 1 (Model.nvars p.Presolve.reduced);
  Alcotest.(check int) "no rows left" 0 (Model.nrows p.Presolve.reduced)

let test_presolve_detects_infeasible () =
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  Model.add_row m [ (1, x) ] Model.Ge 1;
  Model.add_row m [ (1, x) ] Model.Le 0;
  let p = Presolve.run m in
  Alcotest.(check bool) "infeasible" true p.Presolve.infeasible

let test_presolve_cascade () =
  (* x=1 forces y=0 (x+y<=1) forces z=1 (y+z>=1) *)
  let m = Model.create () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  let z = Model.add_binary m "z" in
  Model.add_row m [ (1, x) ] Model.Ge 1;
  Model.add_row m [ (1, x); (1, y) ] Model.Le 1;
  Model.add_row m [ (1, y); (1, z) ] Model.Ge 1;
  let p = Presolve.run m in
  Alcotest.(check int) "all fixed" 3 (Presolve.n_fixed p);
  Alcotest.(check bool) "z fixed true" true (List.mem (z, true) p.Presolve.fixed)

(* ---------------- LP format ---------------- *)

let test_lp_roundtrip () =
  let m = vertex_cover_triangle () in
  let text = Lp_format.to_string m in
  match Lp_format.of_string text with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      Alcotest.(check int) "nvars" (Model.nvars m) (Model.nvars m');
      Alcotest.(check int) "nrows" (Model.nrows m) (Model.nrows m');
      (match Solve.solve m' with
      | Solve.Optimal (_, 2) -> ()
      | o -> Alcotest.failf "reparsed model solves differently: %a" Solve.pp_outcome o)

let test_lp_format_content () =
  let m = Model.create ~name:"fmt" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "yy" in
  Model.add_row m ~name:"r1" [ (2, x); (-1, y) ] Model.Le 1;
  Model.set_objective m (Model.Minimize [ (1, x) ]);
  let text = Lp_format.to_string m in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "Minimize" true (has "Minimize");
  Alcotest.(check bool) "Subject To" true (has "Subject To");
  Alcotest.(check bool) "Binary" true (has "Binary");
  Alcotest.(check bool) "row" true (has "r1: 2 x - 1 yy <= 1");
  Alcotest.(check bool) "End" true (has "End")

let test_lp_ident () =
  (* formulation names carry '|', '[', ']' and dots; LP identifiers
     must not — and must not start with a digit, a period, or an
     exponent-like letter *)
  List.iter
    (fun (raw, expect) ->
      Alcotest.(check string) (Printf.sprintf "lp_ident %S" raw) expect (Lp_format.lp_ident raw))
    [
      ("x", "x");
      ("F|c0.x0y0.fu|mul1", "F_c0.x0y0.fu_mul1");
      ("excl[pe_0_0.fu]", "excl_pe_0_0.fu_");
      ("0start", "v_0start");
      (".dot", "v_.dot");
      ("e1", "v_e1");
      ("E9x", "v_E9x");
      ("ee1", "ee1");
      ("", "_");
    ]

let test_lp_ident_collisions () =
  (* two raw names sanitizing to the same spelling must be re-uniqued,
     and the emitted file must stay parseable *)
  let m = Model.create ~name:"clash" () in
  let a = Model.add_binary m "v|1" in
  let b = Model.add_binary m "v[1]" in
  let c = Model.add_binary m "v_1" in
  Model.add_row m ~name:"r" [ (1, a); (1, b); (1, c) ] Model.Ge 1;
  let names = Lp_format.external_names m in
  Alcotest.(check int) "three names" 3 (Array.length names);
  let sorted = List.sort_uniq compare (Array.to_list names) in
  Alcotest.(check int) "all distinct after sanitizing" 3 (List.length sorted);
  Array.iter
    (fun n -> Alcotest.(check bool) (n ^ " is LP-safe") true (Lp_format.lp_ident n = n))
    names;
  match Lp_format.of_string (Lp_format.to_string m) with
  | Error e -> Alcotest.failf "sanitized file unreadable: %s" e
  | Ok m' -> Alcotest.(check int) "vars preserved" 3 (Model.nvars m')

(* The pinned export of one benchmark cell (mac on the 1x1 homogeneous
   orthogonal array, ii=1): any drift in identifier sanitization, term
   rendering or section layout shows up as a byte diff against the
   golden file that external solvers are known to accept. *)
let test_lp_golden_mac () =
  let golden = Test_data.path "golden/mac_1x1_ii1.lp" in
  let dfg =
    match Cgra_dfg.Benchmarks.by_name "mac" with
    | Some d -> d
    | None -> Alcotest.fail "mac benchmark missing"
  in
  let arch =
    match Cgra_arch.Library.find_config ~size:1 "homo-orth" with
    | Some c -> Cgra_arch.Library.make c
    | None -> Alcotest.fail "homo-orth config missing"
  in
  let mrrg = Cgra_mrrg.Build.elaborate arch ~ii:1 in
  let f = Cgra_core.Formulation.build ~objective:Cgra_core.Formulation.Feasibility dfg mrrg in
  let rendered = Lp_format.to_string f.Cgra_core.Formulation.model in
  let ic = open_in_bin golden in
  let expected =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if rendered <> expected then begin
    (* locate the first differing line for a readable failure *)
    let rl = String.split_on_char '\n' rendered and el = String.split_on_char '\n' expected in
    let rec first_diff i = function
      | r :: rs, e :: es -> if r <> e then (i, r, e) else first_diff (i + 1) (rs, es)
      | r :: _, [] -> (i, r, "<eof>")
      | [], e :: _ -> (i, "<eof>", e)
      | [], [] -> (i, "", "")
    in
    let line, got, want = first_diff 1 (rl, el) in
    Alcotest.failf "LP export drifted from %s at line %d:\n  got:  %s\n  want: %s" golden line
      got want
  end

(* ---------------- unsat cores ---------------- *)

module Unsat_core = Cgra_ilp.Unsat_core

let test_core_basic () =
  (* g1 (x+y>=2) and g2 (x+y<=1) clash; g3 is an innocent bystander *)
  let m = Model.create ~name:"core" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  let z = Model.add_binary m "z" in
  Model.add_row m ~group:"g1" [ (1, x); (1, y) ] Model.Ge 2;
  Model.add_row m ~group:"g2" [ (1, x); (1, y) ] Model.Le 1;
  Model.add_row m ~group:"g3" [ (1, z) ] Model.Le 1;
  (match Unsat_core.extract m with
  | Unsat_core.Core c ->
      Alcotest.(check (list string)) "exact core" [ "g1"; "g2" ] c.Unsat_core.groups;
      Alcotest.(check bool) "minimized" true c.Unsat_core.minimized;
      Alcotest.(check (option bool)) "check confirms" (Some true)
        (Unsat_core.check m c.Unsat_core.groups)
  | Unsat_core.Satisfiable -> Alcotest.fail "model is infeasible"
  | Unsat_core.Unknown -> Alcotest.fail "no deadline was set");
  Alcotest.(check (option bool)) "g3 alone is satisfiable" (Some false)
    (Unsat_core.check m [ "g3" ])

let test_core_satisfiable () =
  let m = Model.create ~name:"sat" () in
  let x = Model.add_binary m "x" in
  Model.add_row m ~group:"g1" [ (1, x) ] Model.Ge 1;
  Alcotest.(check bool) "satisfiable verdict" true (Unsat_core.extract m = Unsat_core.Satisfiable)

let test_core_hard_rows_contradictory () =
  (* when the ungrouped rows alone are contradictory no group is to
     blame: the core is empty *)
  let m = Model.create ~name:"hard" () in
  let x = Model.add_binary m "x" in
  Model.add_row m [ (1, x) ] Model.Ge 1;
  Model.add_row m [ (1, x) ] Model.Le 0;
  Model.add_row m ~group:"g1" [ (1, x) ] Model.Le 1;
  match Unsat_core.extract m with
  | Unsat_core.Core c ->
      Alcotest.(check (list string)) "empty core" [] c.Unsat_core.groups;
      Alcotest.(check (option bool)) "empty core checks infeasible" (Some true)
        (Unsat_core.check m [])
  | Unsat_core.Satisfiable | Unsat_core.Unknown -> Alcotest.fail "hard rows are contradictory"

let test_core_check_keeps_named_rows () =
  (* [bad] contradicts itself, but a check that does not name it must
     leave its rows out of the clausified core *)
  let m = Model.create ~name:"named" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_row m ~group:"bad" [ (1, x) ] Model.Ge 1;
  Model.add_row m ~group:"bad" [ (1, x) ] Model.Le 0;
  Model.add_row m ~group:"ok" [ (1, y) ] Model.Ge 1;
  Model.add_row m [ (1, x); (1, y) ] Model.Le 2;
  Alcotest.(check (option bool)) "bad unnamed: satisfiable" (Some false)
    (Unsat_core.check m [ "ok" ]);
  Alcotest.(check (option bool)) "no group named: satisfiable" (Some false)
    (Unsat_core.check m []);
  let proof = Cgra_satoca.Proof.create () in
  Alcotest.(check (option bool)) "bad named: refuted" (Some true)
    (Unsat_core.check ~proof m [ "bad"; "ok" ]);
  (* the refutation handed back is complete and checks on its own *)
  Alcotest.(check bool) "empty clause logged" true (Cgra_satoca.Proof.has_empty_clause proof);
  Alcotest.(check bool) "refutation validates" true
    (Cgra_satoca.Drat.check proof = Cgra_satoca.Drat.Valid)

let test_core_restrict () =
  let m = Model.create ~name:"restrict" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_row m ~group:"lo" [ (1, x); (1, y) ] Model.Ge 2;
  Model.add_row m ~group:"hi" [ (1, x); (1, y) ] Model.Le 1;
  Model.set_objective m (Model.Minimize [ (1, x) ]);
  let sub = Unsat_core.restrict m [ "lo" ] in
  (match brute_solve sub with
  | Solve.Optimal _ -> ()
  | _ -> Alcotest.fail "lo alone should be satisfiable");
  match brute_solve (Unsat_core.restrict m [ "lo"; "hi" ]) with
  | Solve.Infeasible -> ()
  | _ -> Alcotest.fail "lo+hi should be infeasible"

(* Random grouped models: rows are dealt into a handful of named groups
   (and sometimes left hard), and every reported core must be sound —
   itself infeasible under brute force — while every minimized core
   must be exactly minimal: dropping any single group restores
   satisfiability. *)
let build_grouped_model (nvars, rows) =
  let m = Model.create ~name:"gfuzz" () in
  let vars = Array.init nvars (fun i -> Model.add_binary m (Printf.sprintf "v%d" i)) in
  let term (c, i) = (c, vars.(abs i mod nvars)) in
  List.iter
    (fun (terms, sense, rhs, g) ->
      let sense = match abs sense mod 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq in
      let group = match g with 0 -> None | n -> Some (Printf.sprintf "g%d" n) in
      Model.add_row m ?group (List.map term terms) sense rhs)
    rows;
  m

let gen_grouped_spec =
  let open QCheck2.Gen in
  let* nvars = int_range 2 6 in
  let gen_term = pair (int_range (-3) 3) (int_range 0 (nvars - 1)) in
  let gen_row =
    let* terms = list_size (int_range 1 4) gen_term in
    let* sense = int_range 0 2 in
    let* rhs = int_range (-3) 4 in
    let* g = int_range 0 4 in
    return (terms, sense, rhs, g)
  in
  let* rows = list_size (int_range 1 10) gen_row in
  return (nvars, rows)

let print_grouped_spec spec = Lp_format.to_string (build_grouped_model spec)

let core_sound_and_minimal m =
  let infeasible labels =
    brute_solve (Unsat_core.restrict m labels) = Solve.Infeasible
  in
  match Unsat_core.extract m with
  | Unsat_core.Unknown -> false
  | Unsat_core.Satisfiable -> brute_solve m <> Solve.Infeasible
  | Unsat_core.Core c ->
      let core = c.Unsat_core.groups in
      (* sound: the named groups plus hard rows refute on their own *)
      infeasible core
      (* verified by the module's own re-solve too *)
      && Unsat_core.check m core = Some true
      (* minimal: every member is necessary *)
      && c.Unsat_core.minimized
      && List.for_all (fun g -> not (infeasible (List.filter (fun g' -> g' <> g) core))) core

let prop_core_sound_and_minimal =
  QCheck2.Test.make ~name:"unsat core is sound and minimal" ~count:300
    ~print:print_grouped_spec gen_grouped_spec (fun spec ->
      core_sound_and_minimal (build_grouped_model spec))

(* Up to ten groups over at most six variables, each row a clause of
   two or three literals (a positive literal [x] is the term [x], a
   negative one the term [-x], lowering the right-hand side by one),
   cut at the shortest infeasible prefix so the last row is needed.
   Refuting six variables takes many such clauses, so the first failed
   set often holds five or more groups: the shrink then drops several
   candidates per probe and halves its chunks on [Sat] answers, which
   the four groups of [gen_grouped_spec] never reach. *)
let gen_many_groups_spec =
  let open QCheck2.Gen in
  let* nvars = int_range 3 6 in
  let gen_clause =
    let* width = int_range 2 3 in
    let* vars = shuffle_l (List.init nvars Fun.id) in
    let* signs = list_repeat width bool in
    let* g = frequency [ (1, return 0); (8, int_range 1 10) ] in
    let terms =
      List.map2
        (fun pos v -> ((if pos then 1 else -1), v))
        signs
        (List.filteri (fun i _ -> i < width) vars)
    in
    let negatives = List.length (List.filter (fun (c, _) -> c < 0) terms) in
    return (terms, 1, 1 - negatives, g)
  in
  let+ rows = list_size (int_range 8 40) gen_clause in
  let prefix n = List.filteri (fun i _ -> i < n) rows in
  let infeasible n =
    brute_solve (build_grouped_model (nvars, prefix n)) = Solve.Infeasible
  in
  (* infeasibility only grows with the prefix: bisect for the shortest *)
  let rec shortest lo hi =
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if infeasible mid then shortest lo mid else shortest (mid + 1) hi
  in
  let n = List.length rows in
  (nvars, if infeasible n then prefix (shortest 0 n) else rows)

let prop_core_sound_and_minimal_many_groups =
  QCheck2.Test.make ~name:"unsat core of up to ten groups is sound and minimal" ~count:300
    ~print:print_grouped_spec gen_many_groups_spec (fun spec ->
      core_sound_and_minimal (build_grouped_model spec))

let test_core_deadline_mid_shrink () =
  (* the first solve of a small model completes before the solver polls
     its deadline; the expired deadline then stops the shrink before it
     starts, leaving the first failed set: sound, not minimized *)
  let m = Model.create ~name:"abort" () in
  let x = Model.add_binary m "x" in
  let y = Model.add_binary m "y" in
  Model.add_row m ~group:"g1" [ (1, x); (1, y) ] Model.Ge 2;
  Model.add_row m ~group:"g2" [ (1, x); (1, y) ] Model.Le 1;
  Model.add_row m ~group:"g3" [ (1, x) ] Model.Le 1;
  match Unsat_core.extract ~deadline:(Cgra_util.Deadline.after ~seconds:0.0) m with
  | Unsat_core.Core c ->
      Alcotest.(check bool) "not minimized" false c.Unsat_core.minimized;
      Alcotest.(check int) "one SAT call" 1 c.Unsat_core.sat_calls;
      Alcotest.(check (option bool)) "check accepts the core" (Some true)
        (Unsat_core.check m c.Unsat_core.groups)
  | Unsat_core.Satisfiable -> Alcotest.fail "model is infeasible"
  | Unsat_core.Unknown -> Alcotest.fail "the first solve should complete"

let prop_core_check_matches_brute =
  (* a core check clausifies the named groups and the hard rows only:
     its verdict is brute force's on exactly that sub-model *)
  QCheck2.Test.make ~name:"core check agrees with brute force on the named groups" ~count:300
    ~print:(fun (spec, named) ->
      Printf.sprintf "named groups g%s\n%s"
        (String.concat ",g" (List.map string_of_int named))
        (print_grouped_spec spec))
    QCheck2.Gen.(pair gen_grouped_spec (list_size (int_range 0 4) (int_range 1 4)))
    (fun (spec, named) ->
      let m = build_grouped_model spec in
      let labels = List.map (Printf.sprintf "g%d") named in
      let brute = brute_solve (Unsat_core.restrict m labels) in
      Unsat_core.check m labels = Some (brute = Solve.Infeasible))

let prop_core_extraction_preserves_verdict =
  (* grouped assumption solving must agree with the plain engines on
     the feasibility question itself *)
  QCheck2.Test.make ~name:"core extraction agrees with plain solving" ~count:300
    ~print:print_grouped_spec gen_grouped_spec (fun spec ->
      let m = build_grouped_model spec in
      let plain = brute_solve m in
      match Unsat_core.extract ~minimize:false m with
      | Unsat_core.Core _ -> plain = Solve.Infeasible
      | Unsat_core.Satisfiable -> plain <> Solve.Infeasible
      | Unsat_core.Unknown -> false)

(* ---------------- random cross-checks ---------------- *)

let random_model rng =
  let n = 2 + Rng.int rng 8 in
  let m = Model.create ~name:"random" () in
  let vars = Array.init n (fun i -> Model.add_binary m (Printf.sprintf "v%d" i)) in
  let nrows = Rng.int rng 10 in
  for _ = 1 to nrows do
    let width = 1 + Rng.int rng 4 in
    let terms =
      List.init width (fun _ -> (Rng.int_in rng (-3) 3, Rng.choose rng vars))
    in
    let sense = Rng.choose rng [| Model.Le; Model.Ge; Model.Eq |] in
    let rhs = Rng.int_in rng (-3) 4 in
    Model.add_row m terms sense rhs
  done;
  if Rng.bool rng then begin
    let terms = List.init n (fun i -> (Rng.int_in rng (-2) 3, vars.(i))) in
    Model.set_objective m (Model.Minimize terms)
  end;
  m

let outcome_matches m a b =
  match (a, b) with
  | Solve.Infeasible, Solve.Infeasible -> true
  | Solve.Optimal (xa, oa), Solve.Optimal (xb, ob) ->
      oa = ob
      && Model.feasible m (assignment_of_array xa)
      && Model.feasible m (assignment_of_array xb)
  | _ -> false

let prop_sat_engine_matches_brute =
  QCheck2.Test.make ~name:"sat engine matches brute force" ~count:250
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let m = random_model rng in
      outcome_matches m (Solve.solve m) (brute_solve m))

let prop_presolve_preserves_outcome =
  QCheck2.Test.make ~name:"presolve preserves optimum" ~count:250
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let m = random_model rng in
      let plain = Solve.solve m in
      let p = Presolve.run m in
      if p.Presolve.infeasible then plain = Solve.Infeasible
      else
        let lifted =
          match Solve.solve p.Presolve.reduced with
          | Solve.Optimal (a, obj) ->
              Solve.Optimal (Presolve.lift ~original:m p a, obj + p.Presolve.objective_offset)
          | other -> other
        in
        outcome_matches m lifted plain)

(* ---------------- differential fuzzer (structured, shrinkable) ----------------

   Unlike the seed-based properties above, this generator builds the
   model description as plain data, so QCheck2's integrated shrinking
   minimises any counterexample before it is printed — and the printer
   renders the offending model as LP text via Lp_format, ready to be
   pasted into a regression test. *)

let build_model (nvars, rows, objective) =
  let m = Model.create ~name:"fuzz" () in
  let vars = Array.init nvars (fun i -> Model.add_binary m (Printf.sprintf "v%d" i)) in
  let term (c, i) = (c, vars.(abs i mod nvars)) in
  List.iter
    (fun (terms, sense, rhs) ->
      let sense = match abs sense mod 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq in
      Model.add_row m (List.map term terms) sense rhs)
    rows;
  (match objective with
  | None -> ()
  | Some terms -> Model.set_objective m (Model.Minimize (List.map term terms)));
  m

let gen_model_spec =
  let open QCheck2.Gen in
  let* nvars = int_range 2 6 in
  let gen_term = pair (int_range (-3) 3) (int_range 0 (nvars - 1)) in
  let gen_row =
    let* terms = list_size (int_range 1 4) gen_term in
    let* sense = int_range 0 2 in
    let* rhs = int_range (-3) 4 in
    return (terms, sense, rhs)
  in
  let* rows = list_size (int_range 0 8) gen_row in
  let* objective = option (list_size (int_range 1 nvars) gen_term) in
  return (nvars, rows, objective)

let print_model_spec spec = Lp_format.to_string (build_model spec)

let prop_differential_sat_vs_brute =
  QCheck2.Test.make ~name:"differential: sat-backed vs brute force agree" ~count:300
    ~print:print_model_spec gen_model_spec (fun spec ->
      let m = build_model spec in
      outcome_matches m (Solve.solve m) (brute_solve m))

let prop_differential_status_stable_under_proof =
  (* proof logging must never change the verdict, only observe it *)
  QCheck2.Test.make ~name:"differential: proof logging preserves verdict" ~count:100
    ~print:print_model_spec gen_model_spec (fun spec ->
      let m = build_model spec in
      let plain = Solve.solve m in
      let proof = Cgra_satoca.Proof.create () in
      let logged = Solve.solve ~proof m in
      match (plain, logged) with
      | Solve.Infeasible, Solve.Infeasible ->
          Cgra_satoca.Proof.has_empty_clause proof
          && Cgra_satoca.Drat.check proof = Cgra_satoca.Drat.Valid
      | _ -> outcome_matches m plain logged)

let prop_lp_roundtrip_random =
  QCheck2.Test.make ~name:"LP roundtrip preserves solutions" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let m = random_model rng in
      match Lp_format.of_string (Lp_format.to_string m) with
      | Error _ -> false
      | Ok m' ->
          let a = brute_solve m in
          let b = brute_solve m' in
          (match (a, b) with
          | Solve.Infeasible, Solve.Infeasible -> true
          | Solve.Optimal (_, oa), Solve.Optimal (_, ob) -> oa = ob
          | _ -> false))

let suites =
  [
    ( "ilp:model",
      [
        Alcotest.test_case "basics" `Quick test_model_basics;
        Alcotest.test_case "merges terms" `Quick test_model_merges_terms;
        Alcotest.test_case "duplicate var" `Quick test_model_duplicate_var;
      ] );
    ( "ilp:engines",
      [
        Alcotest.test_case "triangle cover" `Quick test_triangle_all_engines;
        Alcotest.test_case "infeasible" `Quick test_infeasible_model;
        Alcotest.test_case "negative coefficients" `Quick test_negative_coefficients;
        Alcotest.test_case "equality rows" `Quick test_equality_rows;
        Alcotest.test_case "feasibility objective" `Quick test_feasibility_objective;
        Alcotest.test_case "weighted coefficients" `Quick test_weighted_coefficients;
        Alcotest.test_case "a descent past the kept totalizer rebuilds it" `Quick
          test_descent_rebuilds_short_totalizer;
      ] );
    ( "ilp:presolve",
      [
        Alcotest.test_case "fixes singletons" `Quick test_presolve_fixes_singletons;
        Alcotest.test_case "detects infeasible" `Quick test_presolve_detects_infeasible;
        Alcotest.test_case "cascade" `Quick test_presolve_cascade;
      ] );
    ( "ilp:lp_format",
      [
        Alcotest.test_case "roundtrip" `Quick test_lp_roundtrip;
        Alcotest.test_case "content" `Quick test_lp_format_content;
        Alcotest.test_case "identifier sanitization" `Quick test_lp_ident;
        Alcotest.test_case "sanitized name collisions re-uniqued" `Quick test_lp_ident_collisions;
        Alcotest.test_case "golden export pinned (mac 1x1 ii1)" `Quick test_lp_golden_mac;
      ] );
    ( "ilp:unsat-core",
      [
        Alcotest.test_case "basic two-group clash" `Quick test_core_basic;
        Alcotest.test_case "satisfiable verdict" `Quick test_core_satisfiable;
        Alcotest.test_case "contradictory hard rows" `Quick test_core_hard_rows_contradictory;
        Alcotest.test_case "restrict builds the sub-model" `Quick test_core_restrict;
        Alcotest.test_case "check clausifies only the named groups" `Quick
          test_core_check_keeps_named_rows;
        Alcotest.test_case "deadline during the shrink" `Quick test_core_deadline_mid_shrink;
        QCheck_alcotest.to_alcotest prop_core_check_matches_brute;
        QCheck_alcotest.to_alcotest prop_core_sound_and_minimal_many_groups;
      ] );
    ( "ilp:properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_sat_engine_matches_brute;
          prop_differential_sat_vs_brute;
          prop_differential_status_stable_under_proof;
          prop_presolve_preserves_outcome;
          prop_lp_roundtrip_random;
          prop_core_sound_and_minimal;
          prop_core_extraction_preserves_verdict;
        ] );
  ]
