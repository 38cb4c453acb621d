module Backend = Cgra_backend.Backend
module Sol_parse = Cgra_backend.Sol_parse
module Subprocess = Cgra_backend.Subprocess
module Model = Cgra_ilp.Model
module Solve = Cgra_ilp.Solve
module Lp_format = Cgra_ilp.Lp_format
module Formulation = Cgra_core.Formulation
module IM = Cgra_core.Ilp_mapper
module Solver_spec = Cgra_core.Solver_spec
module Formulation_intf = Cgra_core.Formulation_intf
module Job = Cgra_sweep.Job
module Runner = Cgra_sweep.Runner
module Deadline = Cgra_util.Deadline

(* ---------------- the solver table ---------------- *)

let solver name =
  match Solver_spec.of_name name with
  | Ok s -> s
  | Error e -> Alcotest.failf "solver %s: %s" name e

(* The three MILP adapters are external engines under their own names;
   the in-process engines are not. *)
let test_registry_builtins () =
  List.iter
    (fun n ->
      match (solver n).Solver_spec.engine with
      | Solver_spec.External b -> Alcotest.(check string) (n ^ " backend") n b.Backend.name
      | Solver_spec.Native -> Alcotest.failf "%s resolves to the native engine" n)
    [ "highs"; "cbc"; "scip" ];
  Alcotest.(check bool) "native-sat is in-process" true
    ((solver "native-sat").Solver_spec.engine = Solver_spec.Native);
  Alcotest.(check bool) "unknown name is an error" true
    (Result.is_error (Solver_spec.of_name "no-such-solver"))

(* Every listed name parses back to a spec of that name, and the five
   names the CLI, CI and journals use are listed in this order and parse
   to the pairing they stand for. *)
let test_solver_names_roundtrip () =
  let names = Solver_spec.names () in
  Alcotest.(check (list string)) "the table, in order"
    [ "native-sat"; "conn-sat"; "highs"; "cbc"; "scip" ]
    names;
  List.iter
    (fun n -> Alcotest.(check string) "name survives the parse" n (solver n).Solver_spec.name)
    names;
  List.iter
    (fun (n, formulation, engine) ->
      Alcotest.(check bool) (n ^ " listed") true (List.mem n names);
      let s = solver n in
      Alcotest.(check string) (n ^ " formulation") formulation
        s.Solver_spec.formulation.Formulation_intf.name;
      Alcotest.(check string) (n ^ " engine") engine
        (match s.Solver_spec.engine with
        | Solver_spec.Native -> "sat"
        | Solver_spec.External b -> b.Backend.name))
    [
      ("native-sat", "paper", "sat");
      ("conn-sat", "conn", "sat");
      ("highs", "paper", "highs");
      ("cbc", "paper", "cbc");
      ("scip", "paper", "scip");
    ];
  Alcotest.(check bool) "the paper formulation is only native-*" true
    (Result.is_error (Solver_spec.of_name "paper-sat"))

(* ---------------- Sol_parse unit ---------------- *)

let check_sol name dialect text expect_status expect_values =
  match Sol_parse.parse dialect text with
  | Error e -> Alcotest.failf "%s: parse failed: %s" name e
  | Ok sol ->
      Alcotest.(check string)
        (name ^ " status")
        (Format.asprintf "%a" Sol_parse.pp_status expect_status)
        (Format.asprintf "%a" Sol_parse.pp_status sol.Sol_parse.status);
      Alcotest.(check (list (pair string (float 1e-9))))
        (name ^ " values") expect_values sol.Sol_parse.values

let test_sol_parse_highs () =
  let optimal =
    "Model status\nOptimal\n\n# Primal solution values\nFeasible\nObjective 2\n\
     # Columns 3\nx0 1\nx1 0\nx2 1\n# Rows 2\nr0 1\nr1 2\n# Dual solution values\nNone\n"
  in
  check_sol "highs optimal" Sol_parse.Highs optimal Sol_parse.Optimal
    [ ("x0", 1.0); ("x1", 0.0); ("x2", 1.0) ];
  (match Sol_parse.parse Sol_parse.Highs optimal with
  | Ok { Sol_parse.objective = Some o; _ } -> Alcotest.(check (float 1e-9)) "objective" 2.0 o
  | _ -> Alcotest.fail "objective lost");
  check_sol "highs infeasible" Sol_parse.Highs
    "Model status\nInfeasible\n\n# Primal solution values\nNone\n"
    Sol_parse.Infeasible [];
  (* time limit with an incumbent parses as Feasible *)
  check_sol "highs time-limit incumbent" Sol_parse.Highs
    "Model status\nTime limit reached\n\n# Primal solution values\nFeasible\n# Columns 1\nx0 1\n"
    Sol_parse.Feasible [ ("x0", 1.0) ];
  (* time limit with nothing usable parses as Unknown *)
  (match
     Sol_parse.parse Sol_parse.Highs
       "Model status\nTime limit reached\n\n# Primal solution values\nNone\n"
   with
  | Ok { Sol_parse.status = Sol_parse.Unknown _; _ } -> ()
  | Ok s -> Alcotest.failf "expected Unknown, got %a" Sol_parse.pp_status s.Sol_parse.status
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Sol_parse.parse Sol_parse.Highs "garbage\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "headerless text accepted"

let test_sol_parse_cbc () =
  check_sol "cbc optimal" Sol_parse.Cbc
    "Optimal - objective value 3.00000000\n      0 x0 1 0\n      1 x1 0 0\n      2 x2 1 0\n"
    Sol_parse.Optimal
    [ ("x0", 1.0); ("x1", 0.0); ("x2", 1.0) ];
  check_sol "cbc infeasible" Sol_parse.Cbc
    "Infeasible - objective value 0.00000000\n" Sol_parse.Infeasible [];
  check_sol "cbc stopped with incumbent" Sol_parse.Cbc
    "Stopped on time limit - objective value 5.00000000\n      0 x0 1 0\n"
    Sol_parse.Feasible [ ("x0", 1.0) ];
  match Sol_parse.parse Sol_parse.Cbc "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty cbc file accepted"

let test_sol_parse_scip () =
  check_sol "scip optimal" Sol_parse.Scip
    "solution status: optimal solution found\nobjective value: 4\nx0 1 \t(obj:1)\nx2 1 \t(obj:3)\n"
    Sol_parse.Optimal
    [ ("x0", 1.0); ("x2", 1.0) ];
  check_sol "scip infeasible" Sol_parse.Scip
    "solution status: infeasible\nno solution available\n" Sol_parse.Infeasible [];
  match Sol_parse.parse Sol_parse.Scip "nothing here\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "statusless scip file accepted"

(* ---------------- Sol_parse round-trip property ---------------- *)

(* Statuses the render/parse pair models losslessly per dialect:
   Optimal, Infeasible, and Feasible-with-an-incumbent.  CBC prints an
   objective in every header, so its generator always claims one
   (0.0 for Infeasible, matching what parsing the canned header yields). *)
let sol_gen dialect =
  let open QCheck2.Gen in
  let values =
    list_size (int_range 1 8)
      (pair (map (Printf.sprintf "x%d") (int_range 0 99)) (map float_of_int (int_range 0 9)))
    >|= fun vs ->
    (* one entry per name: duplicated names would be ambiguous *)
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) vs
  in
  let objective = map (fun n -> float_of_int n) (int_range 0 1000) in
  let optimal =
    pair values objective >|= fun (values, obj) ->
    { Sol_parse.status = Sol_parse.Optimal; objective = Some obj; values }
  in
  let feasible =
    pair values objective >|= fun (values, obj) ->
    { Sol_parse.status = Sol_parse.Feasible; objective = Some obj; values }
  in
  let infeasible =
    let objective =
      match dialect with Sol_parse.Cbc -> Some 0.0 | Sol_parse.Highs | Sol_parse.Scip -> None
    in
    return { Sol_parse.status = Sol_parse.Infeasible; objective; values = [] }
  in
  oneof [ optimal; feasible; infeasible ]

let prop_sol_roundtrip dialect =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s solution render/parse round-trip" (Sol_parse.dialect_name dialect))
    ~count:200 (sol_gen dialect)
    (fun sol ->
      match Sol_parse.parse dialect (Sol_parse.render dialect sol) with
      | Error _ -> false
      | Ok sol' ->
          sol'.Sol_parse.status = sol.Sol_parse.status
          && sol'.Sol_parse.values = sol.Sol_parse.values
          && (match (sol.Sol_parse.objective, sol'.Sol_parse.objective) with
             | None, None -> true
             | Some a, Some b -> Float.abs (a -. b) < 1e-6
             | _ -> false))

(* ---------------- Subprocess ---------------- *)

let test_subprocess_run () =
  match Subprocess.run ~prog:"/bin/sh" ~args:[ "-c"; "echo marker-out; exit 3" ] () with
  | Error e -> Alcotest.failf "spawn failed: %s" e
  | Ok out ->
      Alcotest.(check int) "exit code" 3 out.Subprocess.exit_code;
      Alcotest.(check bool) "not killed" false out.Subprocess.killed;
      Alcotest.(check bool) "output captured" true
        (Astring.String.is_infix ~affix:"marker-out" out.Subprocess.output)

let test_subprocess_deadline_kill () =
  let t0 = Deadline.now () in
  match
    Subprocess.run
      ~deadline:(Deadline.after ~seconds:0.3)
      ~prog:"/bin/sh" ~args:[ "-c"; "sleep 30" ] ()
  with
  | Error e -> Alcotest.failf "spawn failed: %s" e
  | Ok out ->
      Alcotest.(check bool) "killed" true out.Subprocess.killed;
      Alcotest.(check int) "kill exit code" 124 out.Subprocess.exit_code;
      Alcotest.(check bool) "killed promptly, not after sleep" true
        (Deadline.elapsed_of ~start:t0 < 10.0)

let test_subprocess_missing_binary () =
  (match Subprocess.run ~prog:"/no/such/binary-at-all" ~args:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing binary spawned");
  Alcotest.(check bool) "sh on PATH" true (Subprocess.find_in_path "sh" <> None);
  Alcotest.(check bool) "nonsense not on PATH" true
    (Subprocess.find_in_path "cgra-no-such-binary" = None)

(* ---------------- external adapter end-to-end (stub solver) ---------------- *)

let write_exec path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Unix.chmod path 0o755

(* A stub HiGHS: answers --version, otherwise copies a canned solution
   file into the --solution_file destination (always argv[2] with the
   adapter's argument order). *)
let stub_highs ~dir ~canned =
  let path = Filename.concat dir "highs" in
  write_exec path
    (Printf.sprintf
       "#!/bin/sh\nif [ \"$1\" = \"--version\" ]; then echo \"HiGHS stub 1.0.0\"; exit 0; fi\n\
        cp %s \"$2\"\n"
       (Filename.quote canned));
  path

let with_stub_highs canned_text f =
  let dir = Filename.temp_file "cgra_stub" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let canned = Filename.concat dir "canned.sol" in
  let oc = open_out_bin canned in
  output_string oc canned_text;
  close_out oc;
  let stub = stub_highs ~dir ~canned in
  Unix.putenv "CGRA_HIGHS_BIN" stub;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CGRA_HIGHS_BIN" "";
      List.iter (fun file -> try Sys.remove file with Sys_error _ -> ()) [ canned; stub ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    f

let feasible_job =
  { Job.benchmark = "2x2-f"; arch = "homo-orth"; size = 2; contexts = 2; limit = 30.0 }

let infeasible_job = { feasible_job with Job.benchmark = "mac"; contexts = 1 }

let prepare_exn job =
  match Runner.prepare job with
  | Ok (dfg, mrrg) -> (dfg, mrrg)
  | Error e -> Alcotest.failf "prepare %s: %s" (Job.to_string job) e

(* The honest stub: solve the cell natively first, render the true
   optimal assignment in HiGHS syntax, and check the whole external
   path — LP export, subprocess, solution parsing, replay validation,
   Check.run — reaches the same verdict as the native engine. *)
let test_external_feasible_matches_native () =
  let dfg, mrrg = prepare_exn feasible_job in
  let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
  let model = f.Formulation.model in
  let assign =
    match Solve.solve model with
    | Solve.Optimal (a, _) | Solve.Feasible (a, _) -> a
    | o -> Alcotest.failf "cell unexpectedly not feasible natively: %a" Solve.pp_outcome o
  in
  let names = Lp_format.external_names model in
  let values =
    Array.to_list (Array.mapi (fun v name -> (name, if assign.(v) then 1.0 else 0.0)) names)
  in
  let canned =
    Sol_parse.render Sol_parse.Highs
      { Sol_parse.status = Sol_parse.Optimal; objective = Some 0.0; values }
  in
  with_stub_highs canned (fun () ->
      match IM.map ~solver:(solver "highs") dfg mrrg with
      | IM.Mapped (_, info) ->
          Alcotest.(check bool) "replayed mapping is certified" true info.IM.certified
      | r -> Alcotest.failf "external mapper disagrees with native: %a" IM.pp_result r)

let test_external_infeasible_verdict () =
  let dfg, mrrg = prepare_exn infeasible_job in
  let canned =
    Sol_parse.render Sol_parse.Highs
      { Sol_parse.status = Sol_parse.Infeasible; objective = None; values = [] }
  in
  with_stub_highs canned (fun () ->
      match IM.map ~solver:(solver "highs") dfg mrrg with
      | IM.Infeasible info ->
          (* the solver's word, no DRAT trace: never certified *)
          Alcotest.(check bool) "external infeasible uncertified" false info.IM.certified
      | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r)

(* A lying stub claiming an all-zeros "solution" must die in replay
   validation (every placement row demands exactly one 1), not surface
   as a mapping. *)
let test_external_bogus_solution_rejected () =
  let dfg, mrrg = prepare_exn feasible_job in
  let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
  let names = Lp_format.external_names f.Formulation.model in
  let values = Array.to_list (Array.map (fun name -> (name, 0.0)) names) in
  let canned =
    Sol_parse.render Sol_parse.Highs
      { Sol_parse.status = Sol_parse.Optimal; objective = Some 0.0; values }
  in
  with_stub_highs canned (fun () ->
      match IM.map ~solver:(solver "highs") dfg mrrg with
      | exception Backend.Error msg ->
          Alcotest.(check bool) "error names the replay failure" true
            (Astring.String.is_infix ~affix:"replay" msg)
      | r -> Alcotest.failf "bogus solution accepted: %a" IM.pp_result r)

let test_external_unknown_backend () =
  match Solver_spec.of_name "no-such-solver" with
  | Error msg ->
      Alcotest.(check bool) "error names the solver" true
        (Astring.String.is_infix ~affix:"no-such-solver" msg);
      Alcotest.(check bool) "error lists known solvers" true
        (Astring.String.is_infix ~affix:"native-sat" msg
        && Astring.String.is_infix ~affix:"highs" msg)
  | Ok _ -> Alcotest.fail "unknown backend accepted"

let suites =
  [
    ( "backend:registry",
      [
        Alcotest.test_case "builtins present and typed" `Quick test_registry_builtins;
        Alcotest.test_case "solver names round-trip" `Quick test_solver_names_roundtrip;
      ] );
    ( "backend:sol-parse",
      [
        Alcotest.test_case "highs dialect" `Quick test_sol_parse_highs;
        Alcotest.test_case "cbc dialect" `Quick test_sol_parse_cbc;
        Alcotest.test_case "scip dialect" `Quick test_sol_parse_scip;
      ] );
    ( "backend:subprocess",
      [
        Alcotest.test_case "run captures exit and output" `Quick test_subprocess_run;
        Alcotest.test_case "deadline kills a hung child" `Quick test_subprocess_deadline_kill;
        Alcotest.test_case "missing binary" `Quick test_subprocess_missing_binary;
      ] );
    ( "backend:external",
      [
        Alcotest.test_case "stub solver matches native verdict" `Slow
          test_external_feasible_matches_native;
        Alcotest.test_case "stub infeasible verdict, uncertified" `Slow
          test_external_infeasible_verdict;
        Alcotest.test_case "bogus external solution rejected" `Slow
          test_external_bogus_solution_rejected;
        Alcotest.test_case "unknown backend name" `Quick test_external_unknown_backend;
      ] );
    ( "backend:properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_sol_roundtrip Sol_parse.Highs;
          prop_sol_roundtrip Sol_parse.Cbc;
          prop_sol_roundtrip Sol_parse.Scip;
        ] );
  ]
