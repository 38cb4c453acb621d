(* Cross-formulation agreement: the connectivity formulation
   (Core.Conn) against the paper formulation.

   The two builders compile the same DFG x MRRG question into
   structurally different 0-1 models; a disagreement on any decidable
   instance means one of them is wrong.  The pinned grid below fixes
   the expected verdict per Table-2 cell so a regression in either
   formulation (not just a divergence between them) fails loudly. *)

module Benchmarks = Cgra_dfg.Benchmarks
module Library = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Formulation = Cgra_core.Formulation
module IM = Cgra_core.Ilp_mapper
module Solver_spec = Cgra_core.Solver_spec
module Check = Cgra_core.Check
module Conn = Cgra_core.Conn
module Deadline = Cgra_util.Deadline

let solver name =
  match Solver_spec.of_name name with
  | Ok s -> s
  | Error e -> Alcotest.failf "solver %s: %s" name e

let conn () = solver "conn-sat"

let solve ?solver ?(seconds = 60.0) dfg mrrg =
  IM.map ?solver ~warm_start:0.0 ~deadline:(Deadline.after ~seconds) dfg mrrg

let cell_mrrg ~size ~arch ~ii =
  let config =
    match Library.find_config ~size arch with
    | Some c -> c
    | None -> Alcotest.failf "unknown architecture %s at size %d" arch size
  in
  Build.elaborate (Library.make config) ~ii

let dfg_of bench =
  match Benchmarks.by_name bench with
  | Some dfg -> dfg
  | None -> Alcotest.failf "unknown benchmark %s" bench

(* Verdicts for the Table-2 benchmark set at II=1..2 on the four 4x4
   paper structures, pinned from a full cross-checked sweep (paper
   formulation primary, conn-sat second opinion, zero disagreements).
   `F: both formulations must produce a Check-accepted mapping;
   `I: both must prove infeasibility.  Cells the reference sweep could
   not decide inside its budget (the big mult/add chains) are listed
   under [undecided_cells] below and exercised for agreement only. *)
let pinned_cells : (string * string * int * [ `F | `I ]) list =
  [
    (* benchmark, 4x4 architecture, ii, verdict *)
    ("accum", "hetero-orth", 1, `F);
    ("mac", "hetero-orth", 1, `F);
    ("2x2-f", "hetero-orth", 1, `F);
    ("2x2-p", "hetero-orth", 1, `F);
    ("mult_16", "hetero-orth", 1, `I);
    ("cos_4", "hetero-orth", 1, `I);
    ("accum", "hetero-diag", 1, `F);
    ("mac", "hetero-diag", 1, `F);
    ("exp_4", "hetero-diag", 1, `F);
    ("mult_10", "hetero-diag", 1, `I);
    ("cosh_4", "hetero-diag", 1, `I);
    ("mac", "homo-orth", 1, `F);
    ("mult_10", "homo-orth", 1, `F);
    ("2x2-f", "homo-orth", 1, `F);
    ("mac", "homo-diag", 1, `F);
    ("mult_10", "homo-diag", 1, `F);
    ("tay_4", "homo-diag", 1, `F);
    ("mac", "hetero-orth", 2, `F);
    ("mult_10", "hetero-orth", 2, `F);
    ("mac", "hetero-diag", 2, `F);
    ("tay_4", "hetero-diag", 2, `F);
    ("mac", "homo-orth", 2, `F);
    ("tay_4", "homo-orth", 2, `F);
    ("mac", "homo-diag", 2, `F);
    ("exp_4", "homo-diag", 2, `F);
  ]

(* Cells the reference sweep could not decide inside its 10 s budget:
   no verdict is pinned, but agreement (and Check validation of any
   conn mapping) is still required whenever both formulations decide
   within the per-cell deadline. *)
let undecided_cells : (string * string * int) list =
  [ ("add_16", "homo-orth", 1); ("mult_16", "hetero-diag", 1) ]

let status = function
  | IM.Mapped _ -> "feasible"
  | IM.Infeasible _ -> "infeasible"
  | IM.Timeout _ -> "timeout"

let check_mapped cell side = function
  | IM.Mapped (m, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s mapping passes Check" cell side)
        true (Check.is_legal m)
  | r -> Alcotest.failf "%s: expected %s to map, got %s" cell side (status r)

let check_infeasible cell side = function
  | IM.Infeasible _ -> ()
  | r -> Alcotest.failf "%s: expected %s infeasible, got %s" cell side (status r)

let run_cell ?seconds (bench, arch, ii) =
  let dfg = dfg_of bench in
  let mrrg = cell_mrrg ~size:4 ~arch ~ii in
  let paper = solve ?seconds dfg mrrg in
  let conn = solve ?seconds ~solver:(conn ()) dfg mrrg in
  (paper, conn)

let test_pinned_grid () =
  List.iter
    (fun (bench, arch, ii, expected) ->
      let cell = Printf.sprintf "%s@%s/ii%d" bench arch ii in
      let paper, conn = run_cell (bench, arch, ii) in
      match expected with
      | `F ->
          check_mapped cell "paper" paper;
          check_mapped cell "conn" conn
      | `I ->
          check_infeasible cell "paper" paper;
          check_infeasible cell "conn" conn)
    pinned_cells

let test_agreement_on_undecided () =
  List.iter
    (fun (bench, arch, ii) ->
      let cell = Printf.sprintf "%s@%s/ii%d" bench arch ii in
      let paper, conn = run_cell ~seconds:15.0 (bench, arch, ii) in
      (match conn with
      | IM.Mapped (m, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: conn mapping passes Check" cell)
            true (Check.is_legal m)
      | _ -> ());
      match (paper, conn) with
      | IM.Mapped _, IM.Infeasible _ | IM.Infeasible _, IM.Mapped _ ->
          Alcotest.failf "%s: formulations disagree (paper %s, conn %s)" cell (status paper)
            (status conn)
      | _ -> ())
    undecided_cells

(* The 2x2 slice decides fast in both directions; keep a quick pinned
   pair so the agreement machinery runs even in a `Quick-only pass. *)
let test_small_grid_agreement () =
  let cases =
    [ ("mac", 2, 1, `I); ("mac", 2, 2, `I); ("2x2-f", 2, 1, `I); ("2x2-f", 2, 2, `F) ]
  in
  List.iter
    (fun (bench, size, ii, expected) ->
      let cell = Printf.sprintf "%s@homo-orth/%dx%d/ii%d" bench size size ii in
      let dfg = dfg_of bench in
      let mrrg = cell_mrrg ~size ~arch:"homo-orth" ~ii in
      let paper = solve dfg mrrg in
      let conn = solve ~solver:(conn ()) dfg mrrg in
      match expected with
      | `F ->
          check_mapped cell "paper" paper;
          check_mapped cell "conn" conn
      | `I ->
          check_infeasible cell "paper" paper;
          check_infeasible cell "conn" conn)
    cases

(* ---------------- the conn model itself ---------------- *)

let test_conn_backends_registered () =
  List.iter
    (fun (name, engine) ->
      let s = solver name in
      Alcotest.(check string) (name ^ " formulation") "conn"
        s.Solver_spec.formulation.Cgra_core.Formulation_intf.name;
      Alcotest.(check bool) (name ^ " engine") true
        (s.Solver_spec.engine = Solver_spec.Native engine))
    [ ("conn-sat", Cgra_ilp.Solve.Sat_backed); ("conn-bnb", Cgra_ilp.Solve.Branch_and_bound) ];
  Alcotest.(check (list string)) "both formulations in the table" [ "paper"; "conn" ]
    (Cgra_core.Formulation_intf.names ())

let test_conn_backend_maps () =
  let dfg = dfg_of "2x2-f" in
  let mrrg = cell_mrrg ~size:2 ~arch:"homo-orth" ~ii:2 in
  List.iter
    (fun backend ->
      match
        IM.map ~solver:(solver backend) ~warm_start:0.0 ~deadline:(Deadline.after ~seconds:60.0)
          dfg mrrg
      with
      | IM.Mapped (m, _) ->
          Alcotest.(check bool) (backend ^ " mapping legal") true (Check.is_legal m)
      | r -> Alcotest.failf "%s: expected feasible, got %s" backend (status r))
    [ "conn-sat"; "conn-bnb" ]

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_unknown_formulation_rejected () =
  match Solver_spec.of_name "no-such-formulation-sat" with
  | Error msg ->
      Alcotest.(check bool) "error names the solver" true
        (contains ~needle:"no-such-formulation-sat" msg);
      Alcotest.(check bool) "error lists the known names" true (contains ~needle:"conn-sat" msg)
  | Ok _ -> Alcotest.fail "unknown formulation accepted"

let test_conn_certify_and_explain () =
  (* the downstream machinery is formulation-agnostic: a conn
     infeasibility must certify (DRAT) and explain (unsat core) like a
     paper one.  accum@hetero-orth-2x2/ii2 passes the Hall step, so
     conn's own engine refutes it. *)
  let dfg = dfg_of "accum" in
  let mrrg = cell_mrrg ~size:2 ~arch:"hetero-orth" ~ii:2 in
  (match IM.map ~solver:(conn ()) ~warm_start:0.0 ~certify:true dfg mrrg with
  | IM.Infeasible info ->
      Alcotest.(check bool) "certified" true info.IM.certified;
      Alcotest.(check bool) "proof steps logged" true (info.IM.proof_steps > 0)
  | r -> Alcotest.failf "expected certified infeasible, got %s" (status r));
  (match IM.map ~solver:(conn ()) ~warm_start:0.0 ~explain:true dfg mrrg with
  | IM.Infeasible { IM.diagnosis = Some d; _ } ->
      Alcotest.(check bool) "core non-empty" true (d.IM.core <> []);
      Alcotest.(check bool) "core verified" true d.IM.core_verified;
      List.iter
        (fun label ->
          Alcotest.(check bool)
            (Printf.sprintf "label %s parses" label)
            true
            (Formulation.group_subject label <> None))
        d.IM.core
  | IM.Infeasible { IM.diagnosis = None; _ } ->
      Alcotest.fail "no deadline was set: extraction must complete"
  | r -> Alcotest.failf "expected explained infeasible, got %s" (status r));
  (* mac@homo-orth-2x2/ii1 is capacity-infeasible: the Hall core is
     checked against conn's own place:/excl: rows *)
  match
    IM.map ~solver:(conn ()) ~warm_start:0.0 ~certify:true ~explain:true (dfg_of "mac")
      (cell_mrrg ~size:2 ~arch:"homo-orth" ~ii:1)
  with
  | IM.Infeasible ({ IM.diagnosis = Some d; _ } as info) ->
      Alcotest.(check bool) "Hall evidence" true (info.IM.evidence = Some IM.Hall);
      Alcotest.(check bool) "Hall answer certified" true info.IM.certified;
      Alcotest.(check int) "Hall core groups" 9 (List.length d.IM.core);
      Alcotest.(check bool) "verified by counting on conn's rows" true d.IM.core_verified;
      Alcotest.(check bool) "minimal on conn's rows" true d.IM.core_minimized
  | r -> Alcotest.failf "expected explained Hall infeasibility, got %s" (status r)

let test_conn_optimize_bounded_by_paper_cost () =
  (* Min_routing on both formulations: the optima count different
     things (tree occupancy vs value occupancy), but both must be
     proven and the extracted mappings legal *)
  let dfg = dfg_of "mac" in
  let mrrg = cell_mrrg ~size:4 ~arch:"homo-orth" ~ii:1 in
  let opt solver =
    match
      IM.map ~objective:Formulation.Min_routing ?solver ~warm_start:0.0
        ~deadline:(Deadline.after ~seconds:120.0) dfg mrrg
    with
    | IM.Mapped (m, info) -> (m, info)
    | r -> Alcotest.failf "expected optimised mapping, got %s" (status r)
  in
  let m_paper, _ = opt None in
  let m_conn, conn_info = opt (Some (conn ())) in
  Alcotest.(check bool) "paper optimised mapping legal" true (Check.is_legal m_paper);
  Alcotest.(check bool) "conn optimised mapping legal" true (Check.is_legal m_conn);
  (* the descent may be cut short by the deadline on a loaded machine;
     when it does finish, the proven optimum (tree-node count) is a
     positive routing cost *)
  if conn_info.IM.proven_optimal then
    Alcotest.(check bool) "conn optimum positive" true
      (Option.get conn_info.IM.objective_value > 0)

let test_conn_warm_start_consistent () =
  let dfg = dfg_of "mac" in
  let mrrg = cell_mrrg ~size:4 ~arch:"homo-orth" ~ii:1 in
  let feas warm_start =
    match
      IM.map ~solver:(conn ()) ~warm_start
        ~deadline:(Deadline.after ~seconds:60.0) dfg mrrg
    with
    | IM.Mapped (m, _) ->
        Alcotest.(check bool) "legal" true (Check.is_legal m);
        true
    | IM.Infeasible _ -> false
    | IM.Timeout _ -> Alcotest.fail "unexpected timeout"
  in
  Alcotest.(check bool) "same answer with and without warm start" (feas 0.0) (feas 10.0)

let test_conn_size_reported () =
  let dfg = dfg_of "mac" in
  let mrrg = cell_mrrg ~size:4 ~arch:"homo-orth" ~ii:1 in
  let t = Conn.build dfg mrrg in
  let s = Conn.size t in
  Alcotest.(check bool) "placement vars" true (s.Formulation.n_f > 0);
  Alcotest.(check bool) "tree vars" true (s.Formulation.n_r > 0);
  Alcotest.(check bool) "flow vars" true (s.Formulation.n_rk > 0);
  Alcotest.(check bool) "rows" true (s.Formulation.n_rows > 0);
  (* every value renders for explanations *)
  Array.iteri (fun j _ -> ignore (Conn.describe_value t j)) t.Conn.values

let suites =
  [
    ( "conn",
      [
        Alcotest.test_case "backends and formulation registered" `Quick
          test_conn_backends_registered;
        Alcotest.test_case "conn-sat/conn-bnb map end-to-end" `Quick test_conn_backend_maps;
        Alcotest.test_case "unknown formulation rejected" `Quick
          test_unknown_formulation_rejected;
        Alcotest.test_case "small grid pinned agreement" `Quick test_small_grid_agreement;
        Alcotest.test_case "certify and explain through conn" `Quick
          test_conn_certify_and_explain;
        Alcotest.test_case "optimise through conn" `Slow test_conn_optimize_bounded_by_paper_cost;
        Alcotest.test_case "warm start consistent" `Slow test_conn_warm_start_consistent;
        Alcotest.test_case "sizes and value descriptions" `Quick test_conn_size_reported;
        Alcotest.test_case "Table-2 pinned grid, both formulations" `Slow test_pinned_grid;
        Alcotest.test_case "Table-2 undecided cells agree" `Slow test_agreement_on_undecided;
      ] );
  ]
