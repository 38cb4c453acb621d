(* Cross-component integration tests: the two mappers against each
   other, warm starts, formulation variants, and end-to-end flows over
   random inputs. *)

module Dfg = Cgra_dfg.Dfg
module Op = Cgra_dfg.Op
module Generator = Cgra_dfg.Generator
module Benchmarks = Cgra_dfg.Benchmarks
module Library = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Formulation = Cgra_core.Formulation
module IM = Cgra_core.Ilp_mapper
module Anneal = Cgra_core.Anneal
module Check = Cgra_core.Check
module Mapping = Cgra_core.Mapping
module Solve = Cgra_ilp.Solve
module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Rng = Cgra_util.Rng
module Deadline = Cgra_util.Deadline

let grid ?(topology = Library.Mesh) n =
  Library.make { Library.default with Library.rows = n; cols = n; topology }

(* ---------------- formulation variants ---------------- *)

let test_variants_agree () =
  let dfg = Benchmarks.conv_2x2_f () in
  let mrrg = Build.elaborate (grid 4) ~ii:1 in
  let outcome ~prune ~anchor_sinks ~backward_continuity =
    let f =
      Formulation.build ~objective:Formulation.Feasibility ~prune ~anchor_sinks
        ~backward_continuity dfg mrrg
    in
    match Solve.solve ~deadline:(Deadline.after ~seconds:60.0) f.Formulation.model with
    | Solve.Optimal _ | Solve.Feasible _ -> `Sat
    | Solve.Infeasible -> `Unsat
    | Solve.Timeout -> `Timeout
  in
  let full = outcome ~prune:true ~anchor_sinks:true ~backward_continuity:true in
  Alcotest.(check bool) "full variant decides" true (full <> `Timeout);
  List.iter
    (fun (prune, anchor_sinks, backward_continuity) ->
      let v = outcome ~prune ~anchor_sinks ~backward_continuity in
      Alcotest.(check bool) "variant agrees" true (v = full || v = `Timeout))
    [ (false, true, true); (true, false, true); (true, true, false); (false, false, false) ]

(* ---------------- warm start ---------------- *)

let test_warm_start_consistent () =
  let dfg = Benchmarks.mac () in
  let mrrg = Build.elaborate (grid 4) ~ii:1 in
  let feas warm_start =
    match IM.map ~warm_start ~deadline:(Deadline.after ~seconds:60.0) dfg mrrg with
    | IM.Mapped (m, _) ->
        Alcotest.(check bool) "legal" true (Check.is_legal m);
        true
    | IM.Infeasible _ -> false
    | IM.Timeout _ -> Alcotest.fail "unexpected timeout"
  in
  Alcotest.(check bool) "same answer with and without warm start" (feas 0.0) (feas 10.0)

let test_warm_start_infeasible_unaffected () =
  (* warm start must not turn provable infeasibility into anything else *)
  let dfg = Benchmarks.conv_2x2_f () in
  let mrrg = Build.elaborate (grid 2) ~ii:1 in
  match IM.map ~warm_start:3.0 dfg mrrg with
  | IM.Infeasible _ -> ()
  | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r

(* ---------------- SAT phase seeding ---------------- *)

let test_seed_phases_reproduces_model () =
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 20 do
    let nvars = 8 + Rng.int rng 8 in
    let clauses =
      List.init (2 * nvars) (fun _ ->
          List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))
    in
    let s1 = Solver.create () in
    ignore (Solver.new_vars s1 nvars);
    List.iter (Solver.add_clause s1) clauses;
    match Solver.solve s1 with
    | Solver.Unsat | Solver.Unknown -> ()
    | Solver.Sat ->
        let model = List.init nvars (fun v -> Lit.make v (Solver.value s1 v)) in
        let s2 = Solver.create () in
        ignore (Solver.new_vars s2 nvars);
        List.iter (Solver.add_clause s2) clauses;
        Solver.set_random_freq s2 0.0;
        Solver.seed_phases s2 model;
        Alcotest.(check bool) "sat again" true (Solver.solve s2 = Solver.Sat);
        let st = Solver.stats s2 in
        Alcotest.(check int) "zero conflicts from a seeded model" 0 st.Solver.conflicts
  done

(* ---------------- SA vs ILP consistency on random kernels ----------- *)

let random_kernel rng =
  let cfg =
    {
      Generator.default with
      Generator.n_inputs = 1 + Rng.int rng 3;
      n_outputs = 1;
      n_internal = 2 + Rng.int rng 4;
      mul_fraction = 0.3;
    }
  in
  Generator.generate rng cfg

let prop_sa_implies_ilp =
  QCheck2.Test.make ~name:"SA success implies ILP feasibility" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let dfg = random_kernel rng in
      let mrrg = Build.elaborate (grid 3) ~ii:1 in
      let sa =
        match
          Anneal.map
            ~params:{ Anneal.moderate with Anneal.seed }
            ~deadline:(Deadline.after ~seconds:10.0) dfg mrrg
        with
        | Anneal.Mapped _ -> true
        | Anneal.Failed _ -> false
      in
      let ilp =
        match
          IM.map ~warm_start:0.0 ~deadline:(Deadline.after ~seconds:30.0) dfg mrrg
        with
        | IM.Mapped _ -> true
        | IM.Infeasible _ -> false
        | IM.Timeout _ -> true (* no contradiction observable *)
      in
      (* completeness: the exact mapper dominates the heuristic *)
      (not sa) || ilp)

let prop_ilp_mappings_always_verify =
  QCheck2.Test.make ~name:"ILP mappings verify on random kernels" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let dfg = random_kernel rng in
      let mrrg = Build.elaborate (grid 3) ~ii:(1 + Rng.int rng 2) in
      match IM.map ~warm_start:0.0 ~deadline:(Deadline.after ~seconds:30.0) dfg mrrg with
      | IM.Mapped (m, _) -> Check.is_legal m
      | IM.Infeasible _ | IM.Timeout _ -> true)

(* ---------------- infeasibility explanation ---------------- *)

let test_explain_infeasible_cell () =
  (* the mac/homo-orth/2x2/ii1 Table-2 cell is provably infeasible
     (five operations, four FUs); the explanation must localise exactly
     that clash, verify it by re-solving, and the core must be a real
     core: infeasible on its own as a standalone model *)
  let dfg = Benchmarks.mac () in
  let mrrg = Build.elaborate (grid 2) ~ii:1 in
  match IM.map ~warm_start:0.0 ~explain:true dfg mrrg with
  | IM.Mapped _ | IM.Timeout _ -> Alcotest.fail "expected proven infeasibility"
  | IM.Infeasible info -> (
      match info.IM.diagnosis with
      | None -> Alcotest.fail "no deadline was set: extraction must complete"
      | Some d ->
          Alcotest.(check bool) "core non-empty" true (d.IM.core <> []);
          Alcotest.(check bool) "core minimized" true d.IM.core_minimized;
          Alcotest.(check bool) "core verified" true d.IM.core_verified;
          (* the blame reads in DFG/MRRG vocabulary *)
          Alcotest.(check bool) "names conflicting operations" true (d.IM.conflict_ops <> []);
          Alcotest.(check bool) "names contended resources" true
            (d.IM.conflict_resources <> []);
          List.iter
            (fun label ->
              Alcotest.(check bool)
                (Printf.sprintf "label %s parses" label)
                true
                (Formulation.group_subject label <> None))
            d.IM.core;
          (* independent soundness check: the core's groups plus the
             hard rows form an infeasible standalone model *)
          let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
          let sub = Cgra_ilp.Unsat_core.restrict f.Formulation.model d.IM.core in
          (match Solve.solve ~deadline:(Deadline.after ~seconds:60.0) sub with
          | Solve.Infeasible -> ()
          | _ -> Alcotest.fail "reported core is not infeasible on its own");
          (* minimality spot-check: dropping the first group frees it *)
          let dropped = List.tl d.IM.core in
          (match
             Solve.solve
               ~deadline:(Deadline.after ~seconds:60.0)
               (Cgra_ilp.Unsat_core.restrict f.Formulation.model dropped)
           with
          | Solve.Optimal _ | Solve.Feasible _ -> ()
          | Solve.Infeasible -> Alcotest.fail "core not minimal: first group is redundant"
          | Solve.Timeout -> ()))

(* ---------------- certified cores ---------------- *)

let paper_mrrg ~arch ~size ~ii =
  match Library.find_config ~size arch with
  | Some c -> Build.elaborate (Library.make c) ~ii
  | None -> Alcotest.failf "unknown architecture %s" arch

(* Under [~certify ~explain] the certificate is the core's own
   DRAT-checked refutation; the cores themselves and the SAT calls spent
   minimizing them are pinned, so certifying a core never changes which
   core is reported. *)
let test_certified_core_pins () =
  List.iter
    (fun (bench, arch, ii, groups, sat_calls, evidence) ->
      let cell = Printf.sprintf "%s@%s-2x2/ii%d" bench arch ii in
      let dfg = Option.get (Benchmarks.by_name bench) in
      match
        IM.map ~warm_start:0.0 ~certify:true ~explain:true dfg (paper_mrrg ~arch ~size:2 ~ii)
      with
      | IM.Infeasible ({ IM.diagnosis = Some d; _ } as info) ->
          Alcotest.(check int) (cell ^ ": core groups") groups (List.length d.IM.core);
          Alcotest.(check int) (cell ^ ": core SAT calls") sat_calls d.IM.core_sat_calls;
          Alcotest.(check bool) (cell ^ ": certified") true info.IM.certified;
          Alcotest.(check bool) (cell ^ ": core verified") true d.IM.core_verified;
          Alcotest.(check bool) (cell ^ ": core minimized") true d.IM.core_minimized;
          Alcotest.(check bool) (cell ^ ": evidence") true (info.IM.evidence = Some evidence);
          (* a Hall core is verified by counting, not by a logged refutation *)
          Alcotest.(check bool) (cell ^ ": refutation logged") (evidence = IM.Drat)
            (info.IM.proof_steps > 0)
      | r -> Alcotest.failf "%s: expected an explained infeasibility, got %a" cell IM.pp_result r)
    [
      (* five ALU operations for four ALUs: the Hall step's core, the
         same nine groups the SAT extraction found *)
      ("2x2-f", "homo-orth", 1, 9, 0, IM.Hall);
      ("mac", "homo-orth", 1, 9, 0, IM.Hall);
      (* every operation has a slot; routing fails.  One call decides
         the full grouped model (30 failed groups); the chunked shrink
         on those groups' rows spends the other 49 *)
      ("accum", "hetero-orth", 2, 17, 50, IM.Drat);
    ]

let test_explain_feasible_cell () =
  (* explain changes nothing for a feasible cell: a checked mapping, no
     diagnosis *)
  let dfg = Benchmarks.conv_2x2_f () in
  match IM.map ~warm_start:0.0 ~explain:true dfg (paper_mrrg ~arch:"homo-orth" ~size:2 ~ii:2) with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "mapping passes Check" true (Check.run m = Ok ());
      Alcotest.(check bool) "no diagnosis" true (info.IM.diagnosis = None)
  | r -> Alcotest.failf "expected a mapping, got %a" IM.pp_result r

(* ---------------- LP export of a real formulation ---------------- *)

let test_lp_roundtrip_formulation () =
  let dfg = Benchmarks.mac () in
  let mrrg = Build.elaborate (grid 2) ~ii:1 in
  let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
  let text = Cgra_ilp.Lp_format.to_string f.Formulation.model in
  match Cgra_ilp.Lp_format.of_string text with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      Alcotest.(check int) "vars survive" (Cgra_ilp.Model.nvars f.Formulation.model)
        (Cgra_ilp.Model.nvars m');
      Alcotest.(check int) "rows survive" (Cgra_ilp.Model.nrows f.Formulation.model)
        (Cgra_ilp.Model.nrows m');
      (* both decide the same way *)
      let d1 = Solve.solve ~deadline:(Deadline.after ~seconds:60.0) f.Formulation.model in
      let d2 = Solve.solve ~deadline:(Deadline.after ~seconds:60.0) m' in
      let sat = function
        | Solve.Optimal _ | Solve.Feasible _ -> true
        | Solve.Infeasible | Solve.Timeout -> false
      in
      Alcotest.(check bool) "same feasibility" (sat d1) (sat d2)

(* ---------------- dual context consistency ---------------- *)

let test_ii2_dominates_ii1 () =
  (* anything mappable with one context is mappable with two: check on
     a few real benchmarks (monotonicity of contexts) *)
  List.iter
    (fun name ->
      let dfg = Option.get (Benchmarks.by_name name) in
      let m1 = Build.elaborate (grid 4) ~ii:1 in
      let m2 = Build.elaborate (grid 4) ~ii:2 in
      let feas mrrg =
        match IM.map ~deadline:(Deadline.after ~seconds:60.0) dfg mrrg with
        | IM.Mapped _ -> true
        | IM.Infeasible _ | IM.Timeout _ -> false
      in
      if feas m1 then
        Alcotest.(check bool) (name ^ ": ii2 dominates") true (feas m2))
    [ "mac"; "2x2-f"; "accum" ]

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "formulation variants agree" `Slow test_variants_agree;
        Alcotest.test_case "warm start consistent" `Slow test_warm_start_consistent;
        Alcotest.test_case "warm start on infeasible" `Quick test_warm_start_infeasible_unaffected;
        Alcotest.test_case "seed_phases reproduces model" `Quick test_seed_phases_reproduces_model;
        Alcotest.test_case "explain localises an infeasible cell" `Quick
          test_explain_infeasible_cell;
        Alcotest.test_case "certified cores pinned" `Slow test_certified_core_pins;
        Alcotest.test_case "explain on a feasible cell maps" `Quick test_explain_feasible_cell;
        Alcotest.test_case "LP roundtrip of a formulation" `Slow test_lp_roundtrip_formulation;
        Alcotest.test_case "ii=2 dominates ii=1" `Slow test_ii2_dominates_ii1;
      ] );
    ( "integration:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_sa_implies_ilp; prop_ilp_mappings_always_verify ] );
  ]
