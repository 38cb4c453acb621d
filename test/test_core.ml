module Dfg = Cgra_dfg.Dfg
module Op = Cgra_dfg.Op
module Benchmarks = Cgra_dfg.Benchmarks
module Arch = Cgra_arch.Arch
module Primitive = Cgra_arch.Primitive
module Library = Cgra_arch.Library
module Mrrg = Cgra_mrrg.Mrrg
module Build = Cgra_mrrg.Build
module Formulation = Cgra_core.Formulation
module IM = Cgra_core.Ilp_mapper
module Extract = Cgra_core.Extract
module Check = Cgra_core.Check
module Mapping = Cgra_core.Mapping
module Anneal = Cgra_core.Anneal
module Solve = Cgra_ilp.Solve
module Model = Cgra_ilp.Model

(* ---------------- helpers ---------------- *)

let tiny_add_dfg () =
  let b = Dfg.Builder.create ~name:"tiny" () in
  let x = Dfg.Builder.add b Op.Input "x" in
  let y = Dfg.Builder.add b Op.Input "y" in
  let s = Dfg.Builder.add b Op.Add "s" in
  Dfg.Builder.connect b ~src:x ~dst:s ~operand:0;
  Dfg.Builder.connect b ~src:y ~dst:s ~operand:1;
  let o = Dfg.Builder.add b Op.Output "o" in
  Dfg.Builder.connect b ~src:s ~dst:o ~operand:0;
  Dfg.Builder.freeze b

let grid ?(topology = Library.Mesh) ?(fu_mix = Library.Homogeneous) n =
  Library.make { Library.rows = n; cols = n; topology; fu_mix; route = Library.Direct }

let mrrg_of ?topology ?fu_mix ~ii n = Build.elaborate (grid ?topology ?fu_mix n) ~ii

(* A hand-rolled MRRG in the style of the paper's Fig. 4: two source
   and sink functional units joined by explicit routing nodes.
   [via] controls the corridor shape. *)

(* ---------------- candidates / legality (constraint 3) -------------- *)

let test_candidates_legality () =
  let dfg =
    let b = Dfg.Builder.create () in
    let x = Dfg.Builder.add b Op.Input "x" in
    let m = Dfg.Builder.add b Op.Mul "m" in
    Dfg.Builder.connect b ~src:x ~dst:m ~operand:0;
    Dfg.Builder.connect b ~src:x ~dst:m ~operand:1;
    Dfg.Builder.freeze b
  in
  let mrrg = mrrg_of ~fu_mix:Library.Heterogeneous ~ii:1 4 in
  let mul_node = Option.get (Dfg.find dfg "m") in
  let cands = Formulation.candidates dfg mrrg mul_node.Dfg.id in
  (* half of the 16 ALUs have multipliers; memory ports and pads do not *)
  Alcotest.(check int) "8 mul hosts" 8 (List.length cands);
  List.iter
    (fun p -> Alcotest.(check bool) "supports mul" true (Mrrg.supports mrrg p Op.Mul))
    cands;
  let input_node = Option.get (Dfg.find dfg "x") in
  let io_cands = Formulation.candidates dfg mrrg input_node.Dfg.id in
  Alcotest.(check int) "16 input hosts" 16 (List.length io_cands)

(* ---------------- end-to-end mapping ---------------- *)

let test_map_tiny_1x1 () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  match IM.map dfg mrrg with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      Alcotest.(check int) "all ops placed" 4 (List.length m.Mapping.placement);
      Alcotest.(check bool) "proven" true info.IM.proven_optimal
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

let test_map_infeasible_too_many_ops () =
  (* five internal ops on a 2x2 grid: only 4 ALUs -> provably infeasible *)
  let dfg = Benchmarks.conv_2x2_f () in
  let mrrg = mrrg_of ~ii:1 2 in
  match IM.map dfg mrrg with
  | IM.Infeasible _ -> ()
  | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r

let test_map_no_candidate_infeasible () =
  (* a load on an architecture slice without memory ports: build a 1x1
     arch manually without mem *)
  let b = Arch.Builder.create ~name:"no-mem" () in
  Arch.Builder.add b "f" (Primitive.alu ());
  Arch.Builder.add b "m" (Primitive.Multiplexer 2);
  Arch.Builder.connect b ~src:{ Arch.inst = "m"; port = "out" } ~dst:{ Arch.inst = "f"; port = "in0" };
  Arch.Builder.connect b ~src:{ Arch.inst = "m"; port = "out" } ~dst:{ Arch.inst = "f"; port = "in1" };
  Arch.Builder.connect b ~src:{ Arch.inst = "f"; port = "out" } ~dst:{ Arch.inst = "m"; port = "in0" };
  let arch = Arch.Builder.freeze b in
  let mrrg = Build.elaborate arch ~ii:1 in
  let dfg =
    let b = Dfg.Builder.create () in
    let c = Dfg.Builder.add b Op.Const "c" in
    let l = Dfg.Builder.add b Op.Load "l" in
    Dfg.Builder.connect b ~src:c ~dst:l ~operand:0;
    let a = Dfg.Builder.add b Op.Add "a" in
    Dfg.Builder.connect b ~src:l ~dst:a ~operand:0;
    Dfg.Builder.connect b ~src:l ~dst:a ~operand:1;
    Dfg.Builder.freeze b
  in
  match IM.map dfg mrrg with
  | IM.Infeasible _ -> ()
  | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r

let test_map_self_loop_accumulator () =
  let dfg =
    let b = Dfg.Builder.create ~name:"acc" () in
    let x = Dfg.Builder.add b Op.Input "x" in
    let acc = Dfg.Builder.add b Op.Add "acc" in
    Dfg.Builder.connect b ~src:x ~dst:acc ~operand:0;
    Dfg.Builder.connect b ~src:acc ~dst:acc ~operand:1;
    Dfg.Builder.freeze b
  in
  let mrrg = mrrg_of ~ii:1 2 in
  match IM.map dfg mrrg with
  | IM.Mapped (m, _) ->
      Alcotest.(check bool) "legal (self loop routed)" true (Check.is_legal m)
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

let test_map_timeout () =
  let dfg = Benchmarks.add_16 () in
  let mrrg = mrrg_of ~ii:1 4 in
  let deadline = Cgra_util.Deadline.after ~seconds:0.0 in
  match IM.map ~deadline dfg mrrg with
  | IM.Timeout _ -> ()
  | r -> Alcotest.failf "expected timeout, got %a" IM.pp_result r

let paper_cell bench ~arch ~size ~ii =
  let dfg = Option.get (Benchmarks.by_name bench) in
  let config = Option.get (Library.find_config ~size arch) in
  (dfg, Build.elaborate (Library.make config) ~ii)

let wall f =
  let t0 = Cgra_util.Deadline.now () in
  let r = f () in
  (r, Cgra_util.Deadline.elapsed_of ~start:t0)

(* A 5 s warm start must not outlive a shorter deadline: the anneal
   gets what is left of the call's budget, never more. *)
let test_map_warm_start_honours_deadline () =
  let dfg, mrrg = paper_cell "exp_6" ~arch:"homo-orth" ~size:4 ~ii:2 in
  let deadline = Cgra_util.Deadline.after ~seconds:0.5 in
  match wall (fun () -> IM.map ~warm_start:5.0 ~deadline dfg mrrg) with
  | IM.Timeout _, seconds ->
      Alcotest.(check bool) (Printf.sprintf "returned in %.2fs, under 2s" seconds) true
        (seconds < 2.0)
  | r, _ -> Alcotest.failf "expected timeout, got %a" IM.pp_result r

let test_map_dual_context_uses_both () =
  (* 1x1 grid, ii=2: two ALU slots allow two chained adds *)
  let dfg =
    let b = Dfg.Builder.create () in
    let x = Dfg.Builder.add b Op.Input "x" in
    let a1 = Dfg.Builder.add b Op.Add "a1" in
    Dfg.Builder.connect b ~src:x ~dst:a1 ~operand:0;
    Dfg.Builder.connect b ~src:x ~dst:a1 ~operand:1;
    let a2 = Dfg.Builder.add b Op.Add "a2" in
    Dfg.Builder.connect b ~src:a1 ~dst:a2 ~operand:0;
    Dfg.Builder.connect b ~src:a1 ~dst:a2 ~operand:1;
    let o = Dfg.Builder.add b Op.Output "o" in
    Dfg.Builder.connect b ~src:a2 ~dst:o ~operand:0;
    Dfg.Builder.freeze b
  in
  (* 1x1 ii=1 is infeasible: one ALU slot, two adds *)
  (match IM.map dfg (mrrg_of ~ii:1 1) with
  | IM.Infeasible _ -> ()
  | r -> Alcotest.failf "ii=1 should be infeasible, got %a" IM.pp_result r);
  (* ii=2 doubles the slots *)
  match IM.map dfg (mrrg_of ~ii:2 1) with
  | IM.Mapped (m, _) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      let a1 = Option.get (Dfg.find dfg "a1") and a2 = Option.get (Dfg.find dfg "a2") in
      let p1 = Option.get (Mapping.placement_of m a1.Dfg.id) in
      let p2 = Option.get (Mapping.placement_of m a2.Dfg.id) in
      Alcotest.(check bool) "different context slots" true
        ((Mrrg.node m.Mapping.mrrg p1).Mrrg.ctx <> (Mrrg.node m.Mapping.mrrg p2).Mrrg.ctx)
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

(* ---------------- optimisation (objective 10) ---------------- *)

let test_optimize_reduces_cost () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 2 in
  let feas =
    match IM.map ~objective:Formulation.Feasibility dfg mrrg with
    | IM.Mapped (m, _) -> Mapping.routing_cost m
    | r -> Alcotest.failf "feasibility failed: %a" IM.pp_result r
  in
  match IM.map ~objective:Formulation.Min_routing dfg mrrg with
  | IM.Mapped (m, info) ->
      let opt = Mapping.routing_cost m in
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      Alcotest.(check bool) "optimal flag" true info.IM.proven_optimal;
      Alcotest.(check bool) "objective echoes cost" true (info.IM.objective_value = Some opt);
      Alcotest.(check bool) "cost not worse than feasibility" true (opt <= feas)
  | r -> Alcotest.failf "optimisation failed: %a" IM.pp_result r

let test_optimal_cost_engine_agreement () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  let mapped =
    match IM.map ~objective:Formulation.Min_routing dfg mrrg with
    | IM.Mapped (_, info) -> Option.get info.IM.objective_value
    | r -> Alcotest.failf "mapper failed: %a" IM.pp_result r
  in
  (* the reference shares no CNF with the mapper's pruned model: the
     unpruned formulation keeps every variable and row pruning drops *)
  let f = Formulation.build ~objective:Formulation.Min_routing ~prune:false dfg mrrg in
  match Solve.solve f.Formulation.model with
  | Solve.Optimal (_, reference) ->
      Alcotest.(check int) "pruned vs unpruned optimum" reference mapped
  | o -> Alcotest.failf "unpruned model: %a" Solve.pp_outcome o

let test_weighted_objective () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  (* weight registers heavily: the optimum avoids register nodes where
     possible, and the weighted optimum costs at least the unit one *)
  let weight (n : Mrrg.node) =
    let contains_reg =
      let name = n.Mrrg.name in
      let nl = String.length name in
      let rec go i = i + 4 <= nl && (String.sub name i 4 = ".reg" || go (i + 1)) in
      go 0
    in
    if contains_reg then 5 else 1
  in
  match IM.map ~objective:(Formulation.Weighted weight) dfg mrrg with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      Alcotest.(check bool) "objective at least unit cost" true
        (Option.get info.IM.objective_value >= Mapping.routing_cost m)
  | r -> Alcotest.failf "weighted objective failed: %a" IM.pp_result r

let test_prune_equivalence () =
  (* corridor pruning must not change feasibility or the optimum *)
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  let solve ?objective prune dfg mrrg =
    Solve.solve (Formulation.build ?objective ~prune dfg mrrg).Formulation.model
  in
  let optimum prune =
    match solve ~objective:Formulation.Min_routing prune dfg mrrg with
    | Solve.Optimal (_, obj) -> obj
    | o -> Alcotest.failf "prune=%b failed: %a" prune Solve.pp_outcome o
  in
  Alcotest.(check int) "same optimum" (optimum true) (optimum false);
  (* and on an infeasible instance both prove infeasibility *)
  let dfg5 = Benchmarks.conv_2x2_f () in
  let mrrg2 = mrrg_of ~ii:1 2 in
  List.iter
    (fun prune ->
      match solve ~objective:Formulation.Feasibility prune dfg5 mrrg2 with
      | Solve.Infeasible -> ()
      | o -> Alcotest.failf "prune=%b: expected infeasible, got %a" prune Solve.pp_outcome o)
    [ true; false ]

(* ---------------- formulation structure ---------------- *)

let test_formulation_sizes () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 2 in
  let f = Formulation.build dfg mrrg in
  let s = Formulation.size f in
  Alcotest.(check bool) "has F vars" true (s.Formulation.n_f > 0);
  Alcotest.(check bool) "has R vars" true (s.Formulation.n_r > 0);
  Alcotest.(check bool) "has Rk vars" true (s.Formulation.n_rk > 0);
  Alcotest.(check bool) "Rk at least R" true (s.Formulation.n_rk >= s.Formulation.n_r);
  (* pruning strictly shrinks the model on this architecture *)
  let f' = Formulation.build ~prune:false dfg mrrg in
  let s' = Formulation.size f' in
  Alcotest.(check bool) "pruning shrinks Rk" true (s.Formulation.n_rk < s'.Formulation.n_rk)

let test_formulation_objective_rows () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  let f = Formulation.build ~objective:Formulation.Min_routing dfg mrrg in
  (match Model.objective f.Formulation.model with
  | Model.Minimize terms ->
      Alcotest.(check int) "objective over all R vars"
        (Hashtbl.length f.Formulation.r_vars)
        (List.length terms)
  | Model.Feasibility -> Alcotest.fail "expected objective");
  let f2 = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
  Alcotest.(check bool) "feasibility has no objective" true
    (Model.objective f2.Formulation.model = Model.Feasibility)

(* The corridor-sparse builder must produce exactly the model the dense
   reference scan produces.  Variable/row counts are pinned to the
   known-good values so that an "equivalent but different" drift of
   both builders at once cannot slip through. *)
let test_formulation_pinned_counts () =
  let dfg = Option.get (Benchmarks.by_name "mac") in
  List.iter
    (fun (topology, f_pin, r_pin, rk_pin, rows_pin, nvars_pin) ->
      let mrrg = mrrg_of ~topology ~ii:1 4 in
      let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
      let s = Formulation.size f in
      let label fmt = Printf.sprintf fmt (Library.topology_to_string topology) in
      Alcotest.(check int) (label "%s F vars") f_pin s.Formulation.n_f;
      Alcotest.(check int) (label "%s R vars") r_pin s.Formulation.n_r;
      Alcotest.(check int) (label "%s Rk vars") rk_pin s.Formulation.n_rk;
      Alcotest.(check int) (label "%s rows") rows_pin s.Formulation.n_rows;
      Alcotest.(check int) (label "%s vars") nvars_pin (Model.nvars f.Formulation.model))
    [
      (Library.Mesh, 160, 3312, 4176, 13466, 7648);
      (Library.Torus, 160, 3632, 4560, 14666, 8352);
    ]

let test_formulation_matches_reference () =
  let dfg = Option.get (Benchmarks.by_name "mac") in
  List.iter
    (fun (topology, objective, prune, label) ->
      let mrrg = mrrg_of ~topology ~ii:1 4 in
      let f = Formulation.build ~objective ~prune dfg mrrg in
      let r = Formulation.build_reference ~objective ~prune dfg mrrg in
      let render f = Cgra_ilp.Lp_format.to_string f.Formulation.model in
      Alcotest.(check bool) (label ^ " LP byte-identical to reference") true
        (render f = render r))
    [
      (Library.Mesh, Formulation.Feasibility, true, "mesh");
      (Library.Torus, Formulation.Feasibility, true, "torus");
      (Library.Mesh, Formulation.Min_routing, true, "mesh min-routing");
      (Library.Mesh, Formulation.Feasibility, false, "mesh unpruned");
    ]

(* ---------------- paper Examples 1-3 ---------------- *)

(* Example 1 (Fig. 4 MRRG A): one producer, a routing fork, two
   possible consumers.  The formulation must place the consumer at
   whichever functional unit the route reaches. *)
let example_mrrg_a () =
  let b = Mrrg.Builder.create ~ii:1 in
  let fu1 = Mrrg.Builder.add_node b ~name:"fu1" ~ctx:0 ~kind:(Mrrg.Func [ Op.Const ]) () in
  let r1 = Mrrg.Builder.add_node b ~name:"r1" ~ctx:0 ~kind:Mrrg.Route () in
  let r2 = Mrrg.Builder.add_node b ~name:"r2" ~ctx:0 ~kind:Mrrg.Route () in
  let r3 = Mrrg.Builder.add_node b ~name:"r3" ~ctx:0 ~kind:Mrrg.Route () in
  let in2 = Mrrg.Builder.add_node b ~name:"in2" ~ctx:0 ~kind:Mrrg.Route ~operand:0 () in
  let in3 = Mrrg.Builder.add_node b ~name:"in3" ~ctx:0 ~kind:Mrrg.Route ~operand:0 () in
  let fu2 = Mrrg.Builder.add_node b ~name:"fu2" ~ctx:0 ~kind:(Mrrg.Func [ Op.Output ]) () in
  let fu3 = Mrrg.Builder.add_node b ~name:"fu3" ~ctx:0 ~kind:(Mrrg.Func [ Op.Output ]) () in
  Mrrg.Builder.add_edge b ~src:fu1 ~dst:r1;
  Mrrg.Builder.add_edge b ~src:r1 ~dst:r2;
  Mrrg.Builder.add_edge b ~src:r1 ~dst:r3;
  Mrrg.Builder.add_edge b ~src:r2 ~dst:in2;
  Mrrg.Builder.add_edge b ~src:r3 ~dst:in3;
  Mrrg.Builder.add_edge b ~src:in2 ~dst:fu2;
  Mrrg.Builder.add_edge b ~src:in3 ~dst:fu3;
  Mrrg.Builder.freeze b

let example_dfg_a () =
  let b = Dfg.Builder.create ~name:"dfgA" () in
  let op1 = Dfg.Builder.add b Op.Const "op1" in
  let op2 = Dfg.Builder.add b Op.Output "op2" in
  Dfg.Builder.connect b ~src:op1 ~dst:op2 ~operand:0;
  Dfg.Builder.freeze b

let test_example1_routing_implies_placement () =
  let dfg = example_dfg_a () and mrrg = example_mrrg_a () in
  match IM.map ~objective:Formulation.Min_routing dfg mrrg with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      (* minimal route: r1 plus one branch (r2/in2 or r3/in3) = 3 nodes *)
      Alcotest.(check (option int)) "optimal route size" (Some 3) info.IM.objective_value;
      let op2 = Option.get (Dfg.find dfg "op2") in
      let p = Option.get (Mapping.placement_of m op2.Dfg.id) in
      let used = Mapping.used_route_nodes m in
      let name = (Mrrg.node mrrg p).Mrrg.name in
      let reaches = Hashtbl.mem used (Option.get (Mrrg.find mrrg (if name = "fu2" then "in2" else "in3"))) in
      Alcotest.(check bool) "route terminates at the placed consumer" true reaches
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

(* Example 2 (Fig. 4 MRRG B): a cycle of multi-fanin routing nodes that
   could "absorb" fanout routing.  Multiplexer input exclusivity (9)
   plus continuity force the route to leave the cloud and reach the
   real sink. *)
let test_example2_loops_prevented () =
  let b = Mrrg.Builder.create ~ii:1 in
  let fu1 = Mrrg.Builder.add_node b ~name:"fu1" ~ctx:0 ~kind:(Mrrg.Func [ Op.Const ]) () in
  let out = Mrrg.Builder.add_node b ~name:"out" ~ctx:0 ~kind:Mrrg.Route () in
  (* cycle c1 -> c2 -> c3 -> c1, entered from out *)
  let c1 = Mrrg.Builder.add_node b ~name:"c1" ~ctx:0 ~kind:Mrrg.Route () in
  let c2 = Mrrg.Builder.add_node b ~name:"c2" ~ctx:0 ~kind:Mrrg.Route () in
  let c3 = Mrrg.Builder.add_node b ~name:"c3" ~ctx:0 ~kind:Mrrg.Route () in
  (* long tail to the sink *)
  let t1 = Mrrg.Builder.add_node b ~name:"t1" ~ctx:0 ~kind:Mrrg.Route () in
  let t2 = Mrrg.Builder.add_node b ~name:"t2" ~ctx:0 ~kind:Mrrg.Route () in
  let in2 = Mrrg.Builder.add_node b ~name:"in2" ~ctx:0 ~kind:Mrrg.Route ~operand:0 () in
  let fu2 = Mrrg.Builder.add_node b ~name:"fu2" ~ctx:0 ~kind:(Mrrg.Func [ Op.Output ]) () in
  Mrrg.Builder.add_edge b ~src:fu1 ~dst:out;
  Mrrg.Builder.add_edge b ~src:out ~dst:c1;
  Mrrg.Builder.add_edge b ~src:c1 ~dst:c2;
  Mrrg.Builder.add_edge b ~src:c2 ~dst:c3;
  Mrrg.Builder.add_edge b ~src:c3 ~dst:c1;
  Mrrg.Builder.add_edge b ~src:out ~dst:t1;
  Mrrg.Builder.add_edge b ~src:t1 ~dst:t2;
  Mrrg.Builder.add_edge b ~src:t2 ~dst:in2;
  Mrrg.Builder.add_edge b ~src:in2 ~dst:fu2;
  let mrrg = Mrrg.Builder.freeze b in
  let dfg = example_dfg_a () in
  match IM.map ~objective:Formulation.Min_routing dfg mrrg with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      (* optimal route: out, t1, t2, in2 — the cycle is never used *)
      Alcotest.(check (option int)) "no loop usage" (Some 4) info.IM.objective_value;
      let used = Mapping.used_route_nodes m in
      List.iter
        (fun n ->
          Alcotest.(check bool) ("cycle node " ^ n ^ " unused") false
            (Hashtbl.mem used (Option.get (Mrrg.find mrrg n))))
        [ "c1"; "c2"; "c3" ]
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

(* Example 3 (Fig. 5 DFG B): a two-fanout value must reach both
   consumers — sub-value routing, not value routing. *)
let test_example3_subvalues () =
  let b = Mrrg.Builder.create ~ii:1 in
  let fu1 = Mrrg.Builder.add_node b ~name:"fu1" ~ctx:0 ~kind:(Mrrg.Func [ Op.Const ]) () in
  let out = Mrrg.Builder.add_node b ~name:"out" ~ctx:0 ~kind:Mrrg.Route () in
  let r2 = Mrrg.Builder.add_node b ~name:"r2" ~ctx:0 ~kind:Mrrg.Route () in
  let r3 = Mrrg.Builder.add_node b ~name:"r3" ~ctx:0 ~kind:Mrrg.Route () in
  let in2 = Mrrg.Builder.add_node b ~name:"in2" ~ctx:0 ~kind:Mrrg.Route ~operand:0 () in
  let in3 = Mrrg.Builder.add_node b ~name:"in3" ~ctx:0 ~kind:Mrrg.Route ~operand:0 () in
  let fu2 = Mrrg.Builder.add_node b ~name:"fu2" ~ctx:0 ~kind:(Mrrg.Func [ Op.Output ]) () in
  let fu3 = Mrrg.Builder.add_node b ~name:"fu3" ~ctx:0 ~kind:(Mrrg.Func [ Op.Output ]) () in
  Mrrg.Builder.add_edge b ~src:fu1 ~dst:out;
  Mrrg.Builder.add_edge b ~src:out ~dst:r2;
  Mrrg.Builder.add_edge b ~src:out ~dst:r3;
  Mrrg.Builder.add_edge b ~src:r2 ~dst:in2;
  Mrrg.Builder.add_edge b ~src:r3 ~dst:in3;
  Mrrg.Builder.add_edge b ~src:in2 ~dst:fu2;
  Mrrg.Builder.add_edge b ~src:in3 ~dst:fu3;
  let mrrg = Mrrg.Builder.freeze b in
  let dfg =
    let b = Dfg.Builder.create ~name:"dfgB" () in
    let op1 = Dfg.Builder.add b Op.Const "op1" in
    let op2 = Dfg.Builder.add b Op.Output "op2" in
    let op3 = Dfg.Builder.add b Op.Output "op3" in
    Dfg.Builder.connect b ~src:op1 ~dst:op2 ~operand:0;
    Dfg.Builder.connect b ~src:op1 ~dst:op3 ~operand:0;
    Dfg.Builder.freeze b
  in
  match IM.map ~objective:Formulation.Min_routing dfg mrrg with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "legal (both sinks reached)" true (Check.is_legal m);
      (* both branches used: out, r2, in2, r3, in3 *)
      Alcotest.(check (option int)) "both branches routed" (Some 5) info.IM.objective_value
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

(* ---------------- checker ---------------- *)

let mapped_tiny () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  match IM.map dfg mrrg with
  | IM.Mapped (m, _) -> m
  | r -> Alcotest.failf "setup failed: %a" IM.pp_result r

let test_check_detects_unplaced () =
  let m = mapped_tiny () in
  let broken = { m with Mapping.placement = List.tl m.Mapping.placement } in
  Alcotest.(check bool) "missing placement rejected" false (Check.is_legal broken)

let test_check_detects_bad_fu () =
  let m = mapped_tiny () in
  let mrrg = m.Mapping.mrrg in
  (* move the add onto the memory port, which cannot execute it *)
  let mem = Option.get (Mrrg.find mrrg "c0.mem0.fu") in
  let s = Option.get (Dfg.find m.Mapping.dfg "s") in
  let placement =
    List.map (fun (q, p) -> if q = s.Dfg.id then (q, mem) else (q, p)) m.Mapping.placement
  in
  Alcotest.(check bool) "illegal host rejected" false
    (Check.is_legal { m with Mapping.placement })

let test_check_detects_broken_route () =
  let m = mapped_tiny () in
  let routes =
    List.map
      (fun (r : Mapping.route) -> { r with Mapping.nodes = List.tl r.Mapping.nodes })
      m.Mapping.routes
  in
  Alcotest.(check bool) "broken route rejected" false (Check.is_legal { m with Mapping.routes })

let test_check_detects_shared_node () =
  let m = mapped_tiny () in
  match m.Mapping.routes with
  | r1 :: r2 :: rest when r1.Mapping.value_producer <> r2.Mapping.value_producer ->
      (* graft one of r1's nodes onto r2's route: two values on a node *)
      let stolen = List.hd r1.Mapping.nodes in
      let routes = r1 :: { r2 with Mapping.nodes = stolen :: r2.Mapping.nodes } :: rest in
      Alcotest.(check bool) "sharing rejected" false (Check.is_legal { m with Mapping.routes })
  | _ -> Alcotest.fail "expected two routes with distinct values"

let errors_of m = match Check.run m with Ok () -> [] | Error e -> e

let has_err needle errs = List.exists (fun e -> Astring.String.is_infix ~affix:needle e) errs

let test_check_double_booked_fu () =
  let m = mapped_tiny () in
  (* move y onto the functional unit hosting x: two ops, one FU *)
  let x = Option.get (Dfg.find m.Mapping.dfg "x") in
  let y = Option.get (Dfg.find m.Mapping.dfg "y") in
  let px = Option.get (Mapping.placement_of m x.Dfg.id) in
  let placement =
    List.map (fun (q, p) -> if q = y.Dfg.id then (q, px) else (q, p)) m.Mapping.placement
  in
  let errs = errors_of { m with Mapping.placement } in
  Alcotest.(check bool) "rejected" true (errs <> []);
  Alcotest.(check bool) "diagnostic names the double booking" true (has_err "hosts both" errs)

let test_check_dropped_route_edge_diagnostic () =
  let m = mapped_tiny () in
  let routes =
    List.map
      (fun (r : Mapping.route) -> { r with Mapping.nodes = List.tl r.Mapping.nodes })
      m.Mapping.routes
  in
  let errs = errors_of { m with Mapping.routes } in
  Alcotest.(check bool) "rejected" true (errs <> []);
  Alcotest.(check bool) "diagnostic explains the break" true
    (has_err "disconnected" errs || has_err "does not start" errs
    || has_err "does not include the sink port" errs)

let test_check_shared_node_diagnostic () =
  let m = mapped_tiny () in
  match m.Mapping.routes with
  | r1 :: r2 :: rest when r1.Mapping.value_producer <> r2.Mapping.value_producer ->
      let stolen = List.hd r1.Mapping.nodes in
      let routes = r1 :: { r2 with Mapping.nodes = stolen :: r2.Mapping.nodes } :: rest in
      let errs = errors_of { m with Mapping.routes } in
      Alcotest.(check bool) "diagnostic names both values" true
        (has_err "carries values of both" errs)
  | _ -> Alcotest.fail "expected two routes with distinct values"

(* ---------------- certified verdicts ---------------- *)

(* accum on the 2x2 heterogeneous orthogonal array at II 2: every
   operation has its own capable slot, so the Hall step passes and the
   infeasibility is routing's, refuted by the engine *)
let accum_hetero_orth_ii2 () =
  let config = Option.get (Library.find_config ~size:2 "hetero-orth") in
  (Benchmarks.accum (), Build.elaborate (Library.make config) ~ii:2)

let test_map_certify_infeasible () =
  (* routing infeasibility: the verdict must carry a checked DRAT proof *)
  let dfg, mrrg = accum_hetero_orth_ii2 () in
  (match IM.map ~warm_start:0.0 ~certify:true dfg mrrg with
  | IM.Infeasible info ->
      Alcotest.(check bool) "certified" true info.IM.certified;
      Alcotest.(check bool) "nontrivial proof" true (info.IM.proof_steps > 0);
      Alcotest.(check bool) "decided by the engine" true (info.IM.evidence = Some IM.Drat)
  | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r);
  (* capacity infeasibility: the Hall step's checked witness *)
  match IM.map ~warm_start:0.0 ~certify:true (Benchmarks.conv_2x2_f ()) (mrrg_of ~ii:1 2) with
  | IM.Infeasible info ->
      Alcotest.(check bool) "Hall answer certified" true info.IM.certified;
      Alcotest.(check bool) "decided by Hall" true (info.IM.evidence = Some IM.Hall);
      Alcotest.(check int) "no proof logged" 0 info.IM.proof_steps
  | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r

(* A replay the deadline cuts short certifies nothing and is not kept
   as the step's checked refutation: a refuted resident solver answers
   a repeat without searching, so only an unrecorded replay leaves the
   repeat uncertified under the same raised flag.  With the flag down
   the replay finishes and certifies. *)
let test_cut_replay_not_recorded () =
  let module Deadline = Cgra_util.Deadline in
  let dfg, mrrg = accum_hetero_orth_ii2 () in
  let proof = Cgra_satoca.Proof.create () in
  let step = IM.prepare ~proof dfg mrrg in
  let flag = Deadline.new_cancellation () in
  let cancellable = Deadline.with_cancellation Deadline.none flag in
  let answer ~deadline ~raise_flag =
    let a = IM.search ~deadline ~started:(Deadline.now ()) ~certify:true ~explain:false step in
    if raise_flag then Deadline.cancel flag;
    match a.IM.conclude () with
    | IM.Infeasible { IM.certified; evidence = Some IM.Drat; _ } -> certified
    | r -> Alcotest.failf "expected a DRAT infeasibility, got %a" IM.pp_result r
  in
  Alcotest.(check bool) "cut short: uncertified" false
    (answer ~deadline:cancellable ~raise_flag:true);
  Alcotest.(check bool) "repeat under the raised flag: still uncertified" false
    (answer ~deadline:cancellable ~raise_flag:false);
  Alcotest.(check bool) "no deadline: certified" true
    (answer ~deadline:Deadline.none ~raise_flag:false)

let test_map_certify_feasible () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 1 in
  match IM.map ~warm_start:0.0 ~certify:true dfg mrrg with
  | IM.Mapped (m, info) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      Alcotest.(check bool) "certified via the checker" true info.IM.certified
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

let test_map_infeasible_uncertified_by_default () =
  let dfg = Benchmarks.conv_2x2_f () in
  let mrrg = mrrg_of ~ii:1 2 in
  match IM.map ~warm_start:0.0 dfg mrrg with
  | IM.Infeasible info ->
      Alcotest.(check bool) "no certificate without --certify" false info.IM.certified;
      Alcotest.(check int) "no proof steps logged" 0 info.IM.proof_steps
  | r -> Alcotest.failf "expected infeasible, got %a" IM.pp_result r

(* ---------------- annealing mapper ---------------- *)

let test_anneal_maps_tiny () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 2 in
  match Anneal.map dfg mrrg with
  | Anneal.Mapped (m, st) ->
      Alcotest.(check bool) "legal" true (Check.is_legal m);
      Alcotest.(check bool) "made moves or was lucky" true (st.Anneal.moves_tried >= 0)
  | Anneal.Failed st ->
      Alcotest.failf "annealing failed on a trivial instance (cost %d)" st.Anneal.final_cost

let test_anneal_fails_on_infeasible () =
  let dfg = Benchmarks.conv_2x2_f () in
  let mrrg = mrrg_of ~ii:1 2 in
  (* 5 internal ops, 4 ALUs: impossible; the annealer must fail, not crash *)
  match Anneal.map ~deadline:(Cgra_util.Deadline.after ~seconds:5.0) dfg mrrg with
  | Anneal.Failed _ -> ()
  | Anneal.Mapped _ -> Alcotest.fail "annealer mapped an infeasible instance"

let test_anneal_deterministic_per_seed () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:1 2 in
  let run () =
    match Anneal.map ~params:{ Anneal.moderate with Anneal.seed = 7 } dfg mrrg with
    | Anneal.Mapped (m, _) -> Some (List.sort compare m.Mapping.placement)
    | Anneal.Failed _ -> None
  in
  Alcotest.(check bool) "same seed, same mapping" true (run () = run ())

(* ---------------- extraction sanity ---------------- *)

let test_extract_routes_cover_edges () =
  let dfg = Benchmarks.accum () in
  let mrrg = mrrg_of ~ii:1 4 in
  match IM.map dfg mrrg with
  | IM.Mapped (m, _) ->
      Alcotest.(check int) "one route per DFG edge" (Dfg.edge_count dfg)
        (List.length m.Mapping.routes);
      Alcotest.(check int) "all ops placed" (Dfg.node_count dfg)
        (List.length m.Mapping.placement);
      Alcotest.(check bool) "cost positive" true (Mapping.routing_cost m > 0)
  | r -> Alcotest.failf "expected mapping, got %a" IM.pp_result r

(* ---------------- configuration generation ---------------- *)

let test_configgen () =
  let m = mapped_tiny () in
  match Cgra_core.Configgen.generate m with
  | Error errs -> Alcotest.failf "configgen failed: %s" (String.concat "; " errs)
  | Ok cfg ->
      Alcotest.(check int) "one context" 1 cfg.Cgra_core.Configgen.n_contexts;
      Alcotest.(check int) "fu settings cover placement" 4
        (List.length cfg.Cgra_core.Configgen.fus);
      Alcotest.(check bool) "some mux settings" true
        (List.length cfg.Cgra_core.Configgen.muxes > 0);
      (* every selected input index is within the mux's fanin count *)
      List.iter
        (fun (s : Cgra_core.Configgen.mux_setting) ->
          let fanins = List.length (Mrrg.fanins m.Mapping.mrrg s.Cgra_core.Configgen.mux_node) in
          Alcotest.(check bool) "select in range" true
            (s.Cgra_core.Configgen.selected_input >= 0
            && s.Cgra_core.Configgen.selected_input < fanins))
        cfg.Cgra_core.Configgen.muxes;
      let text = Cgra_core.Configgen.to_string m cfg in
      Alcotest.(check bool) "printable" true (String.length text > 40)

let test_configgen_dual_context () =
  let dfg = tiny_add_dfg () in
  let mrrg = mrrg_of ~ii:2 2 in
  match IM.map dfg mrrg with
  | IM.Mapped (m, _) -> (
      match Cgra_core.Configgen.generate m with
      | Ok cfg -> Alcotest.(check int) "two contexts" 2 cfg.Cgra_core.Configgen.n_contexts
      | Error errs -> Alcotest.failf "configgen failed: %s" (String.concat "; " errs))
  | r -> Alcotest.failf "mapping failed: %a" IM.pp_result r

let test_mapping_dot () =
  let m = mapped_tiny () in
  let dot = Mapping.to_dot m in
  Alcotest.(check bool) "digraph" true (String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "has filled nodes" true
    (let needle = "style=filled" in
     let nl = String.length needle and hl = String.length dot in
     let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
     go 0)

let test_map_three_contexts () =
  (* the MRRG generalises beyond the paper's II in {1,2} *)
  let dfg =
    let b = Dfg.Builder.create () in
    let x = Dfg.Builder.add b Op.Input "x" in
    let a1 = Dfg.Builder.add b Op.Add "a1" in
    Dfg.Builder.connect b ~src:x ~dst:a1 ~operand:0;
    Dfg.Builder.connect b ~src:x ~dst:a1 ~operand:1;
    let a2 = Dfg.Builder.add b Op.Mul "a2" in
    Dfg.Builder.connect b ~src:a1 ~dst:a2 ~operand:0;
    Dfg.Builder.connect b ~src:a1 ~dst:a2 ~operand:1;
    let a3 = Dfg.Builder.add b Op.Sub "a3" in
    Dfg.Builder.connect b ~src:a2 ~dst:a3 ~operand:0;
    Dfg.Builder.connect b ~src:x ~dst:a3 ~operand:1;
    let o = Dfg.Builder.add b Op.Output "o" in
    Dfg.Builder.connect b ~src:a3 ~dst:o ~operand:0;
    Dfg.Builder.freeze b
  in
  (* 1x2 grid: two ALUs; three ALU ops are infeasible spatially but fit
     once extra contexts multiply the execution slots *)
  let strip ii =
    Build.elaborate (Library.make { Library.default with Library.rows = 1; cols = 2 }) ~ii
  in
  (match IM.map dfg (strip 1) with
  | IM.Infeasible _ -> ()
  | r -> Alcotest.failf "ii=1 should be infeasible, got %a" IM.pp_result r);
  let rec first_feasible = function
    | [] -> Alcotest.fail "no context count up to 6 suffices"
    | ii :: rest -> (
        match IM.map dfg (strip ii) with
        | IM.Mapped (m, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "legal at ii=%d" ii)
              true (Check.is_legal m);
            Alcotest.(check bool) "needed more than one context" true (ii >= 2)
        | IM.Infeasible _ -> first_feasible rest
        | r -> Alcotest.failf "unexpected %a" IM.pp_result r)
  in
  first_feasible [ 2; 3; 4; 5; 6 ]

let suites =
  [
    ( "core:formulation",
      [
        Alcotest.test_case "candidate legality" `Quick test_candidates_legality;
        Alcotest.test_case "model sizes and pruning" `Quick test_formulation_sizes;
        Alcotest.test_case "objective rows" `Quick test_formulation_objective_rows;
        Alcotest.test_case "pinned counts (mac 4x4)" `Quick test_formulation_pinned_counts;
        Alcotest.test_case "matches reference builder" `Quick
          test_formulation_matches_reference;
      ] );
    ( "core:examples",
      [
        Alcotest.test_case "example 1: implied placement" `Quick
          test_example1_routing_implies_placement;
        Alcotest.test_case "example 2: loops prevented" `Quick test_example2_loops_prevented;
        Alcotest.test_case "example 3: sub-values" `Quick test_example3_subvalues;
      ] );
    ( "core:mapper",
      [
        Alcotest.test_case "tiny on 1x1" `Quick test_map_tiny_1x1;
        Alcotest.test_case "infeasible: capacity" `Quick test_map_infeasible_too_many_ops;
        Alcotest.test_case "infeasible: no candidate" `Quick test_map_no_candidate_infeasible;
        Alcotest.test_case "self-loop accumulator" `Quick test_map_self_loop_accumulator;
        Alcotest.test_case "timeout" `Quick test_map_timeout;
        Alcotest.test_case "warm start honours the deadline" `Quick
          test_map_warm_start_honours_deadline;
        Alcotest.test_case "dual context" `Quick test_map_dual_context_uses_both;
        Alcotest.test_case "extraction covers edges" `Quick test_extract_routes_cover_edges;
      ] );
    ( "core:objective",
      [
        Alcotest.test_case "optimise reduces cost" `Quick test_optimize_reduces_cost;
        Alcotest.test_case "engines agree on optimum" `Quick test_optimal_cost_engine_agreement;
        Alcotest.test_case "weighted objective" `Quick test_weighted_objective;
        Alcotest.test_case "prune equivalence" `Quick test_prune_equivalence;
      ] );
    ( "core:check",
      [
        Alcotest.test_case "detects unplaced op" `Quick test_check_detects_unplaced;
        Alcotest.test_case "detects illegal host" `Quick test_check_detects_bad_fu;
        Alcotest.test_case "detects broken route" `Quick test_check_detects_broken_route;
        Alcotest.test_case "detects shared node" `Quick test_check_detects_shared_node;
        Alcotest.test_case "double-booked FU diagnostic" `Quick test_check_double_booked_fu;
        Alcotest.test_case "dropped route edge diagnostic" `Quick
          test_check_dropped_route_edge_diagnostic;
        Alcotest.test_case "shared node diagnostic" `Quick test_check_shared_node_diagnostic;
      ] );
    ( "core:certify",
      [
        Alcotest.test_case "infeasible carries checked DRAT" `Quick test_map_certify_infeasible;
        Alcotest.test_case "a cut-short DRAT replay is not recorded" `Quick
          test_cut_replay_not_recorded;
        Alcotest.test_case "feasible certified by checker" `Quick test_map_certify_feasible;
        Alcotest.test_case "uncertified by default" `Quick
          test_map_infeasible_uncertified_by_default;
      ] );
    ( "core:anneal",
      [
        Alcotest.test_case "maps tiny" `Quick test_anneal_maps_tiny;
        Alcotest.test_case "fails on infeasible" `Quick test_anneal_fails_on_infeasible;
        Alcotest.test_case "deterministic per seed" `Quick test_anneal_deterministic_per_seed;
      ] );
    ( "core:config",
      [
        Alcotest.test_case "configuration generation" `Quick test_configgen;
        Alcotest.test_case "dual-context configuration" `Quick test_configgen_dual_context;
        Alcotest.test_case "mapping dot overlay" `Quick test_mapping_dot;
        Alcotest.test_case "three contexts" `Quick test_map_three_contexts;
      ] );
  ]
