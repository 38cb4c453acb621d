(* Hall's theorem over operation placement: the search, its witness
   and counting checkers, and the minimality flips, on the Table-2
   cells the step decides and on random bipartite instances. *)

module Dfg = Cgra_dfg.Dfg
module Op = Cgra_dfg.Op
module Benchmarks = Cgra_dfg.Benchmarks
module Library = Cgra_arch.Library
module Mrrg = Cgra_mrrg.Mrrg
module Build = Cgra_mrrg.Build
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module Conn = Cgra_core.Conn
module Model = Cgra_ilp.Model
module Solver_spec = Cgra_core.Solver_spec
module Hall = Cgra_core.Hall
module IM = Cgra_core.Ilp_mapper

let paper_mrrg ~arch ~size ~ii =
  Build.elaborate (Library.make (Option.get (Library.find_config ~size arch))) ~ii

(* mac on the 2x2 homogeneous orthogonal array: five ALU operations
   for four ALUs *)
let mac_cell () =
  let dfg = Benchmarks.mac () in
  let mrrg = paper_mrrg ~arch:"homo-orth" ~size:2 ~ii:1 in
  match Hall.search dfg mrrg with
  | Some d -> (dfg, mrrg, d)
  | None -> Alcotest.fail "mac@homo-orth-2x2/ii1 should fail Hall's condition"

let paper = Option.get (Formulation_intf.find Formulation_intf.default_name)

let rejected what = function
  | Ok () -> Alcotest.failf "%s: corrupted witness accepted" what
  | Error _ -> ()

let test_witness_accepted () =
  let dfg, mrrg, d = mac_cell () in
  let w = Hall.witness d in
  Alcotest.(check (result unit string)) "witness checks" (Ok ()) (Hall.check_witness dfg mrrg w);
  Alcotest.(check int) "|N(S)| = |S| - 1" (List.length w.Hall.ops - 1) (List.length w.Hall.fus)

let test_witness_corruptions () =
  let dfg, mrrg, d = mac_cell () in
  let w = Hall.witness d in
  rejected "an FU dropped from N(S)"
    (Hall.check_witness dfg mrrg { w with Hall.fus = List.tl w.Hall.fus });
  (* an input pad runs only on I/O slots, none of which is in N(S) *)
  let pad =
    List.find (fun (n : Dfg.node) -> n.Dfg.op = Op.Input) (Dfg.nodes dfg)
  in
  (match Hall.check_witness dfg mrrg { w with Hall.ops = pad.Dfg.id :: w.Hall.ops } with
  | Error msg ->
      Alcotest.(check bool) "names the FU outside N(S)" true
        (Astring.String.is_infix ~affix:"outside N(S)" msg)
  | Ok () -> Alcotest.fail "an op with a capable FU outside N(S) accepted");
  (match Hall.check_witness dfg mrrg { w with Hall.ops = List.tl w.Hall.ops } with
  | Error msg ->
      Alcotest.(check bool) "names the count" true
        (Astring.String.is_infix ~affix:"is not below" msg)
  | Ok () -> Alcotest.fail "|N(S)| = |S| accepted");
  rejected "an empty S" (Hall.check_witness dfg mrrg { Hall.ops = []; fus = [] })

let test_zero_candidates () =
  (* a multiply on a fabric with no multiplier: S = {m}, N(S) = {} *)
  let dfg =
    let b = Dfg.Builder.create ~name:"nomul" () in
    let x = Dfg.Builder.add b Op.Input "x" in
    let m = Dfg.Builder.add b Op.Mul "m" in
    Dfg.Builder.connect b ~src:x ~dst:m ~operand:0;
    Dfg.Builder.connect b ~src:x ~dst:m ~operand:1;
    let o = Dfg.Builder.add b Op.Output "o" in
    Dfg.Builder.connect b ~src:m ~dst:o ~operand:0;
    Dfg.Builder.freeze b
  in
  let mrrg =
    let b = Mrrg.Builder.create ~ii:1 in
    ignore (Mrrg.Builder.add_node b ~name:"c0.in" ~ctx:0 ~kind:(Mrrg.Func [ Op.Input ]) ());
    ignore (Mrrg.Builder.add_node b ~name:"c0.alu" ~ctx:0 ~kind:(Mrrg.Func [ Op.Add ]) ());
    ignore (Mrrg.Builder.add_node b ~name:"c0.out" ~ctx:0 ~kind:(Mrrg.Func [ Op.Output ]) ());
    Mrrg.Builder.freeze b
  in
  (match Option.map Hall.witness (Hall.search dfg mrrg) with
  | Some w ->
      Alcotest.(check (list int)) "S = {m}" [ 1 ] w.Hall.ops;
      Alcotest.(check (list int)) "N(S) empty" [] w.Hall.fus
  | None -> Alcotest.fail "an op with no capable FU passed Hall's condition");
  match IM.map ~warm_start:0.0 ~certify:true ~explain:true dfg mrrg with
  | IM.Infeasible { IM.diagnosis = Some d; evidence = Some IM.Hall; certified = true; _ } ->
      Alcotest.(check (list string)) "core" [ "place:m" ] d.IM.core;
      Alcotest.(check bool) "verified" true d.IM.core_verified;
      Alcotest.(check bool) "minimal" true d.IM.core_minimized
  | r -> Alcotest.failf "expected a certified, explained Hall answer, got %a" IM.pp_result r

let test_counting_rejects_missing_excl () =
  let dfg, mrrg, d = mac_cell () in
  let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
  let model = f.Formulation.model in
  let core = Hall.core_groups dfg mrrg (Hall.witness d) in
  Alcotest.(check (result unit string))
    "full core refuted" (Ok ()) (Hall.check_counting model core);
  let excl =
    List.filter
      (fun g ->
        match Formulation.group_subject g with
        | Some (Formulation.Exclusivity _) -> true
        | _ -> false)
      core
  in
  Alcotest.(check bool) "core has excl groups" true (excl <> []);
  List.iter
    (fun g ->
      match Hall.check_counting model (List.filter (( <> ) g) core) with
      | Ok () -> Alcotest.failf "core without %s still accepted" g
      | Error _ -> ())
    excl;
  Alcotest.(check bool) "relaxations show it minimal" true
    (Hall.check_relaxations model ~placement_var:(Formulation.placement_var f) core
       (Hall.relaxations dfg mrrg d));
  (* a relaxation that keeps every group cannot satisfy the core *)
  let relax = Hall.relaxations dfg mrrg d in
  Alcotest.(check bool) "a relaxation with the wrong group is rejected" false
    (Hall.check_relaxations model ~placement_var:(Formulation.placement_var f) core
       (List.map (fun (_, pairs) -> ("none", pairs)) relax))

let test_checkers_never_search () =
  let dfg, mrrg, d = mac_cell () in
  let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
  let model = f.Formulation.model in
  let w = Hall.witness d in
  let core = Hall.core_groups dfg mrrg w in
  let relax = Hall.relaxations dfg mrrg d in
  let before = Hall.searches () in
  ignore (Hall.check_witness dfg mrrg w);
  ignore (Hall.check_witness dfg mrrg { w with Hall.fus = [] });
  ignore (Hall.check_counting model core);
  ignore (Hall.check_relaxations model ~placement_var:(Formulation.placement_var f) core relax);
  Alcotest.(check int) "no search ran" before (Hall.searches ())

(* ---------------- the placement model an explained answer reads ---------------- *)

let conn = Option.get (Formulation_intf.find "conn")

(* A row as both formulations render it. *)
let rendered model i =
  let r = Model.row model i in
  (Model.row_name model i, r.Model.group, r.Model.terms, r.Model.sense, r.Model.rhs)

let test_placement_rows_lead () =
  List.iter
    (fun (dfg, mrrg) ->
      let place = Formulation.build_placement dfg mrrg in
      let pm = place.Formulation.model in
      Alcotest.(check int) "one variable per placement" (Hashtbl.length place.Formulation.f_vars)
        (Model.nvars pm);
      List.iter
        (fun (impl : Formulation_intf.impl) ->
          let full =
            (impl.Formulation_intf.build ~objective:Formulation.Feasibility dfg mrrg)
              .Formulation_intf.model
          in
          Alcotest.(check bool) (impl.Formulation_intf.name ^ " has more rows") true
            (Model.nrows full > Model.nrows pm);
          for v = 0 to Model.nvars pm - 1 do
            if Model.var_name pm v <> Model.var_name full v
               || Model.branch_priority pm v <> Model.branch_priority full v
               || Model.branch_phase pm v <> Model.branch_phase full v
            then Alcotest.failf "%s: variable %d differs" impl.Formulation_intf.name v
          done;
          for i = 0 to Model.nrows pm - 1 do
            if rendered pm i <> rendered full i then
              Alcotest.failf "%s: row %d (%s) differs" impl.Formulation_intf.name i
                (Model.row_name pm i)
          done)
        [ paper; conn ])
    [
      (let dfg, mrrg, _ = mac_cell () in
       (dfg, mrrg));
      (Benchmarks.mult_10 (), paper_mrrg ~arch:"hetero-orth" ~size:4 ~ii:1);
      (Benchmarks.accum (), paper_mrrg ~arch:"hetero-orth" ~size:2 ~ii:2);
    ]

(* Every cell of the 2x2 Table-2 slice the Hall step refutes, and the
   4x4 CI cell. *)
let hall_cells () =
  let slice =
    List.concat_map
      (fun (arch, _) ->
        List.concat_map
          (fun ii ->
            let mrrg = paper_mrrg ~arch ~size:2 ~ii in
            List.map
              (fun (name, make) -> (Printf.sprintf "%s@%s-2x2/%d" name arch ii, make (), mrrg))
              Benchmarks.all)
          [ 1; 2 ])
      (Library.paper_configs ~size:2)
  in
  List.filter_map
    (fun (label, dfg, mrrg) -> Option.map (fun d -> (label, dfg, mrrg, d)) (Hall.search dfg mrrg))
    (slice
    @ [
        ( "mult_10@hetero-orth-4x4/1",
          Benchmarks.mult_10 (),
          paper_mrrg ~arch:"hetero-orth" ~size:4 ~ii:1 );
      ])

(* The core an explained Hall answer reports is the witness's groups
   (what the full-model check reported too), under either solver, and
   the counting and relaxation checks accept it on the placement model
   and on both full models alike. *)
let test_hall_cores_differential () =
  let cells = hall_cells () in
  Alcotest.(check bool) "the slice has Hall cells" true (List.length cells > 100);
  List.iter
    (fun (label, dfg, mrrg, d) ->
      let groups = Hall.core_groups dfg mrrg (Hall.witness d) in
      let relax = Hall.relaxations dfg mrrg d in
      List.iter
        (fun name ->
          let solver = Result.get_ok (Solver_spec.of_name name) in
          match IM.map ~solver ~warm_start:0.0 ~certify:true ~explain:true dfg mrrg with
          | IM.Infeasible
              { IM.diagnosis = Some dg; evidence = Some IM.Hall; certified = true; size; _ } ->
              Alcotest.(check (list string)) (label ^ " " ^ name ^ " core") groups dg.IM.core;
              if not (dg.IM.core_verified && dg.IM.core_minimized) then
                Alcotest.failf "%s %s: core not verified and minimal" label name;
              if size.Formulation.n_r <> 0 || size.Formulation.n_rk <> 0 then
                Alcotest.failf "%s %s: routing variables built" label name
          | r -> Alcotest.failf "%s %s: %a" label name IM.pp_result r)
        [ "native-sat"; "conn-sat" ];
      let of_formulation (f : Formulation.t) = (f.Formulation.model, Formulation.placement_var f) in
      let c = Conn.build ~objective:Formulation.Feasibility dfg mrrg in
      List.iter
        (fun (what, (model, placement_var)) ->
          if Hall.check_counting model groups <> Ok () then
            Alcotest.failf "%s: counting rejects the core on the %s model" label what;
          if not (Hall.check_relaxations model ~placement_var groups relax) then
            Alcotest.failf "%s: relaxations rejected on the %s model" label what)
        [
          ("placement", of_formulation (Formulation.build_placement dfg mrrg));
          ("paper", of_formulation (Formulation.build ~objective:Formulation.Feasibility dfg mrrg));
          ("conn", (c.Conn.model, fun ~op ~fu -> Hashtbl.find_opt c.Conn.f_vars (fu, op)));
        ])
    cells

(* ---------------- random bipartite instances ---------------- *)

(* Operation q (0-based) has kind [kinds.(q)]; FU p supports the kinds
   in [supports.(p)].  The DFG feeds every operand from one input pad,
   which is operation 0 and takes part in the matching too. *)
type instance = { kinds : Op.t array; supports : Op.t list array }

let realise inst =
  let b = Dfg.Builder.create ~name:"bip" () in
  let src = Dfg.Builder.add b Op.Input "src" in
  Array.iteri
    (fun q k ->
      if q > 0 then begin
        let id = Dfg.Builder.add b k (Printf.sprintf "q%d" q) in
        for o = 0 to Op.arity k - 1 do
          Dfg.Builder.connect b ~src ~dst:id ~operand:o
        done
      end)
    inst.kinds;
  let mb = Mrrg.Builder.create ~ii:1 in
  Array.iteri
    (fun p ops ->
      ignore
        (Mrrg.Builder.add_node mb ~name:(Printf.sprintf "c0.fu%d" p) ~ctx:0
           ~kind:(Mrrg.Func ops) ()))
    inst.supports;
  (Dfg.Builder.freeze b, Mrrg.Builder.freeze mb)

let capable inst q p = List.mem inst.kinds.(q) inst.supports.(p)

let brute_force_matches inst =
  let n = Array.length inst.kinds and m = Array.length inst.supports in
  let used = Array.make m false in
  let rec place q =
    q = n
    || List.exists
         (fun p ->
           (not used.(p)) && capable inst q p
           && begin
                used.(p) <- true;
                let ok = place (q + 1) in
                used.(p) <- false;
                ok
              end)
         (List.init m Fun.id)
  in
  place 0

let gen_instance =
  let open QCheck.Gen in
  let kinds = [| Op.Input; Op.Const; Op.Add; Op.Mul; Op.Output |] in
  let* n = int_range 1 5 in
  let* m = int_range 0 5 in
  let* rest = array_size (return n) (oneofa kinds) in
  let* supports =
    array_size (return m)
      (map (fun mask -> List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list kinds))
         (int_bound 31))
  in
  return { kinds = Array.append [| Op.Input |] rest; supports }

let print_instance inst =
  Printf.sprintf "ops [%s]; fus [%s]"
    (String.concat "; " (Array.to_list (Array.map Op.to_string inst.kinds)))
    (String.concat "; "
       (Array.to_list
          (Array.map (fun ops -> "{" ^ String.concat "," (List.map Op.to_string ops) ^ "}")
             inst.supports)))

(* Each relaxation is a placement of S onto N(S) along capable edges:
   without place:q, S - q one to one; without excl:p, all of S with
   only p used twice. *)
let relaxations_well_formed inst dfg mrrg d =
  let w = Hall.witness d in
  let name_of_fu p = (Mrrg.node mrrg p).Mrrg.name in
  List.for_all
    (fun (group, pairs) ->
      let ops = List.map fst pairs and fus = List.map snd pairs in
      let distinct l = List.length (List.sort_uniq compare l) = List.length l in
      List.for_all (fun (q, p) -> capable inst q p && List.mem p w.Hall.fus) pairs
      && distinct ops
      &&
      match Cgra_core.Formulation.group_subject group with
      | Some (Cgra_core.Formulation.Placement op) ->
          let q = (Option.get (Dfg.find dfg op)).Dfg.id in
          List.sort compare ops = List.filter (( <> ) q) w.Hall.ops && distinct fus
      | Some (Cgra_core.Formulation.Exclusivity node) ->
          List.sort compare ops = w.Hall.ops
          && List.length (List.filter (fun p -> name_of_fu p = node) fus) = 2
          && distinct (List.filter (fun p -> name_of_fu p <> node) fus)
      | _ -> false)
    (Hall.relaxations dfg mrrg d)

let prop_hall_iff_no_matching =
  QCheck.Test.make ~count:500 ~name:"Hall deficiency iff brute force finds no matching"
    (QCheck.make ~print:print_instance gen_instance)
    (fun inst ->
      let dfg, mrrg = realise inst in
      match Hall.search dfg mrrg with
      | None -> brute_force_matches inst
      | Some d ->
          let w = Hall.witness d in
          (not (brute_force_matches inst))
          && Hall.check_witness dfg mrrg w = Ok ()
          && List.length w.Hall.fus = List.length w.Hall.ops - 1
          && relaxations_well_formed inst dfg mrrg d)

let suites =
  [
    ( "core:hall",
      [
        Alcotest.test_case "witness of a Table-2 cell checks" `Quick test_witness_accepted;
        Alcotest.test_case "corrupted witnesses rejected" `Quick test_witness_corruptions;
        Alcotest.test_case "zero candidates: S = {q}, core place:q" `Quick test_zero_candidates;
        Alcotest.test_case "counting rejects a core missing an excl row" `Quick
          test_counting_rejects_missing_excl;
        Alcotest.test_case "checkers call no search" `Quick test_checkers_never_search;
        Alcotest.test_case "placement rows lead both formulations" `Quick
          test_placement_rows_lead;
        Alcotest.test_case "Hall cores: 2x2 slice, both solvers, all models" `Slow
          test_hall_cores_differential;
      ] );
    ("core:hall:properties", [ QCheck_alcotest.to_alcotest prop_hall_iff_no_matching ]);
  ]
