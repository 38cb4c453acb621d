module Deadline = Cgra_util.Deadline
module Solve = Cgra_ilp.Solve
module Unsat_core = Cgra_ilp.Unsat_core
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Backend = Cgra_backend.Backend

type diagnosis = {
  core : string list;
  core_minimized : bool;
  core_verified : bool;
  core_sat_calls : int;
  conflict_ops : string list;
  conflict_values : string list;
  conflict_resources : string list;
}

type info = {
  size : Formulation.size;
  solve_seconds : float;
  build_seconds : float;
  build_phases : (string * float) list;
  objective_value : int option;
  proven_optimal : bool;
  sat_calls : int;
  certified : bool;
  proof_steps : int;
  inprocess : (string * int) list;
  diagnosis : diagnosis option;
}

type result = Mapped of Mapping.t * info | Infeasible of info | Timeout of info

(* Certify a group core and translate it back into mapping vocabulary:
   which operations, values and resources the blame falls on.  The
   certificate is a DRAT-checked refutation of the core's rows alone,
   logged into [proof] when given.  Group-label vocabulary is shared across
   formulations (see Formulation_intf), so the parse below works for
   any registered formulation. *)
let diagnose ?deadline ?proof (f : Formulation_intf.built) (core : Unsat_core.core) =
  let verified =
    match Unsat_core.check ?deadline ?proof f.Formulation_intf.model core.Unsat_core.groups with
    | Some true -> true
    | Some false ->
        failwith "Ilp_mapper: extracted core is satisfiable on its own (bug)"
    | None -> false
  in
  let ops = ref [] and values = ref [] and resources = ref [] in
  List.iter
    (fun label ->
      match Formulation.group_subject label with
      | Some (Formulation.Placement op) -> ops := op :: !ops
      | Some (Formulation.Exclusivity node) -> resources := node :: !resources
      | Some (Formulation.Routing j) ->
          values := f.Formulation_intf.describe_value j :: !values
      | None -> ())
    core.Unsat_core.groups;
  {
    core = core.Unsat_core.groups;
    core_minimized = core.Unsat_core.minimized;
    core_verified = verified;
    core_sat_calls = core.Unsat_core.sat_calls;
    conflict_ops = List.rev !ops;
    conflict_values = List.rev !values;
    conflict_resources = List.rev !resources;
  }

let map ?(objective = Formulation.Feasibility) ?(solver = Solver_spec.default) ?deadline ?cancel
    ?(warm_start = 5.0) ?(certify = false) ?(explain = false) dfg mrrg =
  let attach d = match cancel with None -> d | Some f -> Deadline.with_cancellation d f in
  let deadline = Option.map attach deadline in
  let deadline =
    match (deadline, cancel) with
    | None, Some _ -> Some (attach Deadline.none)
    | d, _ -> d
  in
  let t0 = Deadline.now () in
  let f = solver.Solver_spec.formulation.Formulation_intf.build ~objective dfg mrrg in
  let build_phases = f.Formulation_intf.phases in
  (* phase hints mean nothing to a subprocess solver *)
  let warm_start =
    match solver.Solver_spec.engine with
    | Solver_spec.External _ -> 0.0
    | Solver_spec.Native _ -> (
        (* the anneal spends the call's own budget, never more *)
        match Option.bind deadline Deadline.remaining with
        | Some left -> Float.min warm_start left
        | None -> warm_start)
  in
  if warm_start > 0.0 then begin
    let params = if warm_start >= 20.0 then Anneal.thorough else Anneal.moderate in
    match
      Anneal.map ~params ~deadline:(attach (Deadline.after ~seconds:warm_start)) dfg mrrg
    with
    | Anneal.Mapped (m, _) -> f.Formulation_intf.warm m
    | Anneal.Failed _ -> ()
  end;
  let build_seconds = Deadline.elapsed_of ~start:t0 in
  let model = f.Formulation_intf.model in
  let proof = if certify then Some (Proof.create ()) else None in
  let report =
    match solver.Solver_spec.engine with
    | Solver_spec.Native engine ->
        (* under [explain] the certificate is the core's own refutation
           (see [diagnose]), so the verdict solve logs nothing *)
        let proof = if explain then None else proof in
        Solve.solve_report ?deadline ~engine ?proof model
    | Solver_spec.External b ->
        (* LP export, subprocess, replayed solution (see
           {!Cgra_backend.Milp_adapter}); no DRAT trace exists, so an
           external Infeasible is certified only through its core *)
        let t0 = Deadline.now () in
        let outcome = b.Backend.solve ?deadline model in
        let solve_seconds = Deadline.elapsed_of ~start:t0 in
        { Solve.outcome; solve_seconds; sat_calls = 0; inprocess = [] }
  in
  let info ?diagnosis ~objective_value ~proven_optimal ~certified () =
    {
      size = f.Formulation_intf.size;
      solve_seconds = report.Solve.solve_seconds;
      build_seconds;
      build_phases;
      objective_value;
      proven_optimal;
      sat_calls = report.Solve.sat_calls;
      certified;
      proof_steps = (match proof with Some p -> Proof.n_steps p | None -> 0);
      inprocess = report.Solve.inprocess;
      diagnosis;
    }
  in
  match report.Solve.outcome with
  | Solve.Infeasible when explain ->
      (* The core's DRAT-checked refutation verifies the core and, a
         subset of the model's rows being refuted, certifies the verdict
         too.  A deadline hit during extraction or its check leaves the
         verdict uncertified. *)
      let diagnosis =
        match Unsat_core.extract ?deadline ~minimize:true model with
        | Unsat_core.Core core -> Some (diagnose ?deadline ?proof f core)
        | Unsat_core.Satisfiable ->
            failwith
              (Printf.sprintf "Ilp_mapper: core extraction refuted %s's infeasibility"
                 solver.Solver_spec.name)
        | Unsat_core.Unknown -> None
      in
      let certified =
        certify && match diagnosis with Some d -> d.core_verified | None -> false
      in
      Infeasible (info ?diagnosis ~objective_value:None ~proven_optimal:true ~certified ())
  | Solve.Infeasible ->
      (* A certified infeasibility must carry a complete DRAT refutation
         that the independent checker accepts — the negative-verdict
         twin of the Check.run pass below. *)
      let certified =
        match proof with
        | None -> false
        | Some p ->
            Proof.has_empty_clause p
            &&
            (match Drat.check p with
            | Drat.Valid -> true
            | Drat.Invalid msg ->
                failwith
                  (Printf.sprintf
                     "Ilp_mapper: solver produced an invalid DRAT certificate (bug): %s" msg))
      in
      Infeasible (info ~objective_value:None ~proven_optimal:true ~certified ())
  | Solve.Timeout ->
      Timeout (info ~objective_value:None ~proven_optimal:false ~certified:false ())
  | Solve.Optimal (assign, obj) | Solve.Feasible (assign, obj) ->
      let proven_optimal =
        match report.Solve.outcome with Solve.Optimal _ -> true | _ -> false
      in
      let mapping = f.Formulation_intf.extract assign in
      (match Check.run mapping with
      | Ok () -> ()
      | Error errs ->
          failwith
            (Printf.sprintf "Ilp_mapper: %s returned a mapping the independent checker rejects: %s"
               solver.Solver_spec.name (String.concat "; " errs)));
      let objective_value =
        match objective with Formulation.Feasibility -> None | _ -> Some obj
      in
      (* Check.run just accepted the mapping: the positive verdict is
         certified by construction, whether or not proof logging ran. *)
      Mapped (mapping, info ~objective_value ~proven_optimal ~certified:true ())

let pp_diagnosis fmt d =
  let plural = function [ _ ] -> "" | _ -> "s" in
  Format.fprintf fmt "@[<v>unsat core (%d group%s, %s%s, %d SAT calls):@,"
    (List.length d.core) (plural d.core)
    (if d.core_minimized then "minimal" else "not minimized")
    (if d.core_verified then ", verified" else "")
    d.core_sat_calls;
  List.iter (fun g -> Format.fprintf fmt "  %s@," g) d.core;
  let section title = function
    | [] -> ()
    | items ->
        Format.fprintf fmt "%s:@," title;
        List.iter (fun s -> Format.fprintf fmt "  %s@," s) items
  in
  section "conflicting operations" d.conflict_ops;
  section "conflicting values" d.conflict_values;
  section "contended resources" d.conflict_resources;
  Format.fprintf fmt "@]"

let result_feasible = function Mapped _ -> true | Infeasible _ | Timeout _ -> false

let pp_result fmt = function
  | Mapped (m, info) ->
      Format.fprintf fmt "mapped (cost %d%s, %.2fs)" (Mapping.routing_cost m)
        (if info.proven_optimal && info.objective_value <> None then ", optimal" else "")
        info.solve_seconds
  | Infeasible info -> Format.fprintf fmt "infeasible (proven, %.2fs)" info.solve_seconds
  | Timeout info -> Format.fprintf fmt "timeout (%.2fs)" info.solve_seconds
