module Deadline = Cgra_util.Deadline
module Solve = Cgra_ilp.Solve
module Unsat_core = Cgra_ilp.Unsat_core
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Backend = Cgra_backend.Backend
module Encode = Cgra_ilp.Encode
module Solver = Cgra_satoca.Solver

type diagnosis = {
  core : string list;
  core_minimized : bool;
  core_verified : bool;
  core_sat_calls : int;
  conflict_ops : string list;
  conflict_values : string list;
  conflict_resources : string list;
}

type evidence = Hall | Drat

let evidence_name = function Hall -> "hall" | Drat -> "drat"

type info = {
  size : Formulation.size;
  solve_seconds : float;
  build_seconds : float;
  objective_value : int option;
  proven_optimal : bool;
  sat_calls : int;
  certified : bool;
  proof_steps : int;
  diagnosis : diagnosis option;
  evidence : evidence option;
}

type result = Mapped of Mapping.t * info | Infeasible of info | Timeout of info

(* A group core in mapping vocabulary: which operations, values and
   resources the blame falls on.  Group-label vocabulary is shared
   across formulations (see Formulation_intf), so the parse below
   works for either formulation. *)
let diagnosis_of ~describe_value ~groups ~minimized ~verified ~sat_calls =
  let ops = ref [] and values = ref [] and resources = ref [] in
  List.iter
    (fun label ->
      match Formulation.group_subject label with
      | Some (Formulation.Placement op) -> ops := op :: !ops
      | Some (Formulation.Exclusivity node) -> resources := node :: !resources
      | Some (Formulation.Routing j) ->
          values := describe_value j :: !values
      | None -> ())
    groups;
  {
    core = groups;
    core_minimized = minimized;
    core_verified = verified;
    core_sat_calls = sat_calls;
    conflict_ops = List.rev !ops;
    conflict_values = List.rev !values;
    conflict_resources = List.rev !resources;
  }

(* Certify an extracted core: a DRAT-checked refutation of the core's
   rows alone, logged into [proof] when given. *)
let diagnose ?deadline ?proof (f : Formulation_intf.built) (core : Unsat_core.core) =
  let verified =
    match Unsat_core.check ?deadline ?proof f.Formulation_intf.model core.Unsat_core.groups with
    | Some true -> true
    | Some false ->
        failwith "Ilp_mapper: extracted core is satisfiable on its own (bug)"
    | None -> false
  in
  diagnosis_of ~describe_value:f.Formulation_intf.describe_value ~groups:core.Unsat_core.groups
    ~minimized:core.Unsat_core.minimized ~verified
    ~sat_calls:core.Unsat_core.sat_calls

(* Under [explain] the certificate is the core's own refutation (see
   [verdict]), so only a certified unexplained verdict needs the solve
   that decided it to log a proof. *)
let verdict_solve_needs_proof ~certify ~explain = certify && not explain

(* A certified infeasibility must carry a complete DRAT refutation that
   the independent checker accepts: the negative-verdict twin of the
   Check.run pass in [verdict].  A replay the deadline cuts short
   certifies nothing. *)
let check_refutation ?(deadline = Deadline.none) p =
  Proof.has_empty_clause p
  &&
  match Drat.check_until ~deadline p with
  | Drat.Finished Drat.Valid -> true
  | Drat.Unfinished -> false
  | Drat.Finished (Drat.Invalid msg) ->
      failwith
        (Printf.sprintf "Ilp_mapper: solver produced an invalid DRAT certificate (bug): %s" msg)

(* The verdict an answer concludes with on an engine's report.  The
   refutation checker is given: a resident step reuses what its last
   check accepted. *)
let verdict ?deadline ?proof ~check_refutation ~certify ~explain ~objective ~solver
    ~build_seconds (f : Formulation_intf.built) (report : Solve.report) =
  if Option.is_some proof <> verdict_solve_needs_proof ~certify ~explain then
    invalid_arg "Ilp_mapper.verdict: a solve proof goes with certify and without explain";
  let model = f.Formulation_intf.model in
  let proof = if certify && explain then Some (Proof.create ()) else proof in
  let info ?diagnosis ~objective_value ~proven_optimal ~certified () =
    {
      size = f.Formulation_intf.size;
      solve_seconds = report.Solve.solve_seconds;
      build_seconds;
      objective_value;
      proven_optimal;
      sat_calls = report.Solve.sat_calls;
      certified;
      proof_steps = (match proof with Some p -> Proof.n_steps p | None -> 0);
      diagnosis;
      evidence =
        (match report.Solve.outcome with Solve.Infeasible -> Some Drat | _ -> None);
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
      let certified = match proof with None -> false | Some p -> check_refutation p in
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

(* The Hall step's answer (see Hall): an infeasibility decided by a
   checked witness before any engine runs.  Under [explain] the
   placement model [core_model] (constraints (1)-(2), the leading rows
   of either formulation) is there for the core's sake only: the
   counting certificate verifies the core against those rows, and one
   checked assignment per group, each an alternating-path flip, shows
   it minimal. *)
let hall_verdict ~started ~certify ~build_seconds ~core_model dfg mrrg d =
  let w = Hall.witness d in
  (match Hall.check_witness dfg mrrg w with
  | Ok () -> ()
  | Error msg -> failwith ("Ilp_mapper: the Hall witness fails its checker (bug): " ^ msg));
  let diagnosis =
    Option.map
      (fun (f : Formulation.t) ->
        let model = f.Formulation.model in
        let groups = Hall.core_groups dfg mrrg w in
        diagnosis_of ~describe_value:(Formulation.value_description f) ~groups
          ~verified:(Result.is_ok (Hall.check_counting model groups))
          ~minimized:
            (Hall.check_relaxations model ~placement_var:(Formulation.placement_var f) groups
               (Hall.relaxations dfg mrrg d))
          ~sat_calls:0)
      core_model
  in
  Infeasible
    {
      size =
        (match core_model with
        | Some f -> Formulation.size f
        | None -> { Formulation.n_f = 0; n_r = 0; n_rk = 0; n_rows = 0 });
      solve_seconds = Deadline.elapsed_of ~start:started -. build_seconds;
      build_seconds;
      objective_value = None;
      proven_optimal = true;
      sat_calls = 0;
      certified = (certify && match diagnosis with Some d -> d.core_verified | None -> true);
      proof_steps = 0;
      diagnosis;
      evidence = Some Hall;
    }

let solve_built ?deadline ~(solver : Solver_spec.t) (f : Formulation_intf.built) =
  match solver.Solver_spec.engine with
  | Solver_spec.Native -> Solve.solve_report ?deadline f.Formulation_intf.model
  | Solver_spec.External b ->
      (* LP export, subprocess, replayed solution (see
         {!Cgra_backend.Milp_adapter}); no DRAT trace exists, so an
         external Infeasible is certified only through its core *)
      let t0 = Deadline.now () in
      let outcome = b.Backend.solve ?deadline f.Formulation_intf.model in
      let solve_seconds = Deadline.elapsed_of ~start:t0 in
      { Solve.outcome; solve_seconds; sat_calls = 0; stats = Solver.zero_stats }

(* One II's answer state.  A cell the Hall step refutes keeps its
   deficiency and, once an explained answer asked for it, the
   placement model its core is checked against; any other cell keeps
   its built model and, on the native engine, the encoding each search
   resumes. *)
type state =
  | Refuted of {
      deficiency : Hall.deficiency;
      mutable core_model : Formulation.t option;
    }
  | Built of {
      built : Formulation_intf.built;
      enc : Encode.t option;
      mutable searched : bool;
      mutable refutation_checked : int option;
          (* the length of the log [check_refutation] last accepted *)
    }

type step = {
  dfg : Cgra_dfg.Dfg.t;
  mrrg : Cgra_mrrg.Mrrg.t;
  solver : Solver_spec.t;
  objective : Formulation.objective;
  proof : Proof.t option;
  state : state;
}

let build ~(solver : Solver_spec.t) ~objective dfg mrrg =
  solver.Solver_spec.formulation.Formulation_intf.build ~objective dfg mrrg

(* The engine alone on a freshly built feasibility model: no Hall step,
   no warm start, no proof. *)
let reprove ?deadline ~solver dfg mrrg =
  let t0 = Deadline.now () in
  let objective = Formulation.Feasibility in
  let f = build ~solver ~objective dfg mrrg in
  let build_seconds = Deadline.elapsed_of ~start:t0 in
  verdict ?deadline ~check_refutation:(check_refutation ?deadline) ~certify:false ~explain:false
    ~objective ~solver ~build_seconds f
    (solve_built ?deadline ~solver f)

let prepare ?(objective = Formulation.Feasibility) ?(solver = Solver_spec.default)
    ?(deadline = Deadline.none) ?(warm_start = 0.0) ?proof dfg mrrg =
  let state =
    match Hall.search dfg mrrg with
    | Some deficiency -> Refuted { deficiency; core_model = None }
    | None ->
        let built = build ~solver ~objective dfg mrrg in
        (* phase hints mean nothing to a subprocess solver, and the
           anneal spends the call's own budget, never more *)
        let warm_start =
          match (solver.Solver_spec.engine, Deadline.remaining deadline) with
          | Solver_spec.External _, _ -> 0.0
          | Solver_spec.Native, Some left -> Float.min warm_start left
          | Solver_spec.Native, None -> warm_start
        in
        if warm_start > 0.0 then begin
          let params = if warm_start >= 20.0 then Anneal.thorough else Anneal.moderate in
          let deadline = Deadline.within deadline ~seconds:warm_start in
          match Anneal.map ~params ~deadline dfg mrrg with
          | Anneal.Mapped (m, _) -> built.Formulation_intf.warm m
          | Anneal.Failed _ -> ()
        end;
        let enc =
          match solver.Solver_spec.engine with
          | Solver_spec.Native -> Some (Encode.encode ?proof built.Formulation_intf.model)
          | Solver_spec.External _ -> None
        in
        Built { built; enc; searched = false; refutation_checked = None }
  in
  { dfg; mrrg; solver; objective; proof; state }

let solver_vars step =
  match step.state with
  | Built { enc = Some enc; _ } -> Solver.nvars enc.Encode.solver
  | Built { enc = None; _ } | Refuted _ -> 0

type answer = { search_stats : Solver.stats; resumed : bool; conclude : unit -> result }

let search ?deadline ~started ~certify ~explain step =
  match step.state with
  | Refuted r ->
      (* the placement model an explained answer checks its core
         against, built on first request and kept *)
      let core_model, build_seconds =
        match (explain, r.core_model) with
        | false, _ -> (None, 0.0)
        | true, Some f -> (Some f, 0.0)
        | true, None ->
            let t0 = Deadline.now () in
            let f = Formulation.build_placement step.dfg step.mrrg in
            r.core_model <- Some f;
            (Some f, Deadline.elapsed_of ~start:t0)
      in
      {
        search_stats = Solver.zero_stats;
        resumed = false;
        conclude =
          (fun () ->
            hall_verdict ~started ~certify ~build_seconds ~core_model step.dfg step.mrrg
              r.deficiency);
      }
  | Built b ->
      let build_seconds = Deadline.elapsed_of ~start:started in
      let report =
        match b.enc with
        | Some enc ->
            let report = Solve.search ?deadline enc b.built.Formulation_intf.model in
            (* A satisfiable model stays satisfiable (descent bounds are
               assumptions), so once the step maps, its log can never
               end in a refutation: stop growing it. *)
            (match report.Solve.outcome with
            | Solve.Optimal _ | Solve.Feasible _ -> Solver.set_proof enc.Encode.solver None
            | Solve.Infeasible | Solve.Timeout -> ());
            report
        | None -> solve_built ?deadline ~solver:step.solver b.built
      in
      (* only a kept encoding carries anything over: an external solver
         starts from scratch every time *)
      let resumed = b.searched && Option.is_some b.enc in
      (* A timeout still counts as a search: the solver keeps the
         learnt clauses and phases of the truncated run. *)
      b.searched <- true;
      (* A resident solver logs every search into the one [step.proof],
         and a refuted one logs nothing more: a log as long as the last
         one accepted is that log; a replay the deadline cut short
         accepted nothing and is not recorded. *)
      let check_refutation p =
        let steps = Proof.n_steps p in
        b.refutation_checked = Some steps
        || check_refutation ?deadline p
           && begin
                b.refutation_checked <- Some steps;
                true
              end
      in
      {
        search_stats = report.Solve.stats;
        resumed;
        conclude =
          (fun () ->
            verdict ?deadline ?proof:step.proof ~check_refutation ~certify ~explain
              ~objective:step.objective ~solver:step.solver ~build_seconds b.built report);
      }

let map ?objective ?solver ?deadline ?warm_start ?(certify = false) ?(explain = false) dfg mrrg
    =
  let started = Deadline.now () in
  let proof =
    if verdict_solve_needs_proof ~certify ~explain then Some (Proof.create ()) else None
  in
  let step = prepare ?objective ?solver ?deadline ?warm_start ?proof dfg mrrg in
  (search ?deadline ~started ~certify ~explain step).conclude ()

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

let pp_result fmt = function
  | Mapped (m, info) ->
      Format.fprintf fmt "mapped (cost %d%s, %.2fs)" (Mapping.routing_cost m)
        (if info.proven_optimal && info.objective_value <> None then ", optimal" else "")
        info.solve_seconds
  | Infeasible info -> Format.fprintf fmt "infeasible (proven, %.2fs)" info.solve_seconds
  | Timeout info -> Format.fprintf fmt "timeout (%.2fs)" info.solve_seconds
