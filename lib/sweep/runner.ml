module Dfg = Cgra_dfg.Dfg
module Benchmarks = Cgra_dfg.Benchmarks
module Lib = Cgra_arch.Library
module Adl = Cgra_arch.Adl
module Build = Cgra_mrrg.Build
module IM = Cgra_core.Ilp_mapper
module Formulation = Cgra_core.Formulation
module Anneal = Cgra_core.Anneal
module Check = Cgra_core.Check
module Solver_spec = Cgra_core.Solver_spec
module Deadline = Cgra_util.Deadline

type variant = { name : string; solver : Solver_spec.t; warm_start : float }

let variant ?name ?(warm_start = 0.0) solver =
  { name = Option.value name ~default:solver.Solver_spec.name; solver; warm_start }

let default_variant = variant ~name:"sat" Solver_spec.default

(* The portfolio: the SAT engine raced cold (fast on easy cells and on
   infeasibility proofs, where warm-start time is pure loss) and warm
   (wins on hard feasible cells), then diminishing-return variations of
   the warm-start budget that only join when the machine has cores to
   spare. *)
let racer_pool =
  List.map
    (fun (name, warm_start) -> variant ~name ~warm_start Solver_spec.default)
    [ ("sat-cold", 0.0); ("sat-warm", 5.0); ("sat-eager", 1.0); ("sat-patient", 15.0) ]

let default_racers n =
  let n = max 1 n in
  List.filteri (fun i _ -> i < n) racer_pool

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_benchmark name =
  match Benchmarks.by_name name with
  | Some dfg -> Ok dfg
  | None ->
      if Sys.file_exists name then Dfg.of_text (read_file name)
      else Error (Printf.sprintf "unknown benchmark %S (see `cgra_map benchmarks`)" name)

let load_arch ~size name =
  if size < 1 then Error (Printf.sprintf "size must be >= 1 (got %d)" size)
  else
    match Lib.find_config ~size name with
    | Some config -> Ok (Lib.make config)
    | None -> (
        match Lib.find_gallery name with
        | Some config -> Ok (Lib.make config)
        | None ->
            if Sys.file_exists name then Adl.of_string (read_file name)
            else
              Error
                (Printf.sprintf
                   "unknown architecture %S (expected one of %s, a gallery name from \
                    `cgra_map arch gallery`, or the path of an .adl file)"
                   name
                   (String.concat ", " (List.map fst (Lib.paper_configs ~size)))))

(* Every invocation elaborates its own DFG/arch/MRRG so that racing
   variants share no mutable structure at all — elaboration is
   microseconds against solves of seconds. *)
let prepare (job : Job.t) =
  let ( let* ) = Result.bind in
  let* () =
    if job.Job.contexts < 1 then
      Error (Printf.sprintf "contexts must be >= 1 (got %d)" job.Job.contexts)
    else Ok ()
  in
  let* dfg = load_benchmark job.Job.benchmark in
  let* arch = load_arch ~size:job.Job.size job.Job.arch in
  Ok (dfg, Build.elaborate arch ~ii:job.Job.contexts)

let deadline_of (job : Job.t) =
  if job.Job.limit <= 0.0 then Deadline.none else Deadline.after ~seconds:job.Job.limit

let record_of_result (job : Job.t) ~engine ~total_seconds result =
  let status, (info : IM.info) =
    match result with
    | IM.Mapped (_, info) -> (Record.Feasible, info)
    | IM.Infeasible info -> (Record.Infeasible, info)
    | IM.Timeout info -> (Record.Timeout, info)
  in
  {
    Record.job;
    status;
    engine;
    total_seconds;
    solve_seconds = info.IM.solve_seconds;
    build_seconds = info.IM.build_seconds;
    sat_calls = info.IM.sat_calls;
    certified = info.IM.certified;
    objective = info.IM.objective_value;
    core =
      (match info.IM.diagnosis with
      | Some d -> d.IM.core
      | None -> []);
    evidence = Option.map IM.evidence_name info.IM.evidence;
    cross = None;
  }

(* Every runner's frame: prepare the job, run [solve] on its DFG and
   MRRG, and give the record it returns the engine and the elapsed wall
   time.  A job that does not prepare is an engine-less [Error] record;
   an exception from [solve] is an [Error] record naming [engine] and
   the time spent. *)
let guarded ~engine (job : Job.t) solve =
  let t0 = Deadline.now () in
  match try prepare job with e -> Error (Printexc.to_string e) with
  | Error msg -> Record.error job msg
  | Ok (dfg, mrrg) -> (
      match solve dfg mrrg with
      | record -> record ~engine ~total_seconds:(Deadline.elapsed_of ~start:t0)
      | exception e ->
          { (Record.error job (Printexc.to_string e)) with
            Record.total_seconds = Deadline.elapsed_of ~start:t0;
            engine;
          })

let run_variant ?cancel ?certify ?explain (variant : variant) (job : Job.t) =
  guarded ~engine:variant.name job (fun dfg mrrg ->
      let warm_start =
        if job.Job.limit > 0.0 then Float.min variant.warm_start (job.Job.limit /. 4.0)
        else variant.warm_start
      in
      let deadline = deadline_of job in
      let deadline =
        match cancel with Some flag -> Deadline.with_cancellation deadline flag | None -> deadline
      in
      record_of_result job
        (IM.map ~objective:Formulation.Feasibility ~solver:variant.solver ~deadline ~warm_start
           ?certify ?explain dfg mrrg))

(* The engine's own answer, as a cross-check needs it: the model built
   and handed to the solver directly, so a cell the Hall step decides
   for [map] is still refuted by the engine here. *)
let reprove (solver : Solver_spec.t) (job : Job.t) =
  guarded ~engine:solver.Solver_spec.name job (fun dfg mrrg ->
      record_of_result job (IM.reprove ~deadline:(deadline_of job) ~solver dfg mrrg))

let run ?certify ?explain (job : Job.t) = run_variant ?certify ?explain default_variant job

(* The checker gets the primary's time budget; its timeout or error is
   inconclusive, recorded but never a disagreement
   ([Record.verdicts_agree]). *)
let cross_checked (checker : Solver_spec.t) execute (job : Job.t) =
  let primary = execute job in
  if not (Record.definitive primary) then primary
  else
    let second = reprove checker job in
    {
      primary with
      Record.cross =
        Some
          {
            Record.backend = checker.Solver_spec.name;
            status = second.Record.status;
            objective = second.Record.objective;
            agreed =
              Record.verdicts_agree ~status:primary.Record.status
                ~objective:primary.Record.objective ~status2:second.Record.status
                ~objective2:second.Record.objective;
          };
    }

(* The Figure-8 baseline: simulated annealing restarted over [seeds]
   RNG streams, each given an equal slice of the job's budget.  The
   first mapping that survives the independent checker wins; running
   out of seeds (or of budget) is a Timeout — annealing can never prove
   infeasibility, so the SA column of Fig. 8 has no Infeasible bars. *)
let run_anneal ?(seeds = 3) (job : Job.t) =
  guarded ~engine:"sa" job (fun dfg mrrg ->
      let seeds = max 1 seeds in
      let slice = if job.Job.limit > 0.0 then job.Job.limit /. float_of_int seeds else 0.0 in
      let deadline_for_attempt () =
        if slice > 0.0 then Deadline.after ~seconds:slice else Deadline.none
      in
      let rec attempt seed =
        if seed >= seeds then None
        else
          let params = { Anneal.moderate with Anneal.seed } in
          match Anneal.map ~params ~deadline:(deadline_for_attempt ()) dfg mrrg with
          | Anneal.Mapped (m, _) when Check.is_legal m -> Some m
          | Anneal.Mapped _ | Anneal.Failed _ -> attempt (seed + 1)
          | exception _ -> attempt (seed + 1)
      in
      let status =
        match attempt 0 with Some _ -> Record.Feasible | None -> Record.Timeout
      in
      fun ~engine ~total_seconds ->
        { (Record.error job "") with
          Record.status;
          engine;
          total_seconds;
          solve_seconds = total_seconds;
        })
