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

let variant ?name ?(warm_start = 5.0) solver =
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
                 "unknown architecture %S (expected one of %s, a gallery name from `cgra_map \
                  arch gallery`, or the path of an .adl file)"
                 name
                 (String.concat ", " (List.map fst (Lib.paper_configs ~size)))))

(* Every invocation elaborates its own DFG/arch/MRRG so that racing
   variants share no mutable structure at all — elaboration is
   microseconds against solves of seconds. *)
let prepare (job : Job.t) =
  match load_benchmark job.Job.benchmark with
  | Error e -> Error e
  | Ok dfg -> (
      match load_arch ~size:job.Job.size job.Job.arch with
      | Error e -> Error e
      | Ok arch -> Ok (dfg, Build.elaborate arch ~ii:job.Job.contexts))

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
    cross = None;
  }

let run_variant ?cancel ?certify ?explain (variant : variant) (job : Job.t) =
  let t0 = Deadline.now () in
  match prepare job with
  | Error msg -> Record.error job msg
  | Ok (dfg, mrrg) -> (
      let warm_start =
        if job.Job.limit > 0.0 then Float.min variant.warm_start (job.Job.limit /. 4.0)
        else variant.warm_start
      in
      match
        IM.map ~objective:Formulation.Feasibility ~solver:variant.solver
          ~deadline:(deadline_of job) ?cancel ~warm_start ?certify ?explain dfg mrrg
      with
      | result ->
          record_of_result job ~engine:variant.name
            ~total_seconds:(Deadline.elapsed_of ~start:t0) result
      | exception e ->
          { (Record.error job (Printexc.to_string e)) with
            Record.total_seconds = Deadline.elapsed_of ~start:t0;
            engine = variant.name;
          })

let run ?cancel ?certify ?explain (job : Job.t) =
  run_variant ?cancel ?certify ?explain default_variant job

(* The Figure-8 baseline: simulated annealing restarted over [seeds]
   RNG streams, each given an equal slice of the job's budget.  The
   first mapping that survives the independent checker wins; running
   out of seeds (or of budget) is a Timeout — annealing can never prove
   infeasibility, so the SA column of Fig. 8 has no Infeasible bars. *)
let run_anneal ?cancel ?(seeds = 3) (job : Job.t) =
  let t0 = Deadline.now () in
  match prepare job with
  | Error msg -> Record.error job msg
  | Ok (dfg, mrrg) ->
      let seeds = max 1 seeds in
      let slice = if job.Job.limit > 0.0 then job.Job.limit /. float_of_int seeds else 0.0 in
      let deadline_for_attempt () =
        let d = if slice > 0.0 then Deadline.after ~seconds:slice else Deadline.none in
        match cancel with None -> d | Some flag -> Deadline.with_cancellation d flag
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
      let total = Deadline.elapsed_of ~start:t0 in
      {
        Record.job;
        status;
        engine = "sa";
        total_seconds = total;
        solve_seconds = total;
        build_seconds = 0.0;
        sat_calls = 0;
        certified = false;
        objective = None;
        core = [];
        cross = None;
      }
