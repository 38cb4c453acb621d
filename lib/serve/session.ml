module Solver = Cgra_satoca.Solver
module Encode = Cgra_ilp.Encode
module Formulation = Cgra_core.Formulation
module Extract = Cgra_core.Extract
module Check = Cgra_core.Check
module IM = Cgra_core.Ilp_mapper
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg

type block = { formulation : Formulation.t; embedded : Encode.embedded }

type t = {
  solver : Solver.t;
  dfg : Dfg.t;
  mutable blocks : (int * block) list;  (* ii -> compiled encoding, first-use order *)
  mutable solves : int;
  mutex : Mutex.t;
}

type outcome = {
  result : IM.result;
  cache_hit : bool;
  warm_start : bool;
  solves : int;
  solve_stats : Solver.stats;
}

let create dfg =
  let solver = Solver.create () in
  Cgra_satoca.Inprocess.install solver;
  { solver; dfg; blocks = []; solves = 0; mutex = Mutex.create () }

let compiled_iis t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> List.map fst t.blocks)

let info_of ~size ~solve_seconds ~build_seconds ~build_phases ~certified ~stats : IM.info =
  {
    IM.size;
    solve_seconds;
    build_seconds;
    build_phases;
    objective_value = None;
    proven_optimal = false;
    sat_calls = 1;
    certified;
    proof_steps = 0;
    inprocess = Solver.inprocess_counters stats;
    diagnosis = None;
  }

let solve ?(deadline = Deadline.none) t ~mrrg ~ii =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let t0 = Deadline.now () in
      let block, build_phases, cache_hit =
        match List.assoc_opt ii t.blocks with
        | Some b -> (b, [], true)  (* cache hit: nothing was encoded *)
        | None ->
            let formulation, profile =
              Formulation.build_profiled ~objective:Formulation.Feasibility t.dfg mrrg
            in
            let embedded = Encode.encode_into ~guarded:true t.solver formulation.Formulation.model in
            let b = { formulation; embedded } in
            t.blocks <- t.blocks @ [ (ii, b) ];
            (b, Formulation.profile_fields profile, false)
      in
      let build_seconds = Deadline.elapsed_of ~start:t0 in
      let warm_start = t.solves > 0 in
      let assumptions =
        match block.embedded.Encode.e_activate with
        | Some l -> [ l ]
        | None -> []  (* unreachable: session blocks are always guarded *)
      in
      let t1 = Deadline.now () in
      let before = Solver.stats t.solver in
      let answer = Solver.solve_with ~deadline ~assumptions t.solver in
      (* The incremental solver accumulates counters across every solve
         of the session; the caller wants this solve's share, so report
         the delta against the pre-solve snapshot. *)
      let stats = Solver.stats_delta ~now:(Solver.stats t.solver) ~before in
      let solve_seconds = Deadline.elapsed_of ~start:t1 in
      let size = Formulation.size block.formulation in
      let result =
        match answer with
        | Solver.Sat ->
            let assignment =
              Encode.embedded_assignment t.solver block.embedded
                block.formulation.Formulation.model
            in
            let mapping = Extract.mapping block.formulation assignment in
            (match Check.run mapping with
            | Ok () -> ()
            | Error errs ->
                failwith
                  ("session solver produced a mapping the independent checker rejects: "
                  ^ String.concat "; " errs));
            IM.Mapped (mapping, info_of ~size ~solve_seconds ~build_seconds ~build_phases ~certified:true ~stats)
        | Solver.Unsat ->
            IM.Infeasible (info_of ~size ~solve_seconds ~build_seconds ~build_phases ~certified:false ~stats)
        | Solver.Unknown ->
            IM.Timeout (info_of ~size ~solve_seconds ~build_seconds ~build_phases ~certified:false ~stats)
      in
      (* A timeout still counts as a solve: the solver retains learnt
         clauses and phases from the truncated run, so the next attempt
         is warm in the meaningful sense. *)
      t.solves <- t.solves + 1;
      { result; cache_hit; warm_start; solves = t.solves; solve_stats = stats })
