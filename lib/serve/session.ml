module Solver = Cgra_satoca.Solver
module Solve = Cgra_ilp.Solve
module Encode = Cgra_ilp.Encode
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module Solver_spec = Cgra_core.Solver_spec
module IM = Cgra_core.Ilp_mapper
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg

type block = { built : Formulation_intf.built; embedded : Encode.embedded }

type t = {
  spec : Solver_spec.t;
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

let accepts (spec : Solver_spec.t) =
  match spec.Solver_spec.engine with Solver_spec.Native Solve.Sat_backed -> true | _ -> false

let create ?(solver = Solver_spec.default) dfg =
  if not (accepts solver) then
    invalid_arg ("Session.create: not a native SAT solver: " ^ solver.Solver_spec.name);
  let s = Solver.create () in
  Cgra_satoca.Inprocess.install s;
  { spec = solver; solver = s; dfg; blocks = []; solves = 0; mutex = Mutex.create () }

let compiled_iis t = Mutex.protect t.mutex (fun () -> List.map fst t.blocks)

let solve ?(deadline = Deadline.none) ?(certify = false) ?(explain = false) t ~mrrg ~ii =
  if IM.verdict_solve_needs_proof ~certify ~explain then
    invalid_arg "Session.solve: certify without explain needs a proof-logged solve";
  (* Only the resident solver and the block list need the lock.  The
     verdict touches nothing of the session but the built model, which
     concurrent verdicts may share (see [IM.verdict]), so an explained
     request's core extraction runs unlocked and never holds up the
     requests behind it. *)
  let block, cache_hit, build_seconds, report, warm_start, solves, stats =
    Mutex.protect t.mutex (fun () ->
      let t0 = Deadline.now () in
      let block, cache_hit =
        match List.assoc_opt ii t.blocks with
        | Some b -> (b, true)
        | None ->
            let built =
              t.spec.Solver_spec.formulation.Formulation_intf.build
                ~objective:Formulation.Feasibility t.dfg mrrg
            in
            let embedded =
              Encode.encode_into ~guarded:true t.solver built.Formulation_intf.model
            in
            (* a later hit builds nothing, so it reports no build phases *)
            t.blocks <- t.blocks @ [ (ii, { built = { built with phases = [] }; embedded }) ];
            ({ built; embedded }, false)
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
      let outcome =
        match answer with
        | Solver.Sat ->
            Solve.Optimal
              ( Encode.embedded_assignment t.solver block.embedded
                  block.built.Formulation_intf.model,
                0 )
        | Solver.Unsat -> Solve.Infeasible
        | Solver.Unknown -> Solve.Timeout
      in
      let report =
        {
          Solve.outcome;
          solve_seconds = Deadline.elapsed_of ~start:t1;
          sat_calls = 1;
          inprocess = Solver.inprocess_counters stats;
        }
      in
      (* A timeout still counts as a solve: the solver retains learnt
         clauses and phases from the truncated run, so the next attempt
         is warm in the meaningful sense. *)
      t.solves <- t.solves + 1;
      (block, cache_hit, build_seconds, report, warm_start, t.solves, stats))
  in
  let result =
    IM.verdict ~deadline ~certify ~explain ~objective:Formulation.Feasibility ~solver:t.spec
      ~build_seconds block.built report
  in
  { result; cache_hit; warm_start; solves; solve_stats = stats }
