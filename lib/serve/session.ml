module Solve = Cgra_ilp.Solve
module Solver_spec = Cgra_core.Solver_spec
module IM = Cgra_core.Ilp_mapper
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg

type t = {
  spec : Solver_spec.t;
  dfg : Dfg.t;
  mutable steps : (int * IM.step) list;  (* ii -> its step, first-use order *)
  mutable solves : int;
  mutex : Mutex.t;
}

type outcome = {
  result : IM.result;
  cache_hit : bool;
  warm_start : bool;
  solves : int;
  solve_stats : Cgra_satoca.Solver.stats;
}

let accepts (spec : Solver_spec.t) =
  match spec.Solver_spec.engine with Solver_spec.Native Solve.Sat_backed -> true | _ -> false

let create ?(solver = Solver_spec.default) dfg =
  if not (accepts solver) then
    invalid_arg ("Session.create: not a native SAT solver: " ^ solver.Solver_spec.name);
  { spec = solver; dfg; steps = []; solves = 0; mutex = Mutex.create () }

let compiled_iis t = Mutex.protect t.mutex (fun () -> List.map fst t.steps)

let solve ?(deadline = Deadline.none) ?(certify = false) ?(explain = false) t ~mrrg ~ii =
  if IM.verdict_solve_needs_proof ~certify ~explain then
    invalid_arg "Session.solve: certify without explain needs a proof-logged solve";
  (* Only the steps and the II list need the lock.  The verdict touches
     nothing of the session but the built model, which concurrent
     verdicts may share (see [IM.answer]), so an explained request's
     core extraction runs unlocked and never holds up the requests
     behind it. *)
  let started = Deadline.now () in
  let answer, cache_hit, solves =
    Mutex.protect t.mutex (fun () ->
      let step, cache_hit =
        match List.assoc_opt ii t.steps with
        | Some step -> (step, true)
        | None ->
            let step = IM.prepare ~solver:t.spec t.dfg mrrg in
            t.steps <- t.steps @ [ (ii, step) ];
            (step, false)
      in
      t.solves <- t.solves + 1;
      (IM.search ~deadline ~started ~certify ~explain step, cache_hit, t.solves))
  in
  {
    result = answer.IM.conclude ();
    cache_hit;
    warm_start = answer.IM.resumed;
    solves;
    solve_stats = answer.IM.search_stats;
  }
