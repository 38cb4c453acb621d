module Solver = Cgra_satoca.Solver
module Solve = Cgra_ilp.Solve
module Encode = Cgra_ilp.Encode
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module Solver_spec = Cgra_core.Solver_spec
module IM = Cgra_core.Ilp_mapper
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg

(* One II's resident encoding: the model built for it (its build
   phases cleared once reported) and the one-shot encoding of it. *)
type resident = { built : Formulation_intf.built; enc : Encode.t; mutable solved : bool }

type t = {
  spec : Solver_spec.t;
  dfg : Dfg.t;
  mutable residents : (int * resident) list;  (* ii -> encoding, first-use order *)
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
  { spec = solver; dfg; residents = []; solves = 0; mutex = Mutex.create () }

let compiled_iis t = Mutex.protect t.mutex (fun () -> List.map fst t.residents)

let solve ?(deadline = Deadline.none) ?(certify = false) ?(explain = false) t ~mrrg ~ii =
  if IM.verdict_solve_needs_proof ~certify ~explain then
    invalid_arg "Session.solve: certify without explain needs a proof-logged solve";
  (* Only the resident solvers and the II list need the lock.  The
     verdict touches nothing of the session but the built model, which
     concurrent verdicts may share (see [IM.verdict]), so an explained
     request's core extraction runs unlocked and never holds up the
     requests behind it. *)
  let built, cache_hit, build_seconds, report, warm_start, solves, stats =
    Mutex.protect t.mutex (fun () ->
      let t0 = Deadline.now () in
      let r, built, cache_hit =
        match List.assoc_opt ii t.residents with
        | Some r -> (r, r.built, true)
        | None ->
            let built =
              t.spec.Solver_spec.formulation.Formulation_intf.build
                ~objective:Formulation.Feasibility t.dfg mrrg
            in
            (* a later hit builds nothing, so it reports no build phases *)
            let r =
              {
                built = { built with phases = [] };
                enc = Encode.encode built.Formulation_intf.model;
                solved = false;
              }
            in
            t.residents <- t.residents @ [ (ii, r) ];
            (r, built, false)
      in
      let build_seconds = Deadline.elapsed_of ~start:t0 in
      let warm_start = r.solved in
      let report, stats = Solve.search ~deadline r.enc built.Formulation_intf.model in
      (* A timeout still counts as a solve: the solver retains learnt
         clauses and phases from the truncated run, so the next attempt
         is warm in the meaningful sense. *)
      r.solved <- true;
      t.solves <- t.solves + 1;
      (built, cache_hit, build_seconds, report, warm_start, t.solves, stats))
  in
  let result =
    IM.verdict ~deadline ~certify ~explain ~objective:Formulation.Feasibility ~solver:t.spec
      ~build_seconds built report
  in
  { result; cache_hit; warm_start; solves; solve_stats = stats }
