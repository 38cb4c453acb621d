module Solver_spec = Cgra_core.Solver_spec
module IM = Cgra_core.Ilp_mapper
module Formulation = Cgra_core.Formulation
module Proof = Cgra_satoca.Proof
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg

(* A step answers one II under one objective, its verdict solve logging
   a proof or not: what [IM.prepare] fixes for the step's lifetime.
   Objectives compare physically: a [Weighted] one carries a function,
   and the constant ones are equal exactly when physically equal. *)
type key = { ii : int; objective : Formulation.objective; logged : bool }

let same a b = a.ii = b.ii && a.objective == b.objective && a.logged = b.logged

type t = {
  spec : Solver_spec.t;
  dfg : Dfg.t;
  mutable steps : (key * IM.step) list;
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

let create ?(solver = Solver_spec.default) dfg =
  { spec = solver; dfg; steps = []; solves = 0; mutex = Mutex.create () }

let compiled_iis t =
  Mutex.protect t.mutex (fun () -> List.sort_uniq compare (List.map (fun (k, _) -> k.ii) t.steps))

let solve ?(deadline = Deadline.none) ?(objective = Formulation.Feasibility) ?(certify = false)
    ?(explain = false) t ~mrrg ~ii =
  let key = { ii; objective; logged = IM.verdict_solve_needs_proof ~certify ~explain } in
  (* Only the steps and the counter need the lock.  The verdict touches
     nothing of the session but the built model and, for a logged step,
     its proof, which concurrent verdicts may share (see [IM.answer]),
     so an explained request's core extraction runs unlocked and never
     holds up the requests behind it. *)
  let started = Deadline.now () in
  let answer, cache_hit, solves =
    Mutex.protect t.mutex (fun () ->
      let step, cache_hit =
        match List.find_opt (fun (k, _) -> same k key) t.steps with
        | Some (_, step) -> (step, true)
        | None ->
            let proof = if key.logged then Some (Proof.create ()) else None in
            let step = IM.prepare ~objective ~solver:t.spec ?proof t.dfg mrrg in
            t.steps <- (key, step) :: t.steps;
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

let solver_vars t =
  Mutex.protect t.mutex (fun () ->
    List.fold_left (fun n (_, step) -> n + IM.solver_vars step) 0 t.steps)
