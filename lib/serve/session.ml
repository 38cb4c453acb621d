module Solver = Cgra_satoca.Solver
module Solve = Cgra_ilp.Solve
module Encode = Cgra_ilp.Encode
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module Solver_spec = Cgra_core.Solver_spec
module IM = Cgra_core.Ilp_mapper
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg

(* One II's resident state.  An II the Hall step refutes keeps its
   deficiency (and, once an explained request asked for it, the model
   its core is checked against); any other II keeps the model built for
   it and the one-shot encoding of it. *)
type resident =
  | Encoded of { built : Formulation_intf.built; enc : Encode.t; mutable solved : bool }
  | Refuted of {
      deficiency : Cgra_core.Hall.deficiency;
      mutable model : Formulation_intf.built option;
    }

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

(* the counters of an answer no solver searched for *)
let no_search =
  {
    Solver.conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt = 0;
    probed_failed = 0;
  }

let solve ?(deadline = Deadline.none) ?(certify = false) ?(explain = false) t ~mrrg ~ii =
  if IM.verdict_solve_needs_proof ~certify ~explain then
    invalid_arg "Session.solve: certify without explain needs a proof-logged solve";
  let build () =
    t.spec.Solver_spec.formulation.Formulation_intf.build ~objective:Formulation.Feasibility t.dfg
      mrrg
  in
  (* Only the resident solvers and the II list need the lock.  The
     verdict touches nothing of the session but the built model, which
     concurrent verdicts may share (see [IM.verdict]), so an explained
     request's core extraction runs unlocked and never holds up the
     requests behind it. *)
  let t0 = Deadline.now () in
  let answer, cache_hit, warm_start, solves, stats =
    Mutex.protect t.mutex (fun () ->
      let r, fresh, cache_hit =
        match List.assoc_opt ii t.residents with
        | Some r -> (r, None, true)
        | None ->
            (* the Hall step, once per II, before anything is built *)
            let r, fresh =
              match Cgra_core.Hall.search t.dfg mrrg with
              | Some deficiency -> (Refuted { deficiency; model = None }, None)
              | None ->
                  let built = build () in
                  (* a later hit builds nothing, so it reports no build phases *)
                  ( Encoded
                      {
                        built = { built with phases = [] };
                        enc = Encode.encode built.Formulation_intf.model;
                        solved = false;
                      },
                    Some built )
            in
            t.residents <- t.residents @ [ (ii, r) ];
            (r, fresh, false)
      in
      t.solves <- t.solves + 1;
      match r with
      | Refuted h ->
          (* The Hall answer is microseconds of work, so it is made
             under the lock; an explained one needs the model its core
             is checked against, built on first request and kept. *)
          let build () =
            match h.model with
            | Some f -> f
            | None ->
                let f = build () in
                h.model <- Some { f with phases = [] };
                f
          in
          ( `Done (IM.hall_verdict ~started:t0 ~certify ~explain ~build t.dfg mrrg h.deficiency),
            cache_hit, false, t.solves, no_search )
      | Encoded e ->
          let built = Option.value fresh ~default:e.built in
          let build_seconds = Deadline.elapsed_of ~start:t0 in
          let warm_start = e.solved in
          let report, stats = Solve.search ~deadline e.enc built.Formulation_intf.model in
          (* A timeout still counts as a solve: the solver retains learnt
             clauses and phases from the truncated run, so the next
             attempt is warm in the meaningful sense. *)
          e.solved <- true;
          (`Engine (built, build_seconds, report), cache_hit, warm_start, t.solves, stats))
  in
  let result =
    match answer with
    | `Done result -> result
    | `Engine (built, build_seconds, report) ->
        IM.verdict ~deadline ~certify ~explain ~objective:Formulation.Feasibility
          ~solver:t.spec ~build_seconds built report
  in
  { result; cache_hit; warm_start; solves; solve_stats = stats }
