module Dfg = Cgra_dfg.Dfg
module Adl = Cgra_arch.Adl
module Build = Cgra_mrrg.Build
module Mrrg = Cgra_mrrg.Mrrg
module Formulation = Cgra_core.Formulation
module IM = Cgra_core.Ilp_mapper
module Solver_spec = Cgra_core.Solver_spec
module Backend = Cgra_backend.Backend
module Runner = Cgra_sweep.Runner
module Deadline = Cgra_util.Deadline

type t = {
  mrrgs : Mrrg.t Cache.t;
  sessions : Session.t Cache.t;
  requests : int Atomic.t;
  warm_starts : int Atomic.t;
  started : float;
  max_limit : float;
}

let create ?(mrrg_capacity = 32) ?(session_capacity = 16) ?(max_limit = 120.0) () =
  {
    mrrgs = Cache.create ~capacity:mrrg_capacity;
    sessions = Cache.create ~capacity:session_capacity;
    requests = Atomic.make 0;
    warm_starts = Atomic.make 0;
    started = Deadline.now ();
    max_limit = (if max_limit <= 0.0 then infinity else max_limit);
  }

let arch_digest arch = Digest.to_hex (Digest.string (Adl.to_string arch))
let dfg_digest dfg = Digest.to_hex (Digest.string (Dfg.to_text dfg))

let resolve_dfg (m : Protocol.map_request) =
  match m.Protocol.dfg_text with
  | Some text -> Dfg.of_text text
  | None -> Runner.load_benchmark m.Protocol.benchmark

let resolve_arch (m : Protocol.map_request) =
  match m.Protocol.adl_text with
  | Some text -> Adl.of_string text
  | None -> Runner.load_arch ~size:m.Protocol.size m.Protocol.arch

let deadline_of t limit =
  let effective = if limit <= 0.0 then t.max_limit else Float.min limit t.max_limit in
  if Float.is_finite effective then Deadline.after ~seconds:effective else Deadline.none

let handle_map_exn t (m : Protocol.map_request) =
  let ( let* ) = Result.bind in
  let bad_request r = Result.map_error (fun e -> ("bad_request", e)) r in
  let* () =
    if m.Protocol.contexts < 1 then
      Error ("bad_request", Printf.sprintf "contexts must be >= 1 (got %d)" m.Protocol.contexts)
    else Ok ()
  in
  let* solver =
    bad_request
      (match m.Protocol.backend with
      | None -> Ok Solver_spec.default
      | Some name -> Solver_spec.of_name name)
  in
  let* dfg = bad_request (resolve_dfg m) in
  let* arch = bad_request (resolve_arch m) in
  Atomic.incr t.requests;
  let t0 = Deadline.now () in
  let a_digest = arch_digest arch in
  let ii = m.Protocol.contexts in
  let mrrg, mrrg_cache_hit =
    Cache.find_or_add t.mrrgs
      (Printf.sprintf "%s:%d" a_digest ii)
      (fun () -> Build.elaborate arch ~ii)
  in
  let deadline = deadline_of t m.Protocol.limit in
  let fast_path =
    (not m.Protocol.optimize) && (not m.Protocol.certify) && (not m.Protocol.explain)
    && solver.Solver_spec.name = Solver_spec.default.Solver_spec.name
  in
  if fast_path then begin
    let key = dfg_digest dfg ^ "|" ^ a_digest in
    let session, _ = Cache.find_or_add t.sessions key (fun () -> Session.create dfg) in
    let outcome = Session.solve ~deadline session ~mrrg ~ii in
    if outcome.Session.warm_start then Atomic.incr t.warm_starts;
    let info =
      match outcome.Session.result with IM.Mapped (_, i) | IM.Infeasible i | IM.Timeout i -> i
    in
    let provenance =
      {
        Protocol.mrrg_cache_hit;
        cache_hit = outcome.Session.cache_hit;
        warm_start = outcome.Session.warm_start;
        session_solves = outcome.Session.solves;
        inprocess = Cgra_satoca.Solver.inprocess_counters outcome.Session.solve_stats;
        build_phases = info.IM.build_phases;
      }
    in
    Ok
      (Protocol.verdict_of_result ~engine:"sat-incremental"
         ~wall_seconds:(Deadline.elapsed_of ~start:t0)
         ~provenance outcome.Session.result)
  end
  else begin
    let objective =
      if m.Protocol.optimize then Formulation.Min_routing else Formulation.Feasibility
    in
    let result =
      IM.map ~objective ~solver ~deadline ~warm_start:0.0 ~certify:m.Protocol.certify
        ~explain:m.Protocol.explain dfg mrrg
    in
    let engine = Option.value m.Protocol.backend ~default:"sat" in
    let info = match result with IM.Mapped (_, i) | IM.Infeasible i | IM.Timeout i -> i in
    let provenance =
      {
        Protocol.cold_provenance with
        Protocol.mrrg_cache_hit;
        inprocess = info.IM.inprocess;
        build_phases = info.IM.build_phases;
      }
    in
    Ok
      (Protocol.verdict_of_result ~engine
         ~wall_seconds:(Deadline.elapsed_of ~start:t0)
         ~provenance result)
  end

let handle_map t m =
  try handle_map_exn t m with
  | Backend.Error msg -> Error ("backend", msg)
  | e -> Error ("internal", Printexc.to_string e)

let mrrg_cache_stats t = Cache.stats t.mrrgs
let session_cache_stats t = Cache.stats t.sessions

let stats t ~pool_workers =
  let m = Cache.stats t.mrrgs in
  let s = Cache.stats t.sessions in
  {
    Protocol.requests = Atomic.get t.requests;
    warm_starts = Atomic.get t.warm_starts;
    uptime_seconds = Deadline.elapsed_of ~start:t.started;
    pool_workers;
    mrrg_hits = m.Cache.hits;
    mrrg_misses = m.Cache.misses;
    mrrg_evictions = m.Cache.evictions;
    mrrg_size = m.Cache.size;
    mrrg_capacity = m.Cache.capacity;
    session_hits = s.Cache.hits;
    session_misses = s.Cache.misses;
    session_evictions = s.Cache.evictions;
    session_size = s.Cache.size;
    session_capacity = s.Cache.capacity;
  }
