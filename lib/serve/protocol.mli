(** The daemon's wire protocol: versioned line-delimited JSON.

    One request per line, one response per line, over a Unix-domain
    stream socket.  Version {!version} is carried in every request's
    [v] field; a mismatch is a [protocol] error, never a crash — old
    clients get a parseable refusal, not garbage.

    The same {!verdict} record backs the daemon's responses and the
    CLI's [--json] output, so a served answer and a one-shot answer are
    byte-comparable (see {!decision_json}).

    {b Error codes} ([Error_reply.code]):
    - ["protocol"] — unparseable line, wrong version, unknown [op];
    - ["bad_request"] — well-formed request naming an unknown
      benchmark/architecture/solver or carrying invalid parameters;
    - ["busy"] — request queue full, retry later;
    - ["backend"] — an external solver backend failed;
    - ["internal"] — unexpected server-side exception;
    - ["shutting_down"] — the daemon is draining. *)

val version : int
(** Current protocol version (1). *)

type map_request = {
  benchmark : string;  (** built-in name or file path; ignored when [dfg_text] is set *)
  dfg_text : string option;  (** inline [.dfg] source, for clients without shared files *)
  arch : string;  (** library name or ADL file path; ignored when [adl_text] is set *)
  adl_text : string option;  (** inline ADL source *)
  size : int;  (** NxN library size; default 4 *)
  contexts : int;  (** initiation interval II; default 1 *)
  limit : float;  (** per-request deadline seconds; 0 = server default *)
  optimize : bool;  (** minimise routing cost (a session step of its own) *)
  certify : bool;
      (** validated evidence for infeasibility: through the core when
          [explain] is set too, else by the DRAT log of a proof-logged
          session step of its own *)
  explain : bool;  (** unsat-core diagnosis *)
  backend : string option;
      (** a {!Cgra_core.Solver_spec} name, parsed by the engine; each
          solver gets its own sessions *)
}

type payload = Map of map_request | Stats | Shutdown | Ping

type request = { id : string option; payload : payload }
(** [id] is echoed verbatim in the response, for client-side matching. *)

type provenance = {
  mrrg_cache_hit : bool;  (** the elaborated MRRG came from the tier-1 cache *)
  cache_hit : bool;
      (** the session step for this exact (DFG, arch, solver, II,
          objective, proof need) was already resident: formulation
          build {e and} clausification were both skipped *)
  warm_start : bool;
      (** the step's SAT solver had solved before, so saved phases,
          branching activity and learnt clauses carried over ([false]
          for engines that keep no solver) *)
  session_solves : int;  (** solves this session has served, after this one *)
}
(** How much resident state the request reused.  A one-shot CLI run
    reports {!cold_provenance}. *)

val cold_provenance : provenance

type stats = {
  requests : int;
  warm_starts : int;
  uptime_seconds : float;
  pool_workers : int;
  mrrg_hits : int;
  mrrg_misses : int;
  mrrg_evictions : int;
  mrrg_size : int;
  mrrg_capacity : int;
  session_hits : int;
  session_misses : int;
  session_evictions : int;
  session_size : int;
  session_capacity : int;
}

type verdict = {
  status : string;  (** ["feasible"], ["infeasible"] or ["timeout"] *)
  engine : string;
  objective : int option;  (** routing cost when optimising *)
  routing_cost : int option;  (** routing cost of the returned mapping *)
  placement : (string * string) list;  (** DFG op name -> MRRG node name *)
  solve_seconds : float;
  build_seconds : float;
  wall_seconds : float;  (** end-to-end request latency, server side *)
  sat_calls : int;
  certified : bool;
  proof_steps : int;
  core : string list;  (** constraint-group unsat core, when explained *)
  evidence : string option;
      (** what decided an infeasible verdict, ["hall"] or ["drat"]
          ({!Cgra_core.Ilp_mapper.evidence_name}); [None] otherwise and
          for records that predate the field *)
  provenance : provenance;
}

type reply =
  | Verdict of verdict
  | Stats_reply of stats
  | Ok_reply
  | Error_reply of { code : string; message : string }

type response = { r_id : string option; reply : reply }

(** {1 Construction} *)

val verdict_of_result :
  ?mrrg_cache_hit:bool ->
  ?cache_hit:bool ->
  ?warm_start:bool ->
  ?session_solves:int ->
  engine:string ->
  wall_seconds:float ->
  Cgra_core.Ilp_mapper.result ->
  verdict
(** Fold a mapper answer into the wire record.  The placement table and
    routing cost are read off the mapping for [Mapped]; the unsat core
    comes from the diagnosis for explained [Infeasible].  The
    provenance is the optional arguments, each defaulting to a cold
    answer's ([false], [0]). *)

(** {1 Wire format} *)

val request_to_line : request -> string
val request_of_line : string -> (request, string * string) result
(** [Error (code, message)] uses the error codes above ([protocol] /
    [bad_request]). *)

val response_to_line : response -> string
val response_of_line : string -> (response, string) result
(** Keys it does not know, such as fields older daemons sent and this
    version retired, are ignored. *)

val verdict_to_json : verdict -> Cgra_sweep.Jsonl.t
(** The exact object embedded in a [Verdict] response — also what
    [cgra_map map --json] prints, so daemon and CLI answers diff
    cleanly. *)

val decision_json : verdict -> Cgra_sweep.Jsonl.t
(** The decision-relevant projection ([status] + [objective]) used to
    assert daemon/CLI agreement byte-for-byte, independent of timings
    and provenance. *)

val stats_to_json : stats -> Cgra_sweep.Jsonl.t
(** The exact object embedded in a [Stats_reply] response — also what
    [cgra_map client --stats --json] prints. *)
