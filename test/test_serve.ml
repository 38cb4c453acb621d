(* Tests for the mapping daemon: protocol framing, the two-tier LRU
   cache, resident sessions (warm-started incremental solves), the
   request engine, and a live socket round-trip.

   Solver-facing tests run on the 2x2 fabric where every query decides
   in well under a second: on homo-orth, mac is infeasible at II 1 and
   2, while 2x2-f is infeasible at II 1 and becomes feasible at II 2. *)

module Dfg = Cgra_dfg.Dfg
module Benchmarks = Cgra_dfg.Benchmarks
module Generator = Cgra_dfg.Generator
module Rng = Cgra_util.Rng
module Deadline = Cgra_util.Deadline
module Lib = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module IM = Cgra_core.Ilp_mapper
module Jsonl = Cgra_sweep.Jsonl
module Protocol = Cgra_serve.Protocol
module Cache = Cgra_serve.Cache
module Session = Cgra_serve.Session
module Engine = Cgra_serve.Engine
module Server = Cgra_serve.Server
module Client = Cgra_serve.Client

let benchmark name =
  match Benchmarks.by_name name with
  | Some dfg -> dfg
  | None -> Alcotest.failf "unknown benchmark %s" name

let arch name ~size =
  match Lib.find_config ~size name with
  | Some config -> Lib.make config
  | None -> Alcotest.failf "unknown arch %s" name

let small_mrrg ?(arch_name = "homo-orth") ii = Build.elaborate (arch arch_name ~size:2) ~ii

let solver_spec name =
  match Cgra_core.Solver_spec.of_name name with Ok s -> s | Error e -> Alcotest.fail e

(* The 2x2 smoke grid: on homo-orth and homo-diag, mac is infeasible at
   II 1 and 2, 2x2-f only at II 1. *)
let small_grid =
  [
    ("mac", "homo-orth", 1); ("mac", "homo-orth", 2);
    ("mac", "homo-diag", 1); ("mac", "homo-diag", 2);
    ("2x2-f", "homo-orth", 1); ("2x2-f", "homo-orth", 2);
    ("2x2-f", "homo-diag", 1); ("2x2-f", "homo-diag", 2);
  ]

let status_of = function
  | IM.Mapped _ -> "feasible"
  | IM.Infeasible _ -> "infeasible"
  | IM.Timeout _ -> "timeout"

let map_request ?(bench = "mac") ?(arch = "homo-orth") ?(size = 2) ?(contexts = 1)
    ?(limit = 30.0) ?(optimize = false) ?(certify = false) ?(explain = false) ?backend () =
  {
    Protocol.benchmark = bench;
    dfg_text = None;
    arch;
    adl_text = None;
    size;
    contexts;
    limit;
    optimize;
    certify;
    explain;
    backend;
  }

(* ---------------- protocol ---------------- *)

let test_protocol_request_roundtrip () =
  let requests =
    [
      { Protocol.id = Some "42"; payload = Protocol.Map (map_request ~certify:true ()) };
      { Protocol.id = None; payload = Protocol.Map (map_request ~explain:true ()) };
      { Protocol.id = Some "s"; payload = Protocol.Stats };
      { Protocol.id = None; payload = Protocol.Shutdown };
      { Protocol.id = None; payload = Protocol.Ping };
    ]
  in
  List.iter
    (fun req ->
      let line = Protocol.request_to_line req in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Protocol.request_of_line line with
      | Error (code, msg) -> Alcotest.failf "reparse failed: %s %s" code msg
      | Ok req' -> Alcotest.(check bool) "request roundtrips" true (req = req'))
    requests

let test_protocol_inline_texts () =
  let dfg_text = Dfg.to_text (benchmark "mac") in
  let req =
    {
      Protocol.id = None;
      payload =
        Protocol.Map { (map_request ()) with Protocol.dfg_text = Some dfg_text };
    }
  in
  match Protocol.request_of_line (Protocol.request_to_line req) with
  | Ok { Protocol.payload = Protocol.Map m; _ } ->
      Alcotest.(check (option string)) "inline dfg survives" (Some dfg_text) m.Protocol.dfg_text
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error (code, msg) -> Alcotest.failf "reparse failed: %s %s" code msg

let test_protocol_version_mismatch () =
  match Protocol.request_of_line {|{"v":99,"op":"ping"}|} with
  | Error ("protocol", msg) ->
      Alcotest.(check bool) "names the version" true
        (Astring.String.is_infix ~affix:"99" msg)
  | Error (code, _) -> Alcotest.failf "wrong code %s" code
  | Ok _ -> Alcotest.fail "accepted wrong version"

let test_protocol_malformed () =
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Error ("protocol", _) -> ()
      | Error (code, _) -> Alcotest.failf "wrong code %s for %S" code line
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ "{not json"; "{}"; {|{"v":1}|}; {|{"v":1,"op":"frobnicate"}|} ]

let test_protocol_response_roundtrip () =
  let verdict =
    {
      Protocol.status = "feasible";
      engine = "sat-incremental";
      objective = Some 7;
      routing_cost = Some 7;
      placement = [ ("a", "pe_0_0.fu:0"); ("b", "pe_1_1.fu:1") ];
      solve_seconds = 0.125;
      build_seconds = 0.25;
      wall_seconds = 0.5;
      sat_calls = 1;
      certified = true;
      proof_steps = 0;
      core = [ "place:a"; "excl:pe_0_0.fu:0" ];
      evidence = Some "hall";
      provenance =
        {
          Protocol.mrrg_cache_hit = true;
          cache_hit = true;
          warm_start = true;
          session_solves = 3;
        };
    }
  in
  let responses =
    [
      { Protocol.r_id = Some "42"; reply = Protocol.Verdict verdict };
      { Protocol.r_id = None; reply = Protocol.Ok_reply };
      {
        Protocol.r_id = Some "x";
        reply = Protocol.Error_reply { code = "busy"; message = "queue full" };
      };
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_line (Protocol.response_to_line resp) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok resp' -> Alcotest.(check bool) "response roundtrips" true (resp = resp'))
    responses

let test_protocol_legacy_verdict () =
  (* daemons before this field was retired sent "presolve_fixed" in
     every verdict; a client must still read such a reply, and must not
     echo the key back *)
  let line =
    {|{"v":1,"id":"7","ok":true,"verdict":{"status":"infeasible","engine":"sat","solve_seconds":0.5,"build_seconds":0.25,"wall_seconds":1,"sat_calls":2,"presolve_fixed":3,"certified":true,"proof_steps":40}}|}
  in
  match Protocol.response_of_line line with
  | Error e -> Alcotest.failf "legacy reply rejected: %s" e
  | Ok { Protocol.r_id; reply = Protocol.Verdict v } ->
      Alcotest.(check (option string)) "id" (Some "7") r_id;
      Alcotest.(check string) "status" "infeasible" v.Protocol.status;
      Alcotest.(check int) "sat calls" 2 v.Protocol.sat_calls;
      Alcotest.(check bool) "certified" true v.Protocol.certified;
      Alcotest.(check int) "proof steps" 40 v.Protocol.proof_steps;
      Alcotest.(check (option string)) "no evidence field, none read" None v.Protocol.evidence;
      Alcotest.(check bool) "retired key not re-emitted" false
        (Astring.String.is_infix ~affix:"presolve_fixed"
           (Protocol.response_to_line { Protocol.r_id; reply = Protocol.Verdict v }))
  | Ok _ -> Alcotest.fail "legacy reply parsed as a non-verdict"

let test_protocol_decision_projection () =
  let v ~status ~objective =
    {
      Protocol.status;
      engine = "sat";
      objective;
      routing_cost = None;
      placement = [];
      solve_seconds = 1.0;
      build_seconds = 2.0;
      wall_seconds = 3.0;
      sat_calls = 9;
      certified = false;
      proof_steps = 0;
      core = [];
      evidence = None;
      provenance = Protocol.cold_provenance;
    }
  in
  (* Identical decisions with wildly different timings/provenance must
     print identical decision lines — that is the byte-comparison the
     CI smoke grid relies on. *)
  let a = Jsonl.to_string (Protocol.decision_json (v ~status:"feasible" ~objective:(Some 4))) in
  let b =
    Jsonl.to_string
      (Protocol.decision_json
         {
           (v ~status:"feasible" ~objective:(Some 4)) with
           Protocol.solve_seconds = 9.0;
           engine = "other";
           provenance =
             {
               Protocol.mrrg_cache_hit = true;
               cache_hit = true;
               warm_start = true;
               session_solves = 12;
             };
         })
  in
  Alcotest.(check string) "decision bytes equal" a b;
  Alcotest.(check string)
    "projection content" {|{"status":"feasible","objective":4}|} a

(* ---------------- cache ---------------- *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  let build v () = v in
  ignore (Cache.find_or_add c "a" (build 1));
  ignore (Cache.find_or_add c "b" (build 2));
  (* Touch "a" so "b" is now least recently used. *)
  ignore (Cache.find_or_add c "a" (build 0));
  ignore (Cache.find_or_add c "c" (build 3));
  Alcotest.(check (list string)) "b evicted, c most recent" [ "c"; "a" ]
    (Cache.keys_by_recency c);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size;
  (* The survivor hits; the evicted key rebuilds (and, the cache being
     full, pushes out the new LRU). *)
  let _, hit_a = Cache.find_or_add c "a" (build 1) in
  let _, hit_b = Cache.find_or_add c "b" (build 2) in
  Alcotest.(check bool) "a survived" true hit_a;
  Alcotest.(check bool) "b was rebuilt" false hit_b;
  Alcotest.(check (list string)) "c evicted in turn" [ "b"; "a" ] (Cache.keys_by_recency c)

let test_cache_capacity_zero_bypass () =
  let c = Cache.create ~capacity:0 in
  let builds = ref 0 in
  let build () = incr builds; !builds in
  let v1, hit1 = Cache.find_or_add c "k" build in
  let v2, hit2 = Cache.find_or_add c "k" build in
  Alcotest.(check bool) "never hits" false (hit1 || hit2);
  Alcotest.(check int) "builds every time" 2 !builds;
  Alcotest.(check bool) "values fresh" true (v1 = 1 && v2 = 2);
  let s = Cache.stats c in
  Alcotest.(check int) "size stays zero" 0 s.Cache.size;
  Alcotest.(check int) "all misses" 2 s.Cache.misses

let test_cache_builder_exception_caches_nothing () =
  let c = Cache.create ~capacity:4 in
  (match Cache.find_or_add c "k" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check (option int)) "nothing resident" None (Cache.find c "k");
  let v, hit = Cache.find_or_add c "k" (fun () -> 7) in
  Alcotest.(check bool) "rebuilds cleanly" true (v = 7 && not hit)

(* ---------------- session ---------------- *)

let test_session_incremental_ii () =
  (* An II search on one session, II = 1 then 2.  2x2-f flips from
     infeasible to feasible; II 2 compiles its own encoding into its own
     solver, so its first solve is neither a cache hit nor warm.  Both
     native SAT formulations run it. *)
  List.iter
    (fun name ->
      let check what = Alcotest.(check bool) (name ^ ": " ^ what) in
      let session = Session.create ~solver:(solver_spec name) (benchmark "2x2-f") in
      let o1 = Session.solve session ~mrrg:(small_mrrg 1) ~ii:1 in
      Alcotest.(check string) (name ^ ": ii=1 infeasible") "infeasible"
        (status_of o1.Session.result);
      check "first solve is cold" false (o1.Session.cache_hit || o1.Session.warm_start);
      let o2 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
      Alcotest.(check string) (name ^ ": ii=2 feasible") "feasible"
        (status_of o2.Session.result);
      check "new block: not a cache hit" false o2.Session.cache_hit;
      check "but solver state is warm" false o2.Session.warm_start;
      Alcotest.(check (list int)) (name ^ ": blocks compiled in order") [ 1; 2 ]
        (Session.compiled_iis session);
      (* Repeat of a compiled II: skips build and clausification. *)
      let o3 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
      Alcotest.(check string) (name ^ ": repeat agrees") "feasible"
        (status_of o3.Session.result);
      check "repeat hits the encoding cache" true o3.Session.cache_hit;
      Alcotest.(check int) (name ^ ": three solves served") 3 o3.Session.solves;
      (* The feasible answer passed the independent checker en route. *)
      match o3.Session.result with
      | IM.Mapped (_, info) -> check "mapped is certified" true info.IM.certified
      | _ -> Alcotest.fail (name ^ ": expected a mapping"))
    [ "native-sat"; "conn-sat" ]

(* a 2-input adder, whose minimum routing cost is proven in a few SAT
   calls on the 2x2 fabric *)
let tiny_adder () =
  match
    Dfg.of_text
      "node a input\nnode b input\nnode s add\nnode o output\n\
       edge a s 0\nedge b s 1\nedge s o 0\n"
  with
  | Ok dfg -> dfg
  | Error e -> Alcotest.fail e

let test_session_certify_only_served () =
  (* a certify-only request gets a step of its own whose solver logs a
     proof: accum@hetero-orth-2x2/ii2 passes the Hall step, so its
     certificate is the resident solver's checked DRAT refutation, and
     the repeat reuses the step and its log *)
  let session = Session.create (benchmark "accum") in
  let mrrg = small_mrrg ~arch_name:"hetero-orth" 2 in
  let o1 = Session.solve ~certify:true session ~mrrg ~ii:2 in
  let o2 = Session.solve ~certify:true session ~mrrg ~ii:2 in
  List.iter
    (fun (what, (o : Session.outcome)) ->
      match o.Session.result with
      | IM.Infeasible info ->
          Alcotest.(check bool) (what ^ ": certified") true info.IM.certified;
          Alcotest.(check (option string)) (what ^ ": evidence") (Some "drat")
            (Option.map IM.evidence_name info.IM.evidence);
          Alcotest.(check bool) (what ^ ": proof steps") true (info.IM.proof_steps > 0)
      | r -> Alcotest.failf "%s: expected infeasible, got %a" what IM.pp_result r)
    [ ("first", o1); ("repeat", o2) ];
  Alcotest.(check (list bool)) "cold, then a hit" [ false; true ]
    [ o1.Session.cache_hit; o2.Session.cache_hit ];
  (* a plain request needs no proof, so it prepares its own step *)
  let o3 = Session.solve session ~mrrg ~ii:2 in
  Alcotest.(check bool) "an unlogged request misses" false o3.Session.cache_hit;
  Alcotest.(check (list int)) "one II resident" [ 2 ] (Session.compiled_iis session)

let test_session_refutation_checked_once () =
  (* a refuted resident solver logs nothing more, so certify-only
     repeats reuse the first answer's checked refutation: every answer
     stays certified by the same log *)
  let session = Session.create (benchmark "accum") in
  let mrrg = small_mrrg ~arch_name:"hetero-orth" 2 in
  let proof_steps () =
    match (Session.solve ~certify:true session ~mrrg ~ii:2).Session.result with
    | IM.Infeasible { IM.certified = true; proof_steps; _ } -> proof_steps
    | r -> Alcotest.failf "expected a certified infeasibility, got %a" IM.pp_result r
  in
  let first = proof_steps () in
  Alcotest.(check bool) "a refutation was logged" true (first > 0);
  Alcotest.(check (list int)) "repeats certified by the same log" [ first; first ]
    [ proof_steps (); proof_steps () ]

let test_session_mapped_log_stops () =
  (* a step that maps can never be refuted, so its solver stops
     logging: optimising certified repeats leave the log as the first
     search left it *)
  let session = Session.create (benchmark "2x2-f") in
  let mrrg = small_mrrg 2 in
  let answer () =
    match
      (Session.solve ~objective:Cgra_core.Formulation.Min_routing ~certify:true session ~mrrg
         ~ii:2)
        .Session.result
    with
    | IM.Mapped (_, { IM.objective_value; proof_steps; _ }) -> (objective_value, proof_steps)
    | r -> Alcotest.failf "expected a mapping, got %a" IM.pp_result r
  in
  let first = answer () in
  Alcotest.(check (pair (option int) int)) "2x2-f@homo-orth-2x2/ii2 (objective, proof steps)"
    (Some 86, 10169) first;
  Alcotest.(check (list (pair (option int) int))) "repeats add no proof step" [ first; first ]
    [ answer (); answer () ]

let answer_of = function
  | IM.Mapped (_, i) -> ("feasible", i.IM.objective_value, None)
  | IM.Infeasible i -> ("infeasible", i.IM.objective_value, Option.map IM.evidence_name i.IM.evidence)
  | IM.Timeout _ -> ("timeout", None, None)

let test_session_any_solver_agrees_with_map () =
  (* the connectivity formulation and optimisation are session steps
     like any other: a fresh session's answer is one-shot [map]'s,
     objective value and evidence included, and so is its repeat *)
  List.iter
    (fun (name, objective, (bench, dfg), ii) ->
      let cell = Printf.sprintf "%s %s@homo-orth-2x2/ii%d" name bench ii in
      let solver = solver_spec name and mrrg = small_mrrg ii in
      let session = Session.create ~solver dfg in
      let expected = answer_of (IM.map ~objective ~solver dfg mrrg) in
      List.iter
        (fun what ->
          Alcotest.(check (triple string (option int) (option string)))
            (cell ^ ": " ^ what) expected
            (answer_of (Session.solve ~objective session ~mrrg ~ii).Session.result))
        [ "first"; "repeat" ])
    [
      ("conn-sat", Cgra_core.Formulation.Feasibility, ("2x2-f", benchmark "2x2-f"), 2);
      ("conn-sat", Cgra_core.Formulation.Feasibility, ("mac", benchmark "mac"), 2);
      ("native-sat", Cgra_core.Formulation.Min_routing, ("adder", tiny_adder ()), 1);
      ("native-sat", Cgra_core.Formulation.Min_routing, ("mac", benchmark "mac"), 1);
    ]

(* an external solver that decides the model in process: a test double
   for the subprocess adapters, which keep no resident solver *)
let in_process_external =
  let module Backend = Cgra_backend.Backend in
  let name = "test-in-process" in
  {
    Cgra_core.Solver_spec.name;
    formulation = Cgra_core.Formulation_intf.paper;
    engine =
      Cgra_core.Solver_spec.External
        {
          Backend.name;
          doc = "the SAT engine behind the external interface (test double)";
          available = (fun () -> Backend.Available { version = None });
          solve = (fun ?deadline model -> Cgra_ilp.Solve.solve ?deadline model);
        };
  }

let test_session_external_repeat_is_cold () =
  (* an external solver keeps no solver: its repeat reuses the built
     model ([cache_hit]) but searches from scratch, so it is never warm *)
  let session = Session.create ~solver:in_process_external (benchmark "2x2-f") in
  let o1 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
  let o2 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
  Alcotest.(check (list string)) "feasible twice" [ "feasible"; "feasible" ]
    [ status_of o1.Session.result; status_of o2.Session.result ];
  Alcotest.(check bool) "repeat hits" true o2.Session.cache_hit;
  Alcotest.(check bool) "repeat is not warm" false o2.Session.warm_start

let test_session_optimize_reuses_totalizer () =
  (* every descent bounds the one totalizer the first descent built, by
     assumption, so optimising repeats add no solver variables *)
  let session = Session.create (tiny_adder ()) in
  let vars () =
    let o = Session.solve ~objective:Cgra_core.Formulation.Min_routing session
        ~mrrg:(small_mrrg 1) ~ii:1 in
    (match o.Session.result with
    | IM.Mapped (_, i) -> Alcotest.(check bool) "proven optimal" true i.IM.proven_optimal
    | r -> Alcotest.failf "expected a mapping, got %a" IM.pp_result r);
    Session.solver_vars session
  in
  let first = vars () in
  Alcotest.(check (list int)) "variables after each repeat" [ first; first ] [ vars (); vars () ]

let hall_answer (o : Session.outcome) =
  match o.Session.result with
  | IM.Infeasible { IM.evidence = Some IM.Hall; _ } -> true
  | _ -> false

let test_session_repeat_infeasible () =
  (* accum@hetero-orth-2x2/ii2 passes the Hall step: its infeasibility
     is the resident solver's refutation, and the repeat reuses it *)
  let session = Session.create (benchmark "accum") in
  let mrrg = small_mrrg ~arch_name:"hetero-orth" 2 in
  let o1 = Session.solve session ~mrrg ~ii:2 in
  let o2 = Session.solve session ~mrrg ~ii:2 in
  Alcotest.(check string) "accum ii=2 infeasible" "infeasible" (status_of o1.Session.result);
  Alcotest.(check string) "repeat still infeasible" "infeasible" (status_of o2.Session.result);
  Alcotest.(check bool) "repeat warm + hit" true
    (o2.Session.cache_hit && o2.Session.warm_start);
  (* mac@homo-orth-2x2/ii2 fails Hall's condition: the II keeps its
     deficiency, so the repeat is a hit but has no solver to warm *)
  let session = Session.create (benchmark "mac") in
  let o1 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
  let o2 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
  Alcotest.(check bool) "Hall answer" true (hall_answer o1 && hall_answer o2);
  Alcotest.(check bool) "repeat hit, not warm" true
    (o2.Session.cache_hit && not o2.Session.warm_start);
  Alcotest.(check (list int)) "the II is resident" [ 2 ] (Session.compiled_iis session)

let test_session_per_solve_stats () =
  (* The resident solver accumulates counters for the session's entire
     lifetime; [solve_stats] must be this solve's share only.  Were the
     outcome reporting the cumulative totals, every monotone counter of
     the second solve would dominate the first's (o2.X >= o1.X).  A
     genuine per-solve delta gives the warm repeat of a feasible query,
     which re-decides its saved phases, far less work than the cold
     solve.  (A refuted solver answers an infeasible repeat without
     propagating at all.) *)
  let module Solver = Cgra_satoca.Solver in
  let session = Session.create (benchmark "2x2-f") in
  let o1 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
  let o2 = Session.solve session ~mrrg:(small_mrrg 2) ~ii:2 in
  let s1 = o1.Session.solve_stats and s2 = o2.Session.solve_stats in
  Alcotest.(check bool) "cold solve did real work" true (s1.Solver.propagations > 0);
  Alcotest.(check bool) "warm repeat propagated something" true (s2.Solver.propagations > 0);
  Alcotest.(check bool)
    "repeat reports its own work, not the session total"
    true
    (s2.Solver.propagations < s1.Solver.propagations);
  Alcotest.(check bool)
    "repeat's conflicts exclude the cold refutation's"
    true
    (s2.Solver.conflicts < s1.Solver.conflicts || s1.Solver.conflicts = 0)

(* A cold session query is one-shot's search: the resident encoding of
   an II is [Encode.encode] of the same built model, searched once, so
   the search counters agree exactly with a fresh encode-and-solve, and
   default [IM.map] gives the same answer.  One feasible cell per
   native SAT formulation (2x2-f at II 2, so the search decides and
   propagates), then one Hall-refuted and one DRAT-refuted cell. *)
let test_session_cold_is_oneshot_search () =
  let module Solver = Cgra_satoca.Solver in
  let module Encode = Cgra_ilp.Encode in
  let module Formulation_intf = Cgra_core.Formulation_intf in
  List.iter
    (fun name ->
      let spec = solver_spec name in
      let dfg = benchmark "2x2-f" and mrrg = small_mrrg 2 in
      let o = Session.solve (Session.create ~solver:spec dfg) ~mrrg ~ii:2 in
      let built =
        spec.Cgra_core.Solver_spec.formulation.Formulation_intf.build
          ~objective:Cgra_core.Formulation.Feasibility dfg mrrg
      in
      let enc = Encode.encode built.Formulation_intf.model in
      let before = Solver.stats enc.Encode.solver in
      ignore (Solver.solve enc.Encode.solver);
      let one_shot = Solver.stats_delta ~now:(Solver.stats enc.Encode.solver) ~before in
      let s = o.Session.solve_stats in
      Alcotest.(check (list int))
        (name ^ ": conflicts, decisions, propagations")
        [ one_shot.Solver.conflicts; one_shot.Solver.decisions; one_shot.Solver.propagations ]
        [ s.Solver.conflicts; s.Solver.decisions; s.Solver.propagations ];
      Alcotest.(check bool) (name ^ ": the search did work") true (s.Solver.decisions > 0);
      (* default one-shot [map] is the same step, so the same mapping
         after the same number of SAT calls *)
      let sat_calls = function
        | IM.Mapped (_, i) | IM.Infeasible i | IM.Timeout i -> i.IM.sat_calls
      in
      let placement = function
        | IM.Mapped (m, _) -> m.Cgra_core.Mapping.placement
        | r -> Alcotest.failf "%s: expected a mapping, got %a" name IM.pp_result r
      in
      let one_shot = IM.map ~solver:spec dfg mrrg in
      Alcotest.(check (list (pair int int)))
        (name ^ ": map's placement") (placement one_shot) (placement o.Session.result);
      Alcotest.(check int)
        (name ^ ": map's SAT calls") (sat_calls one_shot) (sat_calls o.Session.result))
    [ "native-sat"; "conn-sat" ];
  (* ...and the same evidence on a placement-infeasible cell and a
     routing-infeasible one *)
  List.iter
    (fun (bench, arch_name, evidence) ->
      let dfg = benchmark bench and mrrg = small_mrrg ~arch_name 2 in
      let evidence_of = function
        | IM.Infeasible { IM.evidence = Some e; _ } -> IM.evidence_name e
        | r -> Alcotest.failf "%s@%s: expected infeasible, got %a" bench arch_name IM.pp_result r
      in
      Alcotest.(check (list string))
        (bench ^ "@" ^ arch_name ^ ": map and a fresh session")
        [ evidence; evidence ]
        [
          evidence_of (IM.map dfg mrrg);
          evidence_of (Session.solve (Session.create dfg) ~mrrg ~ii:2).Session.result;
        ])
    [ ("mac", "homo-orth", "hall"); ("accum", "hetero-orth", "drat") ]

(* Differential guarantee of the whole warm-start design: for random
   DFGs, the resident session and the stateless one-shot mapper must
   always agree — cold, warm, and across both IIs. *)
let prop_session_agrees_with_oneshot =
  QCheck2.Test.make ~name:"session warm solve agrees with one-shot cold solve" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 10_000) (int_range 1 5))
    (fun (seed, n_internal) ->
      let rng = Rng.create ~seed in
      let dfg = Generator.generate rng { Generator.default with Generator.n_internal } in
      let session = Session.create dfg in
      List.for_all
        (fun ii ->
          let mrrg = small_mrrg ii in
          let cold = IM.map ~warm_start:0.0 dfg mrrg in
          let o1 = Session.solve session ~mrrg ~ii in
          let o2 = Session.solve session ~mrrg ~ii in
          status_of cold = status_of o1.Session.result
          && status_of cold = status_of o2.Session.result
          && o2.Session.cache_hit
          (* an II the Hall step refutes has no solver to warm *)
          && o2.Session.warm_start = not (hall_answer o2))
        [ 1; 2 ])

(* ---------------- engine ---------------- *)

let test_engine_distinct_arch_digests () =
  let e = Engine.create () in
  let orth = map_request ~bench:"2x2-f" ~arch:"homo-orth" ~contexts:2 () in
  let diag = map_request ~bench:"2x2-f" ~arch:"homo-diag" ~contexts:2 () in
  let v_orth = match Engine.handle_map e orth with Ok v -> v | Error (c, m) -> Alcotest.failf "%s %s" c m in
  let v_diag = match Engine.handle_map e diag with Ok v -> v | Error (c, m) -> Alcotest.failf "%s %s" c m in
  (* Distinct fabrics must get distinct sessions... *)
  Alcotest.(check int) "two sessions resident" 2 (Engine.session_cache_stats e).Cache.size;
  Alcotest.(check int) "two MRRGs resident" 2 (Engine.mrrg_cache_stats e).Cache.size;
  (* ...and each verdict must match the stateless reference for its fabric. *)
  List.iter
    (fun (arch_name, (v : Protocol.verdict)) ->
      let mrrg = Build.elaborate (arch arch_name ~size:2) ~ii:2 in
      let reference = IM.map ~warm_start:0.0 (benchmark "2x2-f") mrrg in
      Alcotest.(check string)
        (arch_name ^ " agrees with one-shot")
        (status_of reference) v.Protocol.status)
    [ ("homo-orth", v_orth); ("homo-diag", v_diag) ];
  (* Repeats hit their own keys, not each other's. *)
  let v_orth2 = match Engine.handle_map e orth with Ok v -> v | Error (c, m) -> Alcotest.failf "%s %s" c m in
  Alcotest.(check bool) "repeat hits" true v_orth2.Protocol.provenance.Protocol.cache_hit;
  Alcotest.(check string) "repeat agrees" v_orth.Protocol.status v_orth2.Protocol.status

let test_engine_default_solver_named () =
  (* Naming the default solver is the same request as naming none: it
     must reach the resident session, so its repeat is a cache hit. *)
  let e = Engine.create () in
  let req = map_request ~bench:"2x2-f" ~contexts:2 ~backend:"native-sat" () in
  let verdict () =
    match Engine.handle_map e req with Ok v -> v | Error (c, m) -> Alcotest.failf "%s %s" c m
  in
  let v1 = verdict () in
  let v2 = verdict () in
  Alcotest.(check bool) "first is cold" false v1.Protocol.provenance.Protocol.cache_hit;
  Alcotest.(check bool) "repeat hits the session" true v2.Protocol.provenance.Protocol.cache_hit;
  Alcotest.(check string) "repeat agrees" v1.Protocol.status v2.Protocol.status;
  Alcotest.(check int) "one session resident" 1 (Engine.session_cache_stats e).Cache.size

let handle e req =
  match Engine.handle_map e req with Ok v -> v | Error (c, m) -> Alcotest.failf "%s %s" c m


let test_engine_conn_sat_served () =
  (* conn-sat runs on the native SAT engine, so a resident session
     serves it: its repeat is a cache hit, and every status matches the
     one-shot mapper on the same solver. *)
  let e = Engine.create () in
  let conn = solver_spec "conn-sat" in
  List.iter
    (fun (bench, arch_name, ii) ->
      let cell = Printf.sprintf "%s@%s/ii%d" bench arch_name ii in
      let req = map_request ~bench ~arch:arch_name ~contexts:ii ~backend:"conn-sat" () in
      let v1 = handle e req in
      let v2 = handle e req in
      Alcotest.(check bool) (cell ^ ": repeat hits the session") true
        v2.Protocol.provenance.Protocol.cache_hit;
      let reference =
        IM.map ~solver:conn ~warm_start:0.0 (benchmark bench) (small_mrrg ~arch_name ii)
      in
      Alcotest.(check string) (cell ^ ": agrees with one-shot") (status_of reference)
        v1.Protocol.status;
      Alcotest.(check string) (cell ^ ": repeat agrees") v1.Protocol.status v2.Protocol.status)
    small_grid

let test_engine_certify_explain_served () =
  (* Explaining certifies through the core, so the verdict solve needs
     no proof and a resident session serves the request.  The core is
     the one integration's "certified cores pinned" pins for this cell. *)
  let e = Engine.create () in
  let req = map_request ~bench:"mac" ~contexts:1 ~certify:true ~explain:true () in
  let v1 = handle e req in
  let v2 = handle e req in
  Alcotest.(check bool) "repeat hits the session" true v2.Protocol.provenance.Protocol.cache_hit;
  List.iter
    (fun (v : Protocol.verdict) ->
      Alcotest.(check string) "infeasible" "infeasible" v.Protocol.status;
      Alcotest.(check bool) "certified" true v.Protocol.certified;
      Alcotest.(check int) "core groups" 9 (List.length v.Protocol.core))
    [ v1; v2 ]

let test_engine_every_kind_served () =
  (* optimisation, certify without explain and the connectivity
     formulation all go through a session: the first answer is one-shot
     [map]'s, and the repeat is a warm hit with the same answer *)
  let e = Engine.create () in
  let adder = tiny_adder () in
  List.iter
    (fun (kind, (req : Protocol.map_request), dfg, arch_name) ->
      let solver = solver_spec (Option.value req.Protocol.backend ~default:"native-sat") in
      let objective =
        if req.Protocol.optimize then Cgra_core.Formulation.Min_routing
        else Cgra_core.Formulation.Feasibility
      in
      let reference =
        Protocol.verdict_of_result ~engine:"" ~wall_seconds:0.0
          (IM.map ~objective ~solver ~certify:req.Protocol.certify dfg
             (small_mrrg ~arch_name req.Protocol.contexts))
      in
      let answer (v : Protocol.verdict) =
        ((v.Protocol.status, v.Protocol.objective), (v.Protocol.evidence, v.Protocol.certified))
      in
      let same = Alcotest.(check (pair (pair string (option int)) (pair (option string) bool))) in
      let v1 = handle e req in
      let v2 = handle e req in
      same (kind ^ ": first is map's") (answer reference) (answer v1);
      same (kind ^ ": repeat is map's") (answer reference) (answer v2);
      Alcotest.(check bool) (kind ^ ": repeat hits") true v2.Protocol.provenance.Protocol.cache_hit;
      Alcotest.(check bool) (kind ^ ": repeat is warm") true
        v2.Protocol.provenance.Protocol.warm_start)
    [
      ( "optimize",
        { (map_request ~optimize:true ()) with Protocol.dfg_text = Some (Dfg.to_text adder) },
        adder, "homo-orth" );
      ( "certify-only",
        map_request ~bench:"accum" ~arch:"hetero-orth" ~contexts:2 ~certify:true (),
        benchmark "accum", "hetero-orth" );
      ( "conn-sat",
        map_request ~bench:"2x2-f" ~contexts:2 ~backend:"conn-sat" (),
        benchmark "2x2-f", "homo-orth" );
    ]

let test_engine_explain_runs_unlocked () =
  (* An explained infeasibility spends most of its time extracting and
     certifying its core.  That step runs outside the session lock, so
     plain requests on the same (DFG, arch, formulation) key are
     answered meanwhile.  Each plain request adds one solve to the
     session; the first whose count skips one came after the explained
     request's solve, and it must return before the explained request
     does. *)
  let e = Engine.create () in
  (* accum@hetero-orth-2x2: II 1 is a Hall answer, II 2 the engine's
     refutation, whose core extraction takes SAT calls *)
  let plain = map_request ~bench:"accum" ~arch:"hetero-orth" ~contexts:1 () in
  let explained =
    map_request ~bench:"accum" ~arch:"hetero-orth" ~contexts:2 ~certify:true ~explain:true ()
  in
  ignore (handle e plain);
  let explained_done = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let v = handle e explained in
        Atomic.set explained_done true;
        v)
  in
  let rec await_follower sent =
    let v = handle e plain in
    let sent = sent + 1 in
    if v.Protocol.provenance.Protocol.session_solves > sent + 1 then
      (v, Atomic.get explained_done)
    else if Atomic.get explained_done then
      Alcotest.fail "no plain request followed the explained request's solve"
    else await_follower sent
  in
  let follower, explained_was_done = await_follower 0 in
  let v = Domain.join d in
  Alcotest.(check string) "follower infeasible" "infeasible" follower.Protocol.status;
  Alcotest.(check bool) "answered while the core was being extracted" false explained_was_done;
  Alcotest.(check string) "explained infeasible" "infeasible" v.Protocol.status;
  Alcotest.(check bool) "explained certified" true v.Protocol.certified;
  Alcotest.(check bool) "explained carries a core" true (v.Protocol.core <> []);
  Alcotest.(check int) "one session" 1 (Engine.session_cache_stats e).Cache.misses

let test_engine_formulation_keys_sessions () =
  (* A paper session and a conn session must never share a solver. *)
  let e = Engine.create () in
  ignore (handle e (map_request ~bench:"2x2-f" ~contexts:2 ()));
  ignore (handle e (map_request ~bench:"2x2-f" ~contexts:2 ~backend:"conn-sat" ()));
  Alcotest.(check int) "two session misses" 2 (Engine.session_cache_stats e).Cache.misses

let test_engine_bad_requests () =
  let e = Engine.create () in
  (match Engine.handle_map e (map_request ~bench:"no-such-kernel" ()) with
  | Error ("bad_request", _) -> ()
  | Error (code, _) -> Alcotest.failf "wrong code %s" code
  | Ok _ -> Alcotest.fail "accepted unknown benchmark");
  (match Engine.handle_map e (map_request ~arch:"no-such-fabric" ()) with
  | Error ("bad_request", _) -> ()
  | _ -> Alcotest.fail "accepted unknown arch");
  (match Engine.handle_map e (map_request ~backend:"no-such-solver" ()) with
  | Error ("bad_request", msg) ->
      Alcotest.(check bool) "message lists the known solvers" true
        (Astring.String.is_infix ~affix:"native-sat" msg)
  | Error (code, _) -> Alcotest.failf "unknown solver answered %s, not bad_request" code
  | Ok _ -> Alcotest.fail "accepted unknown solver");
  (match Engine.handle_map e { (map_request ()) with Protocol.contexts = 0 } with
  | Error ("bad_request", _) -> ()
  | _ -> Alcotest.fail "accepted contexts=0");
  (match Engine.handle_map e (map_request ~size:0 ()) with
  | Error ("bad_request", _) -> ()
  | Error (code, msg) -> Alcotest.failf "size 0 answered %s: %s" code msg
  | Ok _ -> Alcotest.fail "accepted size 0");
  (* a directory exists but cannot be read as a file: name resolution
     says so with an Error, not an exception *)
  let dir = Filename.temp_dir "cgra_unreadable" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "load_benchmark on a directory" true
        (Result.is_error (Cgra_sweep.Runner.load_benchmark dir));
      Alcotest.(check bool) "load_arch on a directory" true
        (Result.is_error (Cgra_sweep.Runner.load_arch ~size:4 dir));
      List.iter
        (fun (what, req) ->
          match Engine.handle_map e req with
          | Error ("bad_request", _) -> ()
          | Error (code, msg) -> Alcotest.failf "%s directory answered %s: %s" what code msg
          | Ok _ -> Alcotest.failf "accepted a directory as %s" what)
        [ ("benchmark", map_request ~bench:dir ()); ("arch", map_request ~arch:dir ()) ])

let test_engine_concurrent_mixed_keys () =
  (* Four domains hammer two different (dfg, arch, ii) keys through one
     engine: per-session mutexes serialise same-key solves, different
     keys run in parallel, and every answer stays correct. *)
  let e = Engine.create () in
  let req_infeasible = map_request ~bench:"mac" ~contexts:1 () in
  let req_feasible = map_request ~bench:"2x2-f" ~contexts:2 () in
  let run req () =
    List.init 3 (fun _ ->
        match Engine.handle_map e req with
        | Ok v -> v.Protocol.status
        | Error (c, m) -> Printf.sprintf "error:%s:%s" c m)
  in
  let domains =
    [
      Domain.spawn (run req_infeasible);
      Domain.spawn (run req_feasible);
      Domain.spawn (run req_infeasible);
      Domain.spawn (run req_feasible);
    ]
  in
  let results = List.map Domain.join domains in
  List.iteri
    (fun i statuses ->
      let want = if i mod 2 = 0 then "infeasible" else "feasible" in
      List.iter (fun got -> Alcotest.(check string) "concurrent verdict" want got) statuses)
    results;
  let s = Engine.session_cache_stats e in
  Alcotest.(check int) "two sessions" 2 s.Cache.size

(* ---------------- live socket ---------------- *)

let temp_socket () = Printf.sprintf "/tmp/cgra-serve-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000)

let with_server ?(config = Server.default_config) f =
  let socket = temp_socket () in
  let config = { config with Server.socket_path = socket } in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () -> Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
  in
  let rec await tries =
    if tries = 0 then Alcotest.fail "server never became ready"
    else if not (Atomic.get ready) then begin
      Unix.sleepf 0.02;
      await (tries - 1)
    end
  in
  await 250;
  let shutdown () =
    ignore (Client.one_shot ~socket { Protocol.id = None; payload = Protocol.Shutdown })
  in
  let result =
    try f socket with e -> shutdown (); ignore (Domain.join server); raise e
  in
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server failed: %s" e);
  Alcotest.(check bool) "socket unlinked after shutdown" false (Sys.file_exists socket);
  result

let roundtrip_ok client request =
  match Client.roundtrip client request with
  | Ok { Protocol.reply; _ } -> reply
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let map_reply client ?id req =
  match roundtrip_ok client { Protocol.id; payload = Protocol.Map req } with
  | Protocol.Verdict v -> v
  | Protocol.Error_reply { code; message } -> Alcotest.failf "daemon error %s: %s" code message
  | _ -> Alcotest.fail "expected a verdict"

let test_socket_end_to_end () =
  with_server (fun socket ->
      let client = match Client.connect ~socket with Ok c -> c | Error e -> Alcotest.fail e in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* ping *)
          (match roundtrip_ok client { Protocol.id = Some "p"; payload = Protocol.Ping } with
          | Protocol.Ok_reply -> ()
          | _ -> Alcotest.fail "ping failed");
          (* cold then warm: the repeat must hit the encoding cache and
             reuse solver state (a routing-infeasible cell, so a solver
             decides it). *)
          let req = map_request ~bench:"accum" ~arch:"hetero-orth" ~contexts:2 () in
          let v1 = map_reply client ~id:"1" req in
          let v2 = map_reply client ~id:"2" req in
          Alcotest.(check string) "cold infeasible" "infeasible" v1.Protocol.status;
          Alcotest.(check bool) "first is cold" false v1.Protocol.provenance.Protocol.cache_hit;
          Alcotest.(check string) "warm agrees" v1.Protocol.status v2.Protocol.status;
          Alcotest.(check bool) "second hits cache" true
            v2.Protocol.provenance.Protocol.cache_hit;
          Alcotest.(check bool) "second is warm" true
            v2.Protocol.provenance.Protocol.warm_start;
          (* Served decisions agree with the one-shot mapper on the full
             2x2 smoke grid, byte-for-byte on the decision projection. *)
          List.iter
            (fun (bench, arch_name, ii) ->
              let served =
                map_reply client (map_request ~bench ~arch:arch_name ~contexts:ii ())
              in
              let mrrg = Build.elaborate (arch arch_name ~size:2) ~ii in
              let reference = IM.map ~warm_start:0.0 (benchmark bench) mrrg in
              let one_shot =
                Protocol.verdict_of_result ~engine:"sat" ~wall_seconds:0.0 reference
              in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/ii%d decision bytes" bench arch_name ii)
                (Jsonl.to_string (Protocol.decision_json one_shot))
                (Jsonl.to_string (Protocol.decision_json served)))
            small_grid;
          (* A deadline-exceeded request returns a clean timeout verdict
             and the daemon keeps serving afterwards. *)
          let hard =
            map_request ~bench:"exp_6" ~arch:"homo-orth" ~size:4 ~contexts:2 ~limit:0.005 ()
          in
          let vt = map_reply client hard in
          Alcotest.(check string) "deadline yields timeout" "timeout" vt.Protocol.status;
          let after = map_reply client req in
          Alcotest.(check string) "daemon survives the timeout" "infeasible"
            after.Protocol.status;
          (* stats are sane *)
          match roundtrip_ok client { Protocol.id = None; payload = Protocol.Stats } with
          | Protocol.Stats_reply s ->
              Alcotest.(check bool) "requests counted" true (s.Protocol.requests >= 12);
              Alcotest.(check bool) "cache hits seen" true (s.Protocol.session_hits >= 1);
              Alcotest.(check bool) "warm starts seen" true (s.Protocol.warm_starts >= 1);
              Alcotest.(check bool) "uptime advances" true (s.Protocol.uptime_seconds >= 0.0)
          | _ -> Alcotest.fail "expected stats");
      (* graceful shutdown via protocol, checked by with_server *)
      match Client.one_shot ~socket { Protocol.id = None; payload = Protocol.Shutdown } with
      | Ok { Protocol.reply = Protocol.Ok_reply; _ } -> ()
      | Ok _ -> Alcotest.fail "shutdown not acknowledged"
      | Error e -> Alcotest.failf "shutdown failed: %s" e)

(* Send raw bytes over the socket, bypassing the typed client: garbage
   and wrong-version lines must get parseable protocol errors, and the
   connection must stay usable afterwards. *)
let test_socket_protocol_errors () =
  with_server (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let send line =
            let payload = Bytes.of_string (line ^ "\n") in
            ignore (Unix.write fd payload 0 (Bytes.length payload))
          in
          let recv_line () =
            let buf = Buffer.create 256 in
            let chunk = Bytes.create 1 in
            let rec go () =
              match Unix.read fd chunk 0 1 with
              | 0 -> Alcotest.fail "connection closed early"
              | _ ->
                  if Bytes.get chunk 0 = '\n' then Buffer.contents buf
                  else begin
                    Buffer.add_char buf (Bytes.get chunk 0);
                    go ()
                  end
            in
            go ()
          in
          let expect_error ~code line =
            send line;
            match Protocol.response_of_line (recv_line ()) with
            | Ok { Protocol.reply = Protocol.Error_reply e; _ } ->
                Alcotest.(check string) ("error code for " ^ line) code e.code
            | Ok _ -> Alcotest.failf "no error for %S" line
            | Error e -> Alcotest.failf "unparseable error reply: %s" e
          in
          expect_error ~code:"protocol" "this is not json";
          expect_error ~code:"protocol" {|{"v":2,"op":"ping"}|};
          expect_error ~code:"bad_request"
            {|{"v":1,"op":"map","benchmark":"no-such-kernel","size":2}|};
          (* Same connection still answers properly framed requests. *)
          send {|{"v":1,"op":"ping","id":"after"}|};
          match Protocol.response_of_line (recv_line ()) with
          | Ok { Protocol.r_id = Some "after"; reply = Protocol.Ok_reply } -> ()
          | Ok _ -> Alcotest.fail "ping after errors failed"
          | Error e -> Alcotest.failf "unparseable ping reply: %s" e);
      match Client.one_shot ~socket { Protocol.id = None; payload = Protocol.Shutdown } with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "shutdown failed: %s" e)

let suites =
  [
    ( "serve-protocol",
      [
        Alcotest.test_case "request roundtrip" `Quick test_protocol_request_roundtrip;
        Alcotest.test_case "inline dfg/adl texts" `Quick test_protocol_inline_texts;
        Alcotest.test_case "version mismatch refused" `Quick test_protocol_version_mismatch;
        Alcotest.test_case "malformed requests refused" `Quick test_protocol_malformed;
        Alcotest.test_case "response roundtrip" `Quick test_protocol_response_roundtrip;
        Alcotest.test_case "legacy presolve_fixed reply loads" `Quick
          test_protocol_legacy_verdict;
        Alcotest.test_case "decision projection is timing-blind" `Quick
          test_protocol_decision_projection;
      ] );
    ( "serve-cache",
      [
        Alcotest.test_case "LRU eviction order and counters" `Quick test_cache_lru_eviction;
        Alcotest.test_case "capacity 0 bypasses residency" `Quick
          test_cache_capacity_zero_bypass;
        Alcotest.test_case "builder exception caches nothing" `Quick
          test_cache_builder_exception_caches_nothing;
      ] );
    ( "serve-session",
      [
        Alcotest.test_case "incremental II search in one solver" `Slow
          test_session_incremental_ii;
        Alcotest.test_case "certify without explain is served" `Quick
          test_session_certify_only_served;
        Alcotest.test_case "certify-only repeats reuse the checked refutation" `Quick
          test_session_refutation_checked_once;
        Alcotest.test_case "a mapped step's proof log stops growing" `Slow
          test_session_mapped_log_stops;
        Alcotest.test_case "repeated infeasible query stays warm" `Slow
          test_session_repeat_infeasible;
        Alcotest.test_case "outcome stats are per-solve deltas" `Slow
          test_session_per_solve_stats;
        Alcotest.test_case "a cold solve is one-shot's search" `Slow
          test_session_cold_is_oneshot_search;
        Alcotest.test_case "conn-sat and optimising sessions agree with map" `Slow
          test_session_any_solver_agrees_with_map;
        Alcotest.test_case "an external repeat hits but is never warm" `Quick
          test_session_external_repeat_is_cold;
        Alcotest.test_case "optimising repeats reuse the totalizer" `Quick
          test_session_optimize_reuses_totalizer;
        QCheck_alcotest.to_alcotest prop_session_agrees_with_oneshot;
      ] );
    ( "serve-engine",
      [
        Alcotest.test_case "distinct arch digests, distinct sessions" `Slow
          test_engine_distinct_arch_digests;
        Alcotest.test_case "a named default solver uses the session" `Slow
          test_engine_default_solver_named;
        Alcotest.test_case "conn-sat is served and agrees with one-shot" `Slow
          test_engine_conn_sat_served;
        Alcotest.test_case "certify with explain is served with its pinned core" `Slow
          test_engine_certify_explain_served;
        Alcotest.test_case "every request kind is served and agrees with map" `Slow
          test_engine_every_kind_served;
        Alcotest.test_case "explaining does not hold the session lock" `Slow
          test_engine_explain_runs_unlocked;
        Alcotest.test_case "each formulation gets its own session" `Slow
          test_engine_formulation_keys_sessions;
        Alcotest.test_case "bad requests are refused" `Quick test_engine_bad_requests;
        Alcotest.test_case "concurrent mixed-key requests" `Slow
          test_engine_concurrent_mixed_keys;
      ] );
    ( "serve-socket",
      [
        Alcotest.test_case "end-to-end: warm cache, grid agreement, deadline, shutdown" `Slow
          test_socket_end_to_end;
        Alcotest.test_case "protocol errors answered, connection survives" `Slow
          test_socket_protocol_errors;
      ] );
  ]
