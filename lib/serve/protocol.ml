module Jsonl = Cgra_sweep.Jsonl
module IM = Cgra_core.Ilp_mapper
module Mapping = Cgra_core.Mapping
module Dfg = Cgra_dfg.Dfg
module Mrrg = Cgra_mrrg.Mrrg

let version = 1

type map_request = {
  benchmark : string;
  dfg_text : string option;
  arch : string;
  adl_text : string option;
  size : int;
  contexts : int;
  limit : float;
  optimize : bool;
  certify : bool;
  explain : bool;
  backend : string option;
}

type payload = Map of map_request | Stats | Shutdown | Ping

type request = { id : string option; payload : payload }

type provenance = {
  mrrg_cache_hit : bool;
  cache_hit : bool;
  warm_start : bool;
  session_solves : int;
}

let cold_provenance =
  {
    mrrg_cache_hit = false;
    cache_hit = false;
    warm_start = false;
    session_solves = 0;
  }

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
  status : string;
  engine : string;
  objective : int option;
  routing_cost : int option;
  placement : (string * string) list;
  solve_seconds : float;
  build_seconds : float;
  wall_seconds : float;
  sat_calls : int;
  certified : bool;
  proof_steps : int;
  core : string list;
  evidence : string option;
  provenance : provenance;
}

type reply =
  | Verdict of verdict
  | Stats_reply of stats
  | Ok_reply
  | Error_reply of { code : string; message : string }

type response = { r_id : string option; reply : reply }

(* ---------------- construction ---------------- *)

let verdict_of_result ?(mrrg_cache_hit = false) ?(cache_hit = false) ?(warm_start = false)
    ?(session_solves = 0) ~engine ~wall_seconds (result : IM.result) =
  let info, status =
    match result with
    | IM.Mapped (_, info) -> (info, "feasible")
    | IM.Infeasible info -> (info, "infeasible")
    | IM.Timeout info -> (info, "timeout")
  in
  let placement, routing_cost =
    match result with
    | IM.Mapped (m, _) ->
        let names =
          List.map
            (fun (q, p) ->
              ((Dfg.node m.Mapping.dfg q).Dfg.name, (Mrrg.node m.Mapping.mrrg p).Mrrg.name))
            m.Mapping.placement
        in
        (names, Some (Mapping.routing_cost m))
    | _ -> ([], None)
  in
  let core = match info.IM.diagnosis with Some d -> d.IM.core | None -> [] in
  let provenance = { mrrg_cache_hit; cache_hit; warm_start; session_solves } in
  {
    status;
    engine;
    objective = info.IM.objective_value;
    routing_cost;
    placement;
    solve_seconds = info.IM.solve_seconds;
    build_seconds = info.IM.build_seconds;
    wall_seconds;
    sat_calls = info.IM.sat_calls;
    certified = info.IM.certified;
    proof_steps = info.IM.proof_steps;
    core;
    evidence = Option.map IM.evidence_name info.IM.evidence;
    provenance;
  }

(* ---------------- JSON helpers ---------------- *)

let num_int n = Jsonl.Num (float_of_int n)

let opt_field name to_json = function None -> [] | Some v -> [ (name, to_json v) ]

let str_opt j = Jsonl.to_str j
let int_opt j = Jsonl.to_int j
let float_opt j = match j with Jsonl.Num f -> Some f | _ -> None
let bool_opt j = Jsonl.to_bool j

let get obj name conv = Option.bind (Jsonl.member name obj) conv
let get_or obj name conv default = Option.value (get obj name conv) ~default

(* ---------------- requests ---------------- *)

let map_request_to_fields m =
  [ ("benchmark", Jsonl.Str m.benchmark) ]
  @ opt_field "dfg" (fun s -> Jsonl.Str s) m.dfg_text
  @ [ ("arch", Jsonl.Str m.arch) ]
  @ opt_field "adl" (fun s -> Jsonl.Str s) m.adl_text
  @ [
      ("size", num_int m.size);
      ("contexts", num_int m.contexts);
      ("limit", Jsonl.Num m.limit);
      ("optimize", Jsonl.Bool m.optimize);
      ("certify", Jsonl.Bool m.certify);
      ("explain", Jsonl.Bool m.explain);
    ]
  @ opt_field "backend" (fun s -> Jsonl.Str s) m.backend

let request_to_line { id; payload } =
  let op, fields =
    match payload with
    | Map m -> ((if m.explain then "explain" else "map"), map_request_to_fields m)
    | Stats -> ("stats", [])
    | Shutdown -> ("shutdown", [])
    | Ping -> ("ping", [])
  in
  Jsonl.to_string
    (Jsonl.Obj
       ([ ("v", num_int version) ]
       @ opt_field "id" (fun s -> Jsonl.Str s) id
       @ [ ("op", Jsonl.Str op) ]
       @ fields))

let map_request_of_json ~explain obj =
  let benchmark = get_or obj "benchmark" str_opt "mac" in
  let dfg_text = get obj "dfg" str_opt in
  let arch = get_or obj "arch" str_opt "homo-orth" in
  let adl_text = get obj "adl" str_opt in
  let size = get_or obj "size" int_opt 4 in
  let contexts = get_or obj "contexts" int_opt 1 in
  let limit = get_or obj "limit" float_opt 0.0 in
  let optimize = get_or obj "optimize" bool_opt false in
  let certify = get_or obj "certify" bool_opt false in
  let explain = get_or obj "explain" bool_opt explain in
  let backend = get obj "backend" str_opt in
  {
    benchmark;
    dfg_text;
    arch;
    adl_text;
    size;
    contexts;
    limit;
    optimize;
    certify;
    explain;
    backend;
  }

let request_of_line line =
  match Jsonl.of_string line with
  | Error msg -> Error ("protocol", "malformed JSON: " ^ msg)
  | Ok obj -> (
      match get obj "v" int_opt with
      | None -> Error ("protocol", "missing protocol version field \"v\"")
      | Some v when v <> version ->
          Error
            ( "protocol",
              Printf.sprintf "protocol version %d not supported (server speaks %d)" v version )
      | Some _ -> (
          let id = get obj "id" str_opt in
          match get obj "op" str_opt with
          | None -> Error ("protocol", "missing \"op\" field")
          | Some "map" -> Ok { id; payload = Map (map_request_of_json ~explain:false obj) }
          | Some "explain" -> Ok { id; payload = Map (map_request_of_json ~explain:true obj) }
          | Some "stats" -> Ok { id; payload = Stats }
          | Some "shutdown" -> Ok { id; payload = Shutdown }
          | Some "ping" -> Ok { id; payload = Ping }
          | Some op -> Error ("protocol", Printf.sprintf "unknown op %S" op)))

(* ---------------- verdicts and responses ---------------- *)

let provenance_to_json p =
  Jsonl.Obj
    [
      ("mrrg_cache_hit", Jsonl.Bool p.mrrg_cache_hit);
      ("cache_hit", Jsonl.Bool p.cache_hit);
      ("warm_start", Jsonl.Bool p.warm_start);
      ("session_solves", num_int p.session_solves);
    ]

let provenance_of_json obj =
  {
    mrrg_cache_hit = get_or obj "mrrg_cache_hit" bool_opt false;
    cache_hit = get_or obj "cache_hit" bool_opt false;
    warm_start = get_or obj "warm_start" bool_opt false;
    session_solves = get_or obj "session_solves" int_opt 0;
  }

let verdict_to_json v =
  Jsonl.Obj
    ([ ("status", Jsonl.Str v.status); ("engine", Jsonl.Str v.engine) ]
    @ opt_field "objective" num_int v.objective
    @ opt_field "routing_cost" num_int v.routing_cost
    @ (match v.placement with
      | [] -> []
      | ps ->
          [
            ( "placement",
              Jsonl.Obj (List.map (fun (op, node) -> (op, Jsonl.Str node)) ps) );
          ])
    @ [
        ("solve_seconds", Jsonl.Num v.solve_seconds);
        ("build_seconds", Jsonl.Num v.build_seconds);
        ("wall_seconds", Jsonl.Num v.wall_seconds);
        ("sat_calls", num_int v.sat_calls);
        ("certified", Jsonl.Bool v.certified);
        ("proof_steps", num_int v.proof_steps);
      ]
    @ (match v.core with
      | [] -> []
      | core -> [ ("core", Jsonl.List (List.map (fun g -> Jsonl.Str g) core)) ])
    @ opt_field "evidence" (fun e -> Jsonl.Str e) v.evidence
    @ [ ("provenance", provenance_to_json v.provenance) ])

let verdict_of_json obj =
  let placement =
    match Jsonl.member "placement" obj with
    | Some (Jsonl.Obj fields) ->
        List.filter_map
          (fun (op, j) -> match str_opt j with Some n -> Some (op, n) | None -> None)
          fields
    | _ -> []
  in
  let core =
    match Jsonl.member "core" obj with
    | Some (Jsonl.List items) -> List.filter_map str_opt items
    | _ -> []
  in
  {
    status = get_or obj "status" str_opt "error";
    engine = get_or obj "engine" str_opt "";
    objective = get obj "objective" int_opt;
    routing_cost = get obj "routing_cost" int_opt;
    placement;
    solve_seconds = get_or obj "solve_seconds" float_opt 0.0;
    build_seconds = get_or obj "build_seconds" float_opt 0.0;
    wall_seconds = get_or obj "wall_seconds" float_opt 0.0;
    sat_calls = get_or obj "sat_calls" int_opt 0;
    certified = get_or obj "certified" bool_opt false;
    proof_steps = get_or obj "proof_steps" int_opt 0;
    core;
    evidence = get obj "evidence" str_opt;
    provenance =
      (match Jsonl.member "provenance" obj with
      | Some p -> provenance_of_json p
      | None -> cold_provenance);
  }

let decision_json v =
  Jsonl.Obj
    ([ ("status", Jsonl.Str v.status) ] @ opt_field "objective" num_int v.objective)

let stats_to_json s =
  Jsonl.Obj
    [
      ("requests", num_int s.requests);
      ("warm_starts", num_int s.warm_starts);
      ("uptime_seconds", Jsonl.Num s.uptime_seconds);
      ("pool_workers", num_int s.pool_workers);
      ( "mrrg_cache",
        Jsonl.Obj
          [
            ("hits", num_int s.mrrg_hits);
            ("misses", num_int s.mrrg_misses);
            ("evictions", num_int s.mrrg_evictions);
            ("size", num_int s.mrrg_size);
            ("capacity", num_int s.mrrg_capacity);
          ] );
      ( "session_cache",
        Jsonl.Obj
          [
            ("hits", num_int s.session_hits);
            ("misses", num_int s.session_misses);
            ("evictions", num_int s.session_evictions);
            ("size", num_int s.session_size);
            ("capacity", num_int s.session_capacity);
          ] );
    ]

let stats_of_json obj =
  let sub name field default =
    match Jsonl.member name obj with
    | Some s -> get_or s field int_opt default
    | None -> default
  in
  {
    requests = get_or obj "requests" int_opt 0;
    warm_starts = get_or obj "warm_starts" int_opt 0;
    uptime_seconds = get_or obj "uptime_seconds" float_opt 0.0;
    pool_workers = get_or obj "pool_workers" int_opt 0;
    mrrg_hits = sub "mrrg_cache" "hits" 0;
    mrrg_misses = sub "mrrg_cache" "misses" 0;
    mrrg_evictions = sub "mrrg_cache" "evictions" 0;
    mrrg_size = sub "mrrg_cache" "size" 0;
    mrrg_capacity = sub "mrrg_cache" "capacity" 0;
    session_hits = sub "session_cache" "hits" 0;
    session_misses = sub "session_cache" "misses" 0;
    session_evictions = sub "session_cache" "evictions" 0;
    session_size = sub "session_cache" "size" 0;
    session_capacity = sub "session_cache" "capacity" 0;
  }

let response_to_line { r_id; reply } =
  let fields =
    match reply with
    | Verdict v -> [ ("ok", Jsonl.Bool true); ("verdict", verdict_to_json v) ]
    | Stats_reply s -> [ ("ok", Jsonl.Bool true); ("stats", stats_to_json s) ]
    | Ok_reply -> [ ("ok", Jsonl.Bool true) ]
    | Error_reply { code; message } ->
        [ ("ok", Jsonl.Bool false); ("error", Jsonl.Str code); ("message", Jsonl.Str message) ]
  in
  Jsonl.to_string
    (Jsonl.Obj
       ([ ("v", num_int version) ] @ opt_field "id" (fun s -> Jsonl.Str s) r_id @ fields))

let response_of_line line =
  match Jsonl.of_string line with
  | Error msg -> Error ("malformed response: " ^ msg)
  | Ok obj -> (
      let r_id = get obj "id" str_opt in
      match get obj "ok" bool_opt with
      | None -> Error "response missing \"ok\" field"
      | Some false ->
          let code = get_or obj "error" str_opt "internal" in
          let message = get_or obj "message" str_opt "" in
          Ok { r_id; reply = Error_reply { code; message } }
      | Some true -> (
          match (Jsonl.member "verdict" obj, Jsonl.member "stats" obj) with
          | Some v, _ -> Ok { r_id; reply = Verdict (verdict_of_json v) }
          | None, Some s -> Ok { r_id; reply = Stats_reply (stats_of_json s) }
          | None, None -> Ok { r_id; reply = Ok_reply }))
