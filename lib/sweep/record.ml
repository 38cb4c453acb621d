type status = Feasible | Infeasible | Timeout | Error of string

type cross = { backend : string; status : status; objective : int option; agreed : bool }

type t = {
  job : Job.t;
  status : status;
  engine : string;
  total_seconds : float;
  solve_seconds : float;
  build_seconds : float;
  sat_calls : int;
  certified : bool;
  objective : int option;
  core : string list;
  evidence : string option;
  cross : cross option;
}

let error job msg =
  {
    job;
    status = Error msg;
    engine = "-";
    total_seconds = 0.0;
    solve_seconds = 0.0;
    build_seconds = 0.0;
    sat_calls = 0;
    certified = false;
    objective = None;
    core = [];
    evidence = None;
    cross = None;
  }

let status_to_string = function
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Timeout -> "timeout"
  | Error _ -> "error"

let status_of_string ?(message = "") = function
  | "feasible" -> Ok Feasible
  | "infeasible" -> Ok Infeasible
  | "timeout" -> Ok Timeout
  | "error" -> Ok (Error message)
  | other -> Stdlib.Error (Printf.sprintf "unknown status %S" other)

let definitive r = match r.status with Feasible | Infeasible -> true | Timeout | Error _ -> false

let disagreement r = match r.cross with Some c -> not c.agreed | None -> false

(* Two verdicts disagree only when both claim a proof and the proofs
   contradict: opposite feasibility verdicts, or equal-status optima
   with different objective values.  A timeout or error on either side
   is inconclusive, never a disagreement. *)
let verdicts_agree ~status:(s1 : status) ~objective:(o1 : int option) ~status2:(s2 : status)
    ~objective2:(o2 : int option) =
  match (s1, s2) with
  | Feasible, Infeasible | Infeasible, Feasible -> false
  | Feasible, Feasible -> (
      match (o1, o2) with Some a, Some b -> a = b | _ -> true)
  | _ -> true

let to_json r =
  let base =
    [
      ("benchmark", Jsonl.Str r.job.Job.benchmark);
      ("arch", Jsonl.Str r.job.Job.arch);
      ("size", Jsonl.Num (float_of_int r.job.Job.size));
      ("contexts", Jsonl.Num (float_of_int r.job.Job.contexts));
      ("limit", Jsonl.Num r.job.Job.limit);
      ("status", Jsonl.Str (status_to_string r.status));
      ("engine", Jsonl.Str r.engine);
      ("total_seconds", Jsonl.Num r.total_seconds);
      ("solve_seconds", Jsonl.Num r.solve_seconds);
      ("build_seconds", Jsonl.Num r.build_seconds);
      ("sat_calls", Jsonl.Num (float_of_int r.sat_calls));
      ("certified", Jsonl.Bool r.certified);
    ]
  in
  let objective =
    match r.objective with
    | Some o -> [ ("objective", Jsonl.Num (float_of_int o)) ]
    | None -> []
  in
  let extra = match r.status with Error msg -> [ ("message", Jsonl.Str msg) ] | _ -> [] in
  (* [core] is journaled only when an explanation was extracted, so
     plain sweeps keep their compact lines. *)
  let core =
    match r.core with
    | [] -> []
    | groups -> [ ("core", Jsonl.List (List.map (fun g -> Jsonl.Str g) groups)) ]
  in
  let evidence = match r.evidence with Some e -> [ ("evidence", Jsonl.Str e) ] | None -> [] in
  (* cross-check provenance, only for cross-checked cells; a violated
     check additionally carries ["disagreement": true] so journals can
     be grepped for the only lines that ever matter *)
  let cross =
    match r.cross with
    | None -> []
    | Some c ->
        [
          ("cross_backend", Jsonl.Str c.backend);
          ("cross_status", Jsonl.Str (status_to_string c.status));
          ("cross_agreed", Jsonl.Bool c.agreed);
        ]
        @ (match c.objective with
          | Some o -> [ ("cross_objective", Jsonl.Num (float_of_int o)) ]
          | None -> [])
        @ if c.agreed then [] else [ ("disagreement", Jsonl.Bool true) ]
  in
  Jsonl.Obj (base @ objective @ core @ evidence @ cross @ extra)

let of_json j =
  let str k = Option.bind (Jsonl.member k j) Jsonl.to_str in
  let num k = Option.bind (Jsonl.member k j) Jsonl.to_float in
  let int_field k = Option.bind (Jsonl.member k j) Jsonl.to_int in
  match (str "benchmark", str "arch", int_field "size", int_field "contexts", str "status") with
  | Some benchmark, Some arch, Some size, Some contexts, Some status_s ->
      let status =
        status_of_string ~message:(Option.value ~default:"" (str "message")) status_s
      in
      let cross =
        match (str "cross_backend", str "cross_status") with
        | Some backend, Some cs -> (
            match status_of_string cs with
            | Ok s ->
                Some
                  {
                    backend;
                    status = s;
                    objective = int_field "cross_objective";
                    agreed =
                      Option.value ~default:true
                        (Option.bind (Jsonl.member "cross_agreed" j) Jsonl.to_bool);
                  }
            | Stdlib.Error _ -> None)
        | _ -> None
      in
      Result.map
        (fun status ->
          {
            job =
              {
                Job.benchmark;
                arch;
                size;
                contexts;
                limit = Option.value ~default:0.0 (num "limit");
              };
            status;
            engine = Option.value ~default:"-" (str "engine");
            total_seconds = Option.value ~default:0.0 (num "total_seconds");
            solve_seconds = Option.value ~default:0.0 (num "solve_seconds");
            build_seconds = Option.value ~default:0.0 (num "build_seconds");
            sat_calls = Option.value ~default:0 (int_field "sat_calls");
            (* absent in pre-certification journals: read as uncertified *)
            certified =
              Option.value ~default:false
                (Option.bind (Jsonl.member "certified" j) Jsonl.to_bool);
            (* absent for feasibility-only queries and legacy journals *)
            objective = int_field "objective";
            (* absent in pre-explanation journals: read as no core *)
            core =
              (match Jsonl.member "core" j with
              | Some (Jsonl.List items) -> List.filter_map Jsonl.to_str items
              | _ -> []);
            (* absent in journals that predate it *)
            evidence = str "evidence";
            cross;
          })
        status
  | _ -> Stdlib.Error "missing required field (benchmark/arch/size/contexts/status)"

let to_line r = Jsonl.to_string (to_json r)

let of_line line =
  match Jsonl.of_string line with Ok j -> of_json j | Error e -> Stdlib.Error e

let pp fmt r =
  Format.fprintf fmt "%a %s (%s, %.2fs)" Job.pp r.job (status_to_string r.status) r.engine
    r.total_seconds
