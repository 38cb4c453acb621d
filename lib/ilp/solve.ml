module Solver = Cgra_satoca.Solver
module Card = Cgra_satoca.Card
module Deadline = Cgra_util.Deadline

type engine = Sat_backed | Branch_and_bound | Brute_force

type outcome =
  | Optimal of bool array * int
  | Feasible of bool array * int
  | Infeasible
  | Timeout

type report = {
  outcome : outcome;
  solve_seconds : float;
  sat_calls : int;
  stats : Solver.stats;
}

let pp_outcome fmt = function
  | Optimal (_, obj) -> Format.fprintf fmt "optimal (objective %d)" obj
  | Feasible (_, obj) -> Format.fprintf fmt "feasible (objective %d, not proven optimal)" obj
  | Infeasible -> Format.fprintf fmt "infeasible"
  | Timeout -> Format.fprintf fmt "timeout"

(* ---------------- SAT-backed engine ---------------- *)

(* The objective's totalizer, built at the first descent that needs a
   bound and kept on the encoding, so every later descent on a
   resident solver reuses it. *)
let totalizer (enc : Encode.t) =
  match enc.Encode.totalizer with
  | Some tot -> tot
  | None ->
      let units =
        List.concat_map (fun (w, l) -> List.init w (fun _ -> l)) enc.Encode.objective_lits
      in
      let tot = Card.Totalizer.build enc.Encode.solver units in
      enc.Encode.totalizer <- Some tot;
      tot

let descend ~deadline (enc : Encode.t) model sat_calls =
  let solver = enc.Encode.solver in
  incr sat_calls;
  match Solver.solve ~deadline solver with
  | Solver.Unsat -> Infeasible
  | Solver.Unknown -> Timeout
  | Solver.Sat -> (
      match Model.objective model with
      | Model.Feasibility -> Optimal (Encode.assignment enc model, 0)
      | Model.Minimize _ ->
          (* Solution-improving descent: bound the weighted objective
             literals below the incumbent and re-solve until UNSAT. *)
          let best_assign = ref (Encode.assignment enc model) in
          let norm_value assign =
            (* objective minus offset = number of true unit literals *)
            Model.objective_value model (fun v -> assign.(v)) - enc.Encode.objective_offset
          in
          let best = ref (norm_value !best_assign) in
          if enc.Encode.objective_lits = [] then
            Optimal (!best_assign, Model.objective_value model (fun v -> !best_assign.(v)))
          else begin
            let tot = totalizer enc in
            (* Each descent step enforces the strictly tighter bound as
               an assumption, so the clause database stays free of
               bound units and reusable under any bound, proof-logged
               or not. *)
            let solve_bounded k =
              let assumptions = Option.to_list (Card.Totalizer.bound_lit tot k) in
              Solver.solve_with ~deadline ~assumptions solver
            in
            let result = ref None in
            while !result = None do
              if !best = 0 then result := Some (Optimal (!best_assign, enc.Encode.objective_offset))
              else begin
                incr sat_calls;
                match solve_bounded (!best - 1) with
                | Solver.Sat ->
                    let a = Encode.assignment enc model in
                    let v = norm_value a in
                    (* The bound guarantees strict improvement. *)
                    best_assign := a;
                    best := v
                | Solver.Unsat ->
                    result :=
                      Some (Optimal (!best_assign, !best + enc.Encode.objective_offset))
                | Solver.Unknown ->
                    result :=
                      Some (Feasible (!best_assign, !best + enc.Encode.objective_offset))
              end
            done;
            match !result with Some r -> r | None -> assert false
          end)

let search ?(deadline = Deadline.none) (enc : Encode.t) model =
  let start = Deadline.now () in
  let before = Solver.stats enc.Encode.solver in
  let sat_calls = ref 0 in
  let outcome = descend ~deadline enc model sat_calls in
  (* A resident solver's counters span every solve so far; the report
     is this search's share. *)
  {
    outcome;
    solve_seconds = Deadline.elapsed_of ~start;
    sat_calls = !sat_calls;
    stats = Solver.stats_delta ~now:(Solver.stats enc.Encode.solver) ~before;
  }

(* ---------------- brute force ---------------- *)

let solve_brute model =
  let n = Model.nvars model in
  if n > 22 then invalid_arg "Solve: brute force limited to 22 variables";
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let assign v = (mask lsr v) land 1 = 1 in
    if Model.feasible model assign then begin
      let obj = Model.objective_value model assign in
      match !best with
      | Some (_, b) when b <= obj -> ()
      | _ -> best := Some (Array.init n assign, obj)
    end
  done;
  match !best with Some (a, obj) -> Optimal (a, obj) | None -> Infeasible

(* ---------------- unified front end ---------------- *)

(* Non-clausal engines (B&B, brute force) cannot emit DRAT inferences,
   so an [Infeasible] answer is cross-certified: a proof-logging SAT
   refutation of the same model is produced, and a disagreement between
   the engines is a bug worth crashing on. *)
let cross_certify ~deadline ~proof ?inprocess model sat_calls sat_stats =
  let enc = Encode.encode ~proof ?inprocess model in
  incr sat_calls;
  let r = Solver.solve ~deadline enc.Encode.solver in
  sat_stats := Solver.stats enc.Encode.solver;
  match r with
  | Solver.Unsat -> ()
  | Solver.Sat ->
      failwith
        "Solve: certification refuted the engine — the SAT solver found the \
         supposedly infeasible model satisfiable"
  | Solver.Unknown -> () (* deadline expired: the certificate stays incomplete *)

let solve_report ?(deadline = Deadline.none) ?(engine = Sat_backed) ?proof ?inprocess model =
  let start = Deadline.now () in
  let sat_calls = ref 0 in
  let sat_stats = ref Solver.zero_stats in
  let certify_infeasible outcome =
    (match (outcome, proof) with
    | Infeasible, Some proof ->
        cross_certify ~deadline ~proof ?inprocess model sat_calls sat_stats
    | _ -> ());
    outcome
  in
  let outcome =
    match engine with
    | Brute_force -> certify_infeasible (solve_brute model)
    | Sat_backed ->
        let enc = Encode.encode ?proof ?inprocess model in
        let report = search ~deadline enc model in
        sat_calls := report.sat_calls;
        sat_stats := report.stats;
        report.outcome
    | Branch_and_bound ->
        certify_infeasible
          (match Bnb.solve ~deadline model with
          | Bnb.Optimal (a, obj) -> Optimal (a, obj)
          | Bnb.Infeasible -> Infeasible
          | Bnb.Timeout (Some (a, obj)) -> Feasible (a, obj)
          | Bnb.Timeout None -> Timeout)
  in
  {
    outcome;
    solve_seconds = Deadline.elapsed_of ~start;
    sat_calls = !sat_calls;
    stats = !sat_stats;
  }

let solve ?deadline ?engine ?proof ?inprocess model =
  (solve_report ?deadline ?engine ?proof ?inprocess model).outcome
