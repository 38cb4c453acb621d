module Solver = Cgra_satoca.Solver
module Card = Cgra_satoca.Card
module Deadline = Cgra_util.Deadline

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

let solve_report ?(deadline = Deadline.none) ?proof ?inprocess model =
  let start = Deadline.now () in
  let report = search ~deadline (Encode.encode ?proof ?inprocess model) model in
  { report with solve_seconds = Deadline.elapsed_of ~start }

let solve ?deadline ?proof ?inprocess model =
  (solve_report ?deadline ?proof ?inprocess model).outcome
