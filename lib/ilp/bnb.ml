module Deadline = Cgra_util.Deadline

type outcome =
  | Optimal of bool array * int
  | Infeasible
  | Timeout of (bool array * int) option

(* Rows in array form, plus an index from variable to the rows it
   appears in (with its coefficient), for incremental propagation. *)
type rows = {
  terms : (int * int) array array; (* row -> (coeff, var) array *)
  sense : Model.sense array;
  rhs : int array;
}

exception Contradiction
exception Out_of_time

let solve ?(deadline = Deadline.none) model =
  let n = Model.nvars model in
  let row_list = Model.rows model in
  let nrows = List.length row_list in
  let rows =
    {
      terms = Array.of_list (List.map (fun (r : Model.row) -> Array.of_list r.terms) row_list);
      sense = Array.of_list (List.map (fun (r : Model.row) -> r.sense) row_list);
      rhs = Array.of_list (List.map (fun (r : Model.row) -> r.rhs) row_list);
    }
  in
  let obj_coeff = Array.make n 0 in
  (match Model.objective model with
  | Model.Feasibility -> ()
  | Model.Minimize terms -> List.iter (fun (c, v) -> obj_coeff.(v) <- obj_coeff.(v) + c) terms);
  (* state *)
  let value = Array.make n (-1) in
  let trail = ref [] in
  let assign v b =
    match value.(v) with
    | -1 ->
        value.(v) <- (if b then 1 else 0);
        trail := v :: !trail
    | x -> if (x = 1) <> b then raise Contradiction
  in
  let range ri =
    Array.fold_left
      (fun (lo, hi) (c, v) ->
        match value.(v) with
        | 0 -> (lo, hi)
        | 1 -> (lo + c, hi + c)
        | _ -> if c > 0 then (lo, hi + c) else (lo + c, hi))
      (0, 0) rows.terms.(ri)
  in
  (* Propagate all rows to fixpoint; raises Contradiction. *)
  let propagate () =
    let changed = ref true in
    while !changed do
      changed := false;
      for ri = 0 to nrows - 1 do
        let lo, hi = range ri in
        let rhs = rows.rhs.(ri) in
        (match rows.sense.(ri) with
        | Model.Le -> if lo > rhs then raise Contradiction
        | Model.Ge -> if hi < rhs then raise Contradiction
        | Model.Eq -> if lo > rhs || hi < rhs then raise Contradiction);
        let slack_hi =
          match rows.sense.(ri) with
          | Model.Le | Model.Eq -> Some (rhs - lo)
          | Model.Ge -> None
        and slack_lo =
          match rows.sense.(ri) with
          | Model.Ge | Model.Eq -> Some (hi - rhs)
          | Model.Le -> None
        in
        Array.iter
          (fun (c, v) ->
            if value.(v) = -1 then begin
              (match slack_hi with
              | Some s ->
                  if c > 0 && c > s then begin
                    assign v false;
                    changed := true
                  end
                  else if c < 0 && -c > s then begin
                    assign v true;
                    changed := true
                  end
              | None -> ());
              match slack_lo with
              | Some s ->
                  if value.(v) = -1 then begin
                    if c > 0 && c > s then begin
                      assign v true;
                      changed := true
                    end
                    else if c < 0 && -c > s then begin
                      assign v false;
                      changed := true
                    end
                  end
              | None -> ()
            end)
          rows.terms.(ri)
      done
    done
  in
  let best : (bool array * int) option ref = ref None in
  (* optimistic objective completion given current fixings *)
  let obj_bound () =
    let b = ref 0 in
    for v = 0 to n - 1 do
      let c = obj_coeff.(v) in
      if c <> 0 then
        match value.(v) with
        | 1 -> b := !b + c
        | 0 -> ()
        | _ -> if c < 0 then b := !b + c
    done;
    !b
  in
  (* Poll the clock at every node: a node's row scan costs far more
     than a clock read, and one node of a 4x4 model can take tens of
     milliseconds. *)
  let rec dfs () =
    if Deadline.expired deadline then raise Out_of_time;
    (* choose an unfixed variable appearing in the tightest row;
       fall back to the first unfixed one *)
    let pick = ref (-1) in
    (try
       for v = 0 to n - 1 do
         if value.(v) = -1 then begin
           pick := v;
           raise Exit
         end
       done
     with Exit -> ());
    if !pick = -1 then begin
      (* complete assignment *)
      let assign_fn v = value.(v) = 1 in
      if Model.feasible model assign_fn then begin
        let obj = Model.objective_value model assign_fn in
        match !best with
        | Some (_, b) when b <= obj -> ()
        | _ -> best := Some (Array.init n (fun v -> value.(v) = 1), obj)
      end
    end
    else begin
      let v = !pick in
      let explore b =
        (* objective-aware pruning before descending *)
        let mark = !trail in
        (try
           assign v b;
           propagate ();
           let prune =
             match !best with
             | Some (_, bobj) -> obj_bound () >= bobj
             | None -> false
           in
           if not prune then dfs ()
         with Contradiction -> ());
        (* undo *)
        let rec undo l =
          if l != mark then
            match l with
            | [] -> ()
            | v :: rest ->
                value.(v) <- -1;
                undo rest
        in
        undo !trail;
        trail := mark
      in
      (* try the objective-preferred polarity first *)
      if obj_coeff.(v) > 0 then begin
        explore false;
        explore true
      end
      else begin
        explore true;
        explore false
      end
    end
  in
  try
    (try
       propagate ();
       dfs ()
     with Contradiction -> ());
    match !best with
    | Some (a, obj) -> Optimal (a, obj)
    | None -> Infeasible
  with Out_of_time -> Timeout !best
