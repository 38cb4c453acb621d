type t = {
  reduced : Model.t;
  infeasible : bool;
  fixed : (Model.var * bool) list;
  old_of_new : Model.var array;
  objective_offset : int;
}

(* The fixpoint reads the model's flat row storage in place: variable
   values live in one int array (-1 unknown / 0 / 1) and row liveness
   in one byte map, so a pass over the rows allocates nothing. *)
let run model =
  let n = Model.nvars model in
  let nr = Model.nrows model in
  let value = Array.make n (-1) in
  let live = Bytes.make nr '\001' in
  let infeasible = ref false in
  let n_fixed = ref 0 in
  let fix v b =
    match value.(v) with
    | -1 ->
        value.(v) <- (if b then 1 else 0);
        incr n_fixed
    | x -> if (x = 1) <> b then infeasible := true
  in
  (* Attainable [lo, hi] of row [i]'s LHS under current fixings, and
     the largest |coefficient| of an unfixed term. *)
  let lo = ref 0 and hi = ref 0 and max_free = ref 0 in
  let range i =
    lo := 0;
    hi := 0;
    max_free := 0;
    for k = 0 to Model.row_len model i - 1 do
      let c = Model.row_coef model i k in
      match value.(Model.row_var model i k) with
      | 0 -> ()
      | 1 ->
          lo := !lo + c;
          hi := !hi + c
      | _ ->
          if c > 0 then hi := !hi + c else lo := !lo + c;
          if abs c > !max_free then max_free := abs c
    done
  in
  let step () =
    for i = 0 to nr - 1 do
      if Bytes.get live i = '\001' && not !infeasible then begin
        let rhs = Model.row_rhs model i in
        let upper, lower =
          match Model.row_sense model i with
          | Model.Le -> (true, false)
          | Model.Ge -> (false, true)
          | Model.Eq -> (true, true)
        in
        range i;
        if (upper && !lo > rhs) || (lower && !hi < rhs) then infeasible := true
        else begin
          (* Force any unfixed variable whose "bad" setting overflows
             the remaining slack: raising the LHS by |c| must stay
             within [slack_hi], lowering it within [slack_lo]. *)
          let slack_hi = rhs - !lo and slack_lo = !hi - rhs in
          let fixed_before = !n_fixed in
          if (upper && !max_free > slack_hi) || (lower && !max_free > slack_lo) then
            for k = 0 to Model.row_len model i - 1 do
              let v = Model.row_var model i k in
              if value.(v) = -1 then begin
                let c = Model.row_coef model i k in
                if upper then
                  if c > 0 && c > slack_hi then fix v false
                  else if c < 0 && -c > slack_hi then fix v true;
                if lower then
                  if c > 0 && c > slack_lo then fix v true
                  else if c < 0 && -c > slack_lo then fix v false
              end
            done;
          (* Drop rows that can no longer be violated. *)
          if !n_fixed > fixed_before then range i;
          let ok = ((not upper) || !hi <= rhs) && ((not lower) || !lo >= rhs) in
          if ok then Bytes.set live i '\000'
        end
      end
    done
  in
  let rec fixpoint () =
    let before = !n_fixed in
    step ();
    if !n_fixed > before && not !infeasible then fixpoint ()
  in
  fixpoint ();
  if !n_fixed = 0 then
    (* Nothing to substitute: the model is its own reduction.  Rows the
       fixpoint found never-violable are kept — they clausify to no
       clause — so no copy is made. *)
    {
      reduced = model;
      infeasible = !infeasible;
      fixed = [];
      old_of_new = Array.init n Fun.id;
      objective_offset = 0;
    }
  else begin
    let reduced = Model.create ~name:(Model.name model ^ "+presolved") () in
    let new_of_old = Array.make n (-1) in
    let old_of_new = Array.make (n - !n_fixed) 0 in
    for v = 0 to n - 1 do
      if value.(v) = -1 then begin
        let nv = Model.add_binary_deferred reduced (fun () -> Model.var_name model v) in
        new_of_old.(v) <- nv;
        old_of_new.(nv) <- v;
        let p = Model.branch_priority model v in
        if p <> 0.0 then Model.set_branch_priority reduced nv p;
        if Model.branch_phase model v then Model.set_branch_phase reduced nv true
      end
    done;
    if not !infeasible then
      for i = 0 to nr - 1 do
        if Bytes.get live i = '\001' then begin
          let len = Model.row_len model i in
          let const = ref 0 in
          for k = 0 to len - 1 do
            if value.(Model.row_var model i k) = 1 then const := !const + Model.row_coef model i k
          done;
          Model.begin_row reduced
            ~dname:(fun () -> Model.row_name model i)
            ?group:(Model.row_group model i) (Model.row_sense model i)
            (Model.row_rhs model i - !const);
          for k = 0 to len - 1 do
            let v = Model.row_var model i k in
            if value.(v) = -1 then Model.term reduced (Model.row_coef model i k) new_of_old.(v)
          done;
          Model.end_row reduced
        end
      done;
    let objective_offset =
      match Model.objective model with
      | Model.Feasibility -> 0
      | Model.Minimize terms ->
          let reduced_terms =
            List.filter_map
              (fun (c, v) -> if value.(v) = -1 then Some (c, new_of_old.(v)) else None)
              terms
          in
          Model.set_objective reduced (Model.Minimize reduced_terms);
          List.fold_left (fun acc (c, v) -> if value.(v) = 1 then acc + c else acc) 0 terms
    in
    let fixed = ref [] in
    for v = n - 1 downto 0 do
      if value.(v) >= 0 then fixed := (v, value.(v) = 1) :: !fixed
    done;
    { reduced; infeasible = !infeasible; fixed = !fixed; old_of_new; objective_offset }
  end

let lift ~original t assign =
  let full = Array.make (Model.nvars original) false in
  List.iter (fun (v, b) -> full.(v) <- b) t.fixed;
  Array.iteri (fun nv ov -> full.(ov) <- assign.(nv)) t.old_of_new;
  full

let n_fixed t = List.length t.fixed
