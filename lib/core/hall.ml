module Dfg = Cgra_dfg.Dfg
module Mrrg = Cgra_mrrg.Mrrg
module Model = Cgra_ilp.Model

type witness = { ops : int list; fus : int list }

let sorted_unique l = List.sort_uniq compare l

(* ---------------- the checkers ----------------

   Both are defined above the search, so they cannot call it: each
   re-derives what it needs from its own inputs. *)

let check_witness dfg mrrg w =
  let n_ops = Dfg.node_count dfg in
  let ops = sorted_unique w.ops and fus = sorted_unique w.fus in
  let in_fus = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace in_fus p ()) fus;
  let func_units = Mrrg.func_units mrrg in
  let errors =
    List.concat
      [
        (if ops = [] then [ "S is empty" ] else []);
        (if List.length ops <> List.length w.ops || List.length fus <> List.length w.fus then
           [ "S or N(S) repeats an element" ]
         else []);
        List.filter_map
          (fun q ->
            if q < 0 || q >= n_ops then Some (Printf.sprintf "op %d is not in the DFG" q) else None)
          ops;
        List.filter_map
          (fun p ->
            if p < 0 || p >= Mrrg.n_nodes mrrg || not (Mrrg.is_func mrrg p) then
              Some (Printf.sprintf "node %d is not a functional unit" p)
            else None)
          fus;
        List.concat_map
          (fun q ->
            if q < 0 || q >= n_ops then []
            else
              let node = Dfg.node dfg q in
              List.filter_map
                (fun p ->
                  if Mrrg.supports mrrg p node.Dfg.op && not (Hashtbl.mem in_fus p) then
                    Some
                      (Printf.sprintf "%s can run on %s, which is outside N(S)" node.Dfg.name
                         (Mrrg.node mrrg p).Mrrg.name)
                  else None)
                func_units)
          ops;
        (if List.length fus >= List.length ops then
           [
             Printf.sprintf "|N(S)| = %d is not below |S| = %d" (List.length fus)
               (List.length ops);
           ]
         else []);
      ]
  in
  match errors with [] -> Ok () | errs -> Error (String.concat "; " errs)

let core_groups dfg mrrg w =
  List.map (fun q -> "place:" ^ (Dfg.node dfg q).Dfg.name) (sorted_unique w.ops)
  @ List.map (fun p -> "excl:" ^ (Mrrg.node mrrg p).Mrrg.name) (sorted_unique w.fus)

(* Rows of the named groups, materialised once. *)
let group_rows model groups =
  let wanted = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace wanted g ()) groups;
  let acc = ref [] in
  for i = Model.nrows model - 1 downto 0 do
    match Model.row_group model i with
    | Some g when Hashtbl.mem wanted g -> acc := (g, Model.row model i) :: !acc
    | Some _ -> ()
    | None -> acc := ("", Model.row model i) :: !acc
  done;
  !acc

(* A cutting-planes refutation in one addition.  Let c_v be [v]'s total
   coefficient in the demand rows (the [place:] rows, [= b] or [>= b],
   positive terms) and d_v its total in the capacity rows (the [excl:]
   rows, [<= b], positive terms).  Summing the demand rows gives
   sum c_v x_v >= D.  On binaries, c_v x_v <= d_v x_v + max(0, c_v - d_v),
   and summing the capacity rows bounds sum d_v x_v <= C, so
   sum c_v x_v <= C + sum max(0, c_v - d_v).  A bound below D is a
   contradiction.  A variable no capacity row covers (an FU with one
   user has no [excl:] row) is bounded as a lone binary. *)
let check_counting model core =
  let demand = ref 0 and capacity = ref 0 in
  let c = Hashtbl.create 64 and d = Hashtbl.create 64 in
  let add tbl v k = Hashtbl.replace tbl v (k + Option.value ~default:0 (Hashtbl.find_opt tbl v)) in
  let positive (r : Model.row) = List.for_all (fun (k, _) -> k > 0) r.Model.terms in
  List.iter
    (fun (g, (r : Model.row)) ->
      match Formulation.group_subject g with
      | Some (Formulation.Placement _) when r.Model.sense <> Model.Le && positive r ->
          demand := !demand + r.Model.rhs;
          List.iter (fun (k, v) -> add c v k) r.Model.terms
      | Some (Formulation.Exclusivity _) when r.Model.sense = Model.Le && positive r ->
          capacity := !capacity + r.Model.rhs;
          List.iter (fun (k, v) -> add d v k) r.Model.terms
      | _ -> ())
    (group_rows model core);
  let lone =
    Hashtbl.fold
      (fun v cv acc -> acc + max 0 (cv - Option.value ~default:0 (Hashtbl.find_opt d v)))
      c 0
  in
  let bound = !capacity + lone in
  if bound < !demand then Ok ()
  else
    Error
      (Printf.sprintf "the core's rows place %d operations on at most %d slots" !demand bound)

let check_relaxations model ~placement_var core relaxations =
  let rows = group_rows model core in
  List.length relaxations = List.length core
  && List.for_all
       (fun (dropped, pairs) ->
         let on = Hashtbl.create 16 in
         let mapped =
           List.for_all
             (fun (q, p) ->
               match placement_var ~op:q ~fu:p with
               | Some v ->
                   Hashtbl.replace on v ();
                   true
               | None -> false)
             pairs
         in
         mapped
         && List.for_all
              (fun (g, r) -> g = dropped || Model.row_satisfied r (Hashtbl.mem on))
              rows)
       relaxations

(* ---------------- the search ---------------- *)

type deficiency = {
  witness : witness;
  root : int;  (* the operation the failed augmentation started from *)
  fu_of : (int, int) Hashtbl.t;  (* op of S other than [root] -> its FU *)
  parent : (int, int) Hashtbl.t;  (* FU of N(S) -> the op it was reached from *)
}

let witness d = d.witness

let searches_run = Atomic.make 0
let searches () = Atomic.get searches_run

(* Kuhn's augmenting paths, operations in id order.  When the
   augmentation from [q] fails, its depth-first search has visited
   every FU reachable from [q] by an alternating path, all of them
   matched: those FUs are N(S), and [q] with their mates is S. *)
let search dfg mrrg =
  Atomic.incr searches_run;
  let n_ops = Dfg.node_count dfg in
  (* candidate FUs per operation kind, by one scan of the node ids *)
  let by_op = Hashtbl.create 8 in
  let candidates q =
    let op = (Dfg.node dfg q).Dfg.op in
    match Hashtbl.find_opt by_op op with
    | Some ps -> ps
    | None ->
        let rec scan i acc =
          if i < 0 then acc else scan (i - 1) (if Mrrg.supports mrrg i op then i :: acc else acc)
        in
        let ps = scan (Mrrg.n_nodes mrrg - 1) [] in
        Hashtbl.replace by_op op ps;
        ps
  in
  let mate = Hashtbl.create 64 in
  let rec augment visited parent q =
    List.exists
      (fun p ->
        if Hashtbl.mem visited p then false
        else begin
          Hashtbl.replace visited p ();
          Hashtbl.replace parent p q;
          match Hashtbl.find_opt mate p with
          | Some q' when not (augment visited parent q') -> false
          | _ ->
              Hashtbl.replace mate p q;
              true
        end)
      (candidates q)
  in
  (* a free candidate, when there is one, needs no alternating path *)
  let take_free q =
    match List.find_opt (fun p -> not (Hashtbl.mem mate p)) (candidates q) with
    | Some p ->
        Hashtbl.replace mate p q;
        true
    | None -> false
  in
  let rec from q =
    if q >= n_ops then None
    else if take_free q then from (q + 1)
    else
      let visited = Hashtbl.create 16 and parent = Hashtbl.create 16 in
      if augment visited parent q then from (q + 1)
      else
        let fus = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) visited []) in
        let fu_of = Hashtbl.create 16 in
        List.iter (fun p -> Hashtbl.replace fu_of (Hashtbl.find mate p) p) fus;
        let ops = List.sort compare (q :: List.map (Hashtbl.find mate) fus) in
        Some { witness = { ops; fus }; root = q; fu_of; parent }
  in
  from 0

(* Flip the alternating path from [root] to FU [p]: every FU on it
   takes the op it was reached from, so [root] gets placed and [p]
   ends up holding two operations of S. *)
let flip d p =
  let place = Hashtbl.copy d.fu_of in
  let rec walk p =
    let q = Hashtbl.find d.parent p in
    let next = Hashtbl.find_opt d.fu_of q in
    Hashtbl.replace place q p;
    match next with Some p' when q <> d.root -> walk p' | _ -> ()
  in
  walk p;
  place

let pairs place = List.sort compare (Hashtbl.fold (fun q p acc -> (q, p) :: acc) place [])

let relaxations dfg mrrg d =
  let without_op q =
    if q = d.root then pairs d.fu_of
    else
      let place = flip d (Hashtbl.find d.fu_of q) in
      Hashtbl.remove place q;
      pairs place
  in
  List.combine (core_groups dfg mrrg d.witness)
    (List.map without_op d.witness.ops @ List.map (fun p -> pairs (flip d p)) d.witness.fus)
