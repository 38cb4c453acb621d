module Dfg = Cgra_dfg.Dfg
module Op = Cgra_dfg.Op
module Mrrg = Cgra_mrrg.Mrrg
module Model = Cgra_ilp.Model
module Bitset = Cgra_util.Bitset

type objective = Feasibility | Min_routing | Weighted of (Mrrg.node -> int)

and t = {
  model : Model.t;
  dfg : Dfg.t;
  mrrg : Mrrg.t;
  values : Dfg.value array;
  f_vars : (int * int, Model.var) Hashtbl.t;
  r_vars : (int * int, Model.var) Hashtbl.t;
  rk_vars : (int * int * int, Model.var) Hashtbl.t;
}

let candidates dfg mrrg q =
  let op = (Dfg.node dfg q).Dfg.op in
  List.filter (fun p -> Mrrg.supports mrrg p op) (Mrrg.func_units mrrg)

(* The operand-o input port of functional-unit node p, if it exists. *)
let operand_node mrrg p o =
  List.find_opt (fun i -> (Mrrg.node mrrg i).Mrrg.operand = Some o) (Mrrg.fanins mrrg p)

let route_fanins mrrg i = List.filter (fun m -> Mrrg.is_route mrrg m) (Mrrg.fanins mrrg i)
let route_fanouts mrrg i = List.filter (fun m -> Mrrg.is_route mrrg m) (Mrrg.fanouts mrrg i)

(* Dataflow-order ranks (cycle-tolerant BFS from source operations),
   used to stage placement decisions: placing operations in dataflow
   order lets each placement's routing corridors propagate before the
   next decision. *)
let dataflow_ranks dfg =
  let n = Dfg.node_count dfg in
  let rank = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun (node : Dfg.node) ->
      if Dfg.in_edges dfg node.Dfg.id = [] then begin
        rank.(node.Dfg.id) <- 0;
        Queue.push node.Dfg.id queue
      end)
    (Dfg.nodes dfg);
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    incr next;
    List.iter
      (fun (e : Dfg.edge) ->
        if rank.(e.Dfg.dst) < 0 then begin
          rank.(e.Dfg.dst) <- !next;
          Queue.push e.Dfg.dst queue
        end)
      (Dfg.out_edges dfg q)
  done;
  (* nodes only reachable through back-edges (pure cycles) come last *)
  Array.iteri (fun q r -> if r < 0 then rank.(q) <- n) rank;
  rank

(* Constraints (1)-(2), the rows both formulations open with: one F
   variable per capable (FU, operation) pair — constraint (3) by
   omission — with the branch priority and phase that stage placement
   decisions, then the [place:<op>] rows and the FU [excl:<fu>] rows.
   Returns the candidate lists and the F variables. *)
let add_placement model dfg mrrg =
  let n_ops = Dfg.node_count dfg in
  let cand = Array.init n_ops (fun q -> candidates dfg mrrg q) in
  let f_vars = Hashtbl.create 256 in
  let ranks = dataflow_ranks dfg in
  for q = 0 to n_ops - 1 do
    let qname = (Dfg.node dfg q).Dfg.name in
    List.iter
      (fun p ->
        let v =
          Model.add_binary_deferred model (fun () ->
              Printf.sprintf "F|%s|%s" (Mrrg.node mrrg p).Mrrg.name qname)
        in
        (* decide placements before routing details, and in dataflow
           order: each placement's routing corridors then propagate
           before the next operation is placed *)
        Model.set_branch_priority model v (100.0 +. (10.0 *. float_of_int (n_ops - ranks.(q))));
        Model.set_branch_phase model v true;
        Hashtbl.replace f_vars (p, q) v)
      cand.(q);
    (* (1) every operation is placed exactly once; an empty candidate
       list yields an unsatisfiable row, i.e. provable infeasibility *)
    Model.add_row model
      ~dname:(fun () -> Printf.sprintf "place[%s]" qname)
      ~group:("place:" ^ qname)
      (List.map (fun p -> (1, Hashtbl.find f_vars (p, q))) cand.(q))
      Model.Eq 1
  done;
  (* (2) functional-unit exclusivity *)
  List.iter
    (fun p ->
      let users = ref [] in
      for q = 0 to n_ops - 1 do
        match Hashtbl.find_opt f_vars (p, q) with Some v -> users := v :: !users | None -> ()
      done;
      if List.length !users > 1 then
        Model.add_row model
          ~dname:(fun () -> Printf.sprintf "excl[%s]" (Mrrg.node mrrg p).Mrrg.name)
          ~group:("excl:" ^ (Mrrg.node mrrg p).Mrrg.name)
          (List.map (fun v -> (1, v)) !users)
          Model.Le 1)
    (Mrrg.func_units mrrg);
  (cand, f_vars)

(* The optimized builder.  Emission order — variable creation, row
   insertion, term order — is bit-for-bit the order of
   [build_reference] below: corridors are iterated in ascending node
   id (the order the reference's dense [for] scans visit), and the
   hashtables holding R/Rk variables are created with the same initial
   sizes and fed in the same insertion sequence, so their iteration
   order (constraint (4), objective (10)) is unchanged.  The golden LP
   pin and the formulation-differential fuzz invariant enforce this. *)
let build ?(objective = Min_routing) ?(prune = true) ?(anchor_sinks = true)
    ?(backward_continuity = true) dfg mrrg =
  let model = Model.create ~name:(Dfg.name dfg ^ "@mrrg") () in
  let values = Array.of_list (Dfg.values dfg) in
  let cand, f_vars = add_placement model dfg mrrg in
  let r_vars = Hashtbl.create 4096 in
  let rk_vars = Hashtbl.create 8192 in
  let fvar p q = Hashtbl.find_opt f_vars (p, q) in

  (* ----- per-value routing variables and constraints (5)-(9) ----- *)
  let n_nodes = Mrrg.n_nodes mrrg in
  (* every route node, for the unpruned ablation path *)
  let route_mask =
    lazy
      (let m = Bitset.create n_nodes in
       List.iter (Bitset.add m) (Mrrg.route_nodes mrrg);
       m)
  in
  (* Forward closures keyed by the producer-candidate set: operations
     sharing an op class share candidates, hence producer fanouts,
     hence the whole cone — the per-value BFS of the reference builder
     is mostly repeated work. *)
  let cone_memo : (int list, int list * Bitset.t * Bitset.t) Hashtbl.t = Hashtbl.create 16 in
  let cone_of cands =
    match Hashtbl.find_opt cone_memo cands with
    | Some x -> x
    | None ->
        let producer_outs = List.concat_map (fun p' -> route_fanouts mrrg p') cands in
        let cone =
          if prune then Mrrg.reachable_set mrrg ~starts:producer_outs else Lazy.force route_mask
        in
        let x = (producer_outs, cone, Bitset.of_list n_nodes producer_outs) in
        Hashtbl.replace cone_memo cands x;
        x
  in
  let forced_zero = Hashtbl.create 64 in
  (* Generation-stamped scratch arrays shadow the tuple-keyed variable
     hashtables on the hot path: lookups are O(1) array reads, while
     every creation still feeds [r_vars]/[rk_vars] in the reference
     builder's exact insertion sequence (constraint (4) and the
     objective iterate those tables, so their order is load-bearing). *)
  let rv_id = Array.make n_nodes (-1) and rv_gen = Array.make n_nodes (-1) in
  let rk_id = Array.make n_nodes (-1) and rk_gen = Array.make n_nodes (-1) in
  let term_p = Array.make n_nodes (-1) and term_gen = Array.make n_nodes (-1) in
  let sink_stamp = ref (-1) in
  let rvar i j =
    if rv_gen.(i) = j then rv_id.(i)
    else begin
      let v =
        Model.add_binary_deferred model (fun () ->
            Printf.sprintf "R|%s|v%d" (Mrrg.node mrrg i).Mrrg.name j)
      in
      Hashtbl.replace r_vars (i, j) v;
      rv_gen.(i) <- j;
      rv_id.(i) <- v;
      v
    end
  in
  Array.iteri
    (fun j (value : Dfg.value) ->
      let vgroup = Printf.sprintf "route:val%d" j in
      (* one boxing of the group label per value, not per row *)
      let vg = Some vgroup in
      let q' = value.Dfg.producer in
      let producer_outs, cone, is_producer_out = cone_of cand.(q') in
      let in_value_set = Bitset.create n_nodes in
      List.iteri
        (fun k (sink : Dfg.edge) ->
          let q = sink.Dfg.dst and o = sink.Dfg.operand in
          (* termination nodes: the operand-o port of each candidate
             host of the sink operation *)
          let terms =
            List.filter_map
              (fun p ->
                match operand_node mrrg p o with
                | Some i -> Some (i, p)
                | None ->
                    (* host lacks the port: placement there is impossible *)
                    (match fvar p q with
                    | Some v ->
                        if not (Hashtbl.mem forced_zero v) then begin
                          Hashtbl.replace forced_zero v ();
                          Model.add_row model ?group:vg [ (1, v) ] Model.Eq 0
                        end
                    | None -> ());
                    None)
              cand.(q)
          in
          incr sink_stamp;
          let stamp = !sink_stamp in
          List.iter
            (fun (i, p) ->
              term_gen.(i) <- stamp;
              term_p.(i) <- p)
            terms;
          (* the corridor: route nodes on some producer→sink path.  The
             backward sweep never leaves the forward cone (see
             Mrrg.corridor), so its cost scales with the corridor, not
             the graph. *)
          let corr =
            if prune then Mrrg.corridor mrrg ~cone ~targets:(List.map fst terms)
            else Lazy.force route_mask
          in
          let in_set i = Bitset.mem corr i in
          let rkvar i =
            if rk_gen.(i) = stamp then rk_id.(i)
            else begin
              let v =
                Model.add_binary_deferred model (fun () ->
                    Printf.sprintf "Rk|%s|v%d|s%d" (Mrrg.node mrrg i).Mrrg.name j k)
              in
              Hashtbl.replace rk_vars (i, j, k) v;
              rk_gen.(i) <- stamp;
              rk_id.(i) <- v;
              v
            end
          in
          Bitset.union_into ~into:in_value_set corr;
          Bitset.iter
            (fun i ->
              let rk = rkvar i in
              (* (8) value-level usage *)
              Model.add_row2 model ?group:vg 1 rk (-1) (rvar i j) Model.Le 0;
              (if term_gen.(i) = stamp then begin
                 let p = term_p.(i) in
                  (* (6), optionally strengthened to an equality:
                     placing the sink operation at p pins its operand
                     port, and using the port pins the placement.
                     Valid because every legal route for this sub-value
                     must end exactly here. *)
                 let f = Option.get (fvar p q) in
                 Model.add_row2 model ?group:vg 1 rk (-1) f
                   (if anchor_sinks then Model.Eq else Model.Le)
                   0
               end
               else begin
                 (* (5) fanout routing: continue through some successor *)
                 Model.begin_row model ?group:vg Model.Le 0;
                 Model.term model 1 rk;
                 List.iter
                   (fun m -> if in_set m then Model.term model (-1) (rkvar m))
                   (Mrrg.fanouts mrrg i);
                 Model.end_row model
               end);
              (* backward continuity: a used node needs a used
                 predecessor, except where the value is injected by the
                 producer.  Exactness-preserving (minimal routes always
                 satisfy it) and a large propagation win. *)
              if backward_continuity && not (Bitset.mem is_producer_out i) then begin
                Model.begin_row model ?group:vg Model.Le 0;
                Model.term model 1 rk;
                List.iter
                  (fun m -> if in_set m then Model.term model (-1) (rkvar m))
                  (Mrrg.fanins mrrg i);
                Model.end_row model
              end)
            corr;
          (* placements whose operand port lies outside every corridor
             are impossible for the sink operation *)
          List.iter
            (fun (i, p) ->
              if not (in_set i) then
                let f = Option.get (fvar p q) in
                if not (Hashtbl.mem forced_zero f) then begin
                  Hashtbl.replace forced_zero f ();
                  Model.add_row model ?group:vg [ (1, f) ] Model.Eq 0
                end)
            terms;
          (* (7) initial fanout at every candidate producer location *)
          List.iter
            (fun p' ->
              let f = Option.get (fvar p' q') in
              List.iter
                (fun out ->
                  if in_set out then
                    Model.add_row2 model ?group:vg 1 (rkvar out) (-1) f Model.Eq 0
                  else if not (Hashtbl.mem forced_zero f) then begin
                    (* no corridor from this placement to the sink *)
                    Hashtbl.replace forced_zero f ();
                    Model.add_row model ?group:vg [ (1, f) ] Model.Eq 0
                  end)
                (route_fanouts mrrg p'))
            cand.(q'))
        value.Dfg.sinks;
      ignore producer_outs;
      (* (9) multiplexer input exclusivity, value level.  A fanin with
         a live R variable for this value is necessarily a route node,
         so the route-only filter is subsumed by the stamp check. *)
      Bitset.iter
        (fun i ->
          let fins = Mrrg.fanins mrrg i in
          match fins with
          | [] | [ _ ] -> ()
          | _ ->
              Model.begin_row model ?group:vg Model.Eq 0;
              Model.term model 1 (rvar i j);
              List.iter
                (fun m -> if rv_gen.(m) = j then Model.term model (-1) rv_id.(m))
                fins;
              Model.end_row model)
        in_value_set)
    values;

  (* (4) route exclusivity across values *)
  let users_of_route = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun (i, _) v ->
      let l = Option.value ~default:[] (Hashtbl.find_opt users_of_route i) in
      Hashtbl.replace users_of_route i (v :: l))
    r_vars;
  Hashtbl.iter
    (fun i vars ->
      if List.length vars > 1 then
        Model.add_row model
          ~dname:(fun () -> Printf.sprintf "route_excl[%s]" (Mrrg.node mrrg i).Mrrg.name)
          ~group:("excl:" ^ (Mrrg.node mrrg i).Mrrg.name)
          (List.map (fun v -> (1, v)) vars)
          Model.Le 1)
    users_of_route;

  (* (10) objective *)
  (match objective with
  | Feasibility -> Model.set_objective model Model.Feasibility
  | Min_routing ->
      Model.set_objective model
        (Model.Minimize (Hashtbl.fold (fun _ v acc -> (1, v) :: acc) r_vars []))
  | Weighted weight ->
      Model.set_objective model
        (Model.Minimize
           (Hashtbl.fold
              (fun (i, _) v acc -> (weight (Mrrg.node mrrg i), v) :: acc)
              r_vars [])));
  { model; dfg; mrrg; values; f_vars; r_vars; rk_vars }

let placement_var t ~op ~fu = Hashtbl.find_opt t.f_vars (fu, op)

(* The placement rows alone, the leading rows of [build] and of
   [Conn.build]: what an explained Hall answer checks its core on. *)
let build_placement dfg mrrg =
  let model = Model.create ~name:(Dfg.name dfg ^ "@place") () in
  let _, f_vars = add_placement model dfg mrrg in
  {
    model;
    dfg;
    mrrg;
    values = Array.of_list (Dfg.values dfg);
    f_vars;
    r_vars = Hashtbl.create 1;
    rk_vars = Hashtbl.create 1;
  }

(* The reference builder: the pre-corridor dense-scan implementation,
   eager names and all, retained verbatim as the differential-testing
   oracle for [build].  Slow by design — do not "fix" it; the
   fuzz invariant compares the optimized builder against it. *)
let build_reference ?(objective = Min_routing) ?(prune = true) ?(anchor_sinks = true)
    ?(backward_continuity = true) dfg mrrg =
  let model = Model.create ~name:(Dfg.name dfg ^ "@mrrg") () in
  let values = Array.of_list (Dfg.values dfg) in
  let n_ops = Dfg.node_count dfg in
  let cand = Array.init n_ops (fun q -> candidates dfg mrrg q) in
  let f_vars = Hashtbl.create 256 in
  let r_vars = Hashtbl.create 4096 in
  let rk_vars = Hashtbl.create 8192 in
  let fvar p q = Hashtbl.find_opt f_vars (p, q) in
  let ranks = dataflow_ranks dfg in

  (* ----- placement variables and constraints (1)-(3) ----- *)
  for q = 0 to n_ops - 1 do
    let qname = (Dfg.node dfg q).Dfg.name in
    List.iter
      (fun p ->
        let v = Model.add_binary model (Printf.sprintf "F|%s|%s" (Mrrg.node mrrg p).Mrrg.name qname) in
        Model.set_branch_priority model v (100.0 +. (10.0 *. float_of_int (n_ops - ranks.(q))));
        Model.set_branch_phase model v true;
        Hashtbl.replace f_vars (p, q) v)
      cand.(q);
    Model.add_row model
      ~name:(Printf.sprintf "place[%s]" qname)
      ~group:(Printf.sprintf "place:%s" qname)
      (List.map (fun p -> (1, Hashtbl.find f_vars (p, q))) cand.(q))
      Model.Eq 1
  done;
  (* (2) functional-unit exclusivity *)
  List.iter
    (fun p ->
      let users = ref [] in
      for q = 0 to n_ops - 1 do
        match fvar p q with Some v -> users := v :: !users | None -> ()
      done;
      if List.length !users > 1 then
        Model.add_row model
          ~name:(Printf.sprintf "excl[%s]" (Mrrg.node mrrg p).Mrrg.name)
          ~group:(Printf.sprintf "excl:%s" (Mrrg.node mrrg p).Mrrg.name)
          (List.map (fun v -> (1, v)) !users)
          Model.Le 1)
    (Mrrg.func_units mrrg);

  (* ----- per-value routing variables and constraints (5)-(9) ----- *)
  let n_nodes = Mrrg.n_nodes mrrg in
  let forced_zero = Hashtbl.create 64 in
  let rvar i j =
    match Hashtbl.find_opt r_vars (i, j) with
    | Some v -> v
    | None ->
        let v =
          Model.add_binary model
            (Printf.sprintf "R|%s|v%d" (Mrrg.node mrrg i).Mrrg.name j)
        in
        Hashtbl.replace r_vars (i, j) v;
        v
  in
  Array.iteri
    (fun j (value : Dfg.value) ->
      let vgroup = Printf.sprintf "route:val%d" j in
      let q' = value.Dfg.producer in
      let producer_outs =
        List.concat_map (fun p' -> route_fanouts mrrg p') cand.(q')
      in
      let forward =
        if prune then Mrrg.reachable_from mrrg ~starts:producer_outs
        else Array.make n_nodes true
      in
      let in_value_set = Array.make n_nodes false in
      List.iteri
        (fun k (sink : Dfg.edge) ->
          let q = sink.Dfg.dst and o = sink.Dfg.operand in
          let terms =
            List.filter_map
              (fun p ->
                match operand_node mrrg p o with
                | Some i -> Some (i, p)
                | None ->
                    (match fvar p q with
                    | Some v ->
                        if not (Hashtbl.mem forced_zero v) then begin
                          Hashtbl.replace forced_zero v ();
                          Model.add_row model ~group:vgroup [ (1, v) ] Model.Eq 0
                        end
                    | None -> ());
                    None)
              cand.(q)
          in
          let term_of = Hashtbl.create 16 in
          List.iter (fun (i, p) -> Hashtbl.replace term_of i p) terms;
          let back =
            if prune then Mrrg.co_reachable mrrg ~targets:(List.map fst terms)
            else Array.make n_nodes true
          in
          let in_set i = Mrrg.is_route mrrg i && forward.(i) && back.(i) in
          let is_producer_out = Array.make n_nodes false in
          List.iter (fun out -> is_producer_out.(out) <- true) producer_outs;
          let rkvar i =
            match Hashtbl.find_opt rk_vars (i, j, k) with
            | Some v -> v
            | None ->
                let v =
                  Model.add_binary model
                    (Printf.sprintf "Rk|%s|v%d|s%d" (Mrrg.node mrrg i).Mrrg.name j k)
                in
                Hashtbl.replace rk_vars (i, j, k) v;
                v
            in
          for i = 0 to n_nodes - 1 do
            if in_set i then begin
              in_value_set.(i) <- true;
              let rk = rkvar i in
              (* (8) value-level usage *)
              Model.add_row model ~group:vgroup [ (1, rk); (-1, rvar i j) ] Model.Le 0;
              (match Hashtbl.find_opt term_of i with
              | Some p ->
                  (* (6) *)
                  let f = Option.get (fvar p q) in
                  Model.add_row model ~group:vgroup [ (1, rk); (-1, f) ]
                    (if anchor_sinks then Model.Eq else Model.Le)
                    0
              | None ->
                  (* (5) fanout routing: continue through some successor *)
                  let succs = List.filter in_set (Mrrg.fanouts mrrg i) in
                  Model.add_row model ~group:vgroup
                    ((1, rk) :: List.map (fun m -> (-1, rkvar m)) succs)
                    Model.Le 0);
              if backward_continuity && not is_producer_out.(i) then begin
                let preds = List.filter in_set (Mrrg.fanins mrrg i) in
                Model.add_row model ~group:vgroup
                  ((1, rk) :: List.map (fun m -> (-1, rkvar m)) preds)
                  Model.Le 0
              end
            end
          done;
          List.iter
            (fun (i, p) ->
              if not (in_set i) then
                let f = Option.get (fvar p q) in
                if not (Hashtbl.mem forced_zero f) then begin
                  Hashtbl.replace forced_zero f ();
                  Model.add_row model ~group:vgroup [ (1, f) ] Model.Eq 0
                end)
            terms;
          (* (7) initial fanout at every candidate producer location *)
          List.iter
            (fun p' ->
              let f = Option.get (fvar p' q') in
              List.iter
                (fun out ->
                  if in_set out then
                    Model.add_row model ~group:vgroup [ (1, rkvar out); (-1, f) ] Model.Eq 0
                  else if not (Hashtbl.mem forced_zero f) then begin
                    Hashtbl.replace forced_zero f ();
                    Model.add_row model ~group:vgroup [ (1, f) ] Model.Eq 0
                  end)
                (route_fanouts mrrg p'))
            cand.(q'))
        value.Dfg.sinks;
      (* (9) multiplexer input exclusivity, value level *)
      for i = 0 to n_nodes - 1 do
        if in_value_set.(i) then begin
          let fins = route_fanins mrrg i in
          if List.length (Mrrg.fanins mrrg i) > 1 then begin
            let present =
              List.filter_map (fun m -> Hashtbl.find_opt r_vars (m, j)) fins
            in
            Model.add_row model ~group:vgroup
              ((1, rvar i j) :: List.map (fun v -> (-1, v)) present)
              Model.Eq 0
          end
        end
      done)
    values;

  (* (4) route exclusivity across values *)
  let users_of_route = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun (i, _) v ->
      let l = Option.value ~default:[] (Hashtbl.find_opt users_of_route i) in
      Hashtbl.replace users_of_route i (v :: l))
    r_vars;
  Hashtbl.iter
    (fun i vars ->
      if List.length vars > 1 then
        Model.add_row model
          ~name:(Printf.sprintf "route_excl[%s]" (Mrrg.node mrrg i).Mrrg.name)
          ~group:(Printf.sprintf "excl:%s" (Mrrg.node mrrg i).Mrrg.name)
          (List.map (fun v -> (1, v)) vars)
          Model.Le 1)
    users_of_route;

  (* (10) objective *)
  (match objective with
  | Feasibility -> Model.set_objective model Model.Feasibility
  | Min_routing ->
      Model.set_objective model
        (Model.Minimize (Hashtbl.fold (fun _ v acc -> (1, v) :: acc) r_vars []))
  | Weighted weight ->
      Model.set_objective model
        (Model.Minimize
           (Hashtbl.fold
              (fun (i, _) v acc -> (weight (Mrrg.node mrrg i), v) :: acc)
              r_vars [])));
  { model; dfg; mrrg; values; f_vars; r_vars; rk_vars }

(* ----- constraint-group labels (unsat-core vocabulary) ----- *)

type group_subject =
  | Placement of string
  | Exclusivity of string
  | Routing of int

let group_subject label =
  let after prefix =
    if String.length label > String.length prefix
       && String.sub label 0 (String.length prefix) = prefix
    then Some (String.sub label (String.length prefix) (String.length label - String.length prefix))
    else None
  in
  match after "place:" with
  | Some op -> Some (Placement op)
  | None -> (
      match after "excl:" with
      | Some res -> Some (Exclusivity res)
      | None -> (
          match after "route:val" with
          | Some j -> Option.map (fun j -> Routing j) (int_of_string_opt j)
          | None -> None))

let value_description t j =
  if j < 0 || j >= Array.length t.values then invalid_arg "Formulation.value_description";
  let v = t.values.(j) in
  let producer = (Dfg.node t.dfg v.Dfg.producer).Dfg.name in
  let sink (e : Dfg.edge) =
    Printf.sprintf "%s.op%d" (Dfg.node t.dfg e.Dfg.dst).Dfg.name e.Dfg.operand
  in
  Printf.sprintf "%s -> %s" producer (String.concat ", " (List.map sink v.Dfg.sinks))

type size = { n_f : int; n_r : int; n_rk : int; n_rows : int }

let size t =
  {
    n_f = Hashtbl.length t.f_vars;
    n_r = Hashtbl.length t.r_vars;
    n_rk = Hashtbl.length t.rk_vars;
    n_rows = Model.nrows t.model;
  }

let pp_size fmt s =
  Format.fprintf fmt "F=%d R=%d Rk=%d rows=%d" s.n_f s.n_r s.n_rk s.n_rows
