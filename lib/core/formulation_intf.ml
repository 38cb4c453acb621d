module Model = Cgra_ilp.Model
module Dfg = Cgra_dfg.Dfg
module Mrrg = Cgra_mrrg.Mrrg

type built = {
  model : Model.t;
  size : Formulation.size;
  extract : bool array -> Mapping.t;
  warm : Mapping.t -> unit;
  describe_value : int -> string;
}

type impl = {
  name : string;
  doc : string;
  build : objective:Formulation.objective -> Dfg.t -> Mrrg.t -> built;
}

let default_name = "paper"

(* Seed the exact engine's variable phases from a heuristic solution:
   the first descent of the CDCL search then reproduces the incumbent
   (or repairs it cheaply), and the optimisation loop starts from its
   cost.  Hints only — completeness is untouched. *)
let apply_warm_phases (f : Formulation.t) (m : Mapping.t) =
  let model = f.Formulation.model in
  let set v = Model.set_branch_phase model v true in
  (* the formulation marks every placement variable phase-true as a
     cold-start heuristic; a warm start needs exactly one per op *)
  Hashtbl.iter (fun _ v -> Model.set_branch_phase model v false) f.Formulation.f_vars;
  List.iter
    (fun (q, p) ->
      match Hashtbl.find_opt f.Formulation.f_vars (p, q) with
      | Some v -> set v
      | None -> ())
    m.Mapping.placement;
  let j_of_producer = Hashtbl.create 32 in
  Array.iteri
    (fun j (v : Dfg.value) -> Hashtbl.replace j_of_producer v.Dfg.producer j)
    f.Formulation.values;
  List.iter
    (fun (r : Mapping.route) ->
      match Hashtbl.find_opt j_of_producer r.Mapping.value_producer with
      | None -> ()
      | Some j ->
          let sinks = f.Formulation.values.(j).Dfg.sinks in
          let k =
            let rec index i = function
              | [] -> -1
              | s :: rest -> if s = r.Mapping.sink then i else index (i + 1) rest
            in
            index 0 sinks
          in
          if k >= 0 then
            List.iter
              (fun i ->
                (match Hashtbl.find_opt f.Formulation.rk_vars (i, j, k) with
                | Some v -> set v
                | None -> ());
                match Hashtbl.find_opt f.Formulation.r_vars (i, j) with
                | Some v -> set v
                | None -> ())
              r.Mapping.nodes)
    m.Mapping.routes

let paper =
  {
    name = default_name;
    doc = "per-edge sub-value routing over the MRRG (DAC'18 \xc2\xa74)";
    build =
      (fun ~objective dfg mrrg ->
        let f = Formulation.build ~objective dfg mrrg in
        {
          model = f.Formulation.model;
          size = Formulation.size f;
          extract = (fun assign -> Extract.mapping f assign);
          warm = (fun m -> apply_warm_phases f m);
          describe_value = (fun j -> Formulation.value_description f j);
        });
  }

let conn =
  {
    name = "conn";
    doc = "connectivity formulation: single-driver route trees + per-sink unit flows";
    build =
      (fun ~objective dfg mrrg ->
        let t = Conn.build ~objective dfg mrrg in
        {
          model = t.Conn.model;
          size = Conn.size t;
          extract = (fun assign -> Conn.mapping t assign);
          warm = (fun m -> Conn.apply_warm_phases t m);
          describe_value = (fun j -> Conn.describe_value t j);
        });
  }

let all = [ paper; conn ]
let find name = List.find_opt (fun impl -> impl.name = name) all
let names () = List.map (fun impl -> impl.name) all
