module Dfg = Cgra_dfg.Dfg

let mapping (f : Formulation.t) assign =
  let placement =
    Hashtbl.fold
      (fun (p, q) v acc -> if assign.(v) then (q, p) :: acc else acc)
      f.Formulation.f_vars []
    |> List.sort compare
  in
  (* the route nodes of every (value index, sink), in one pass *)
  let used = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (i, j, k) v ->
      if assign.(v) then
        Hashtbl.replace used (j, k)
          (i :: Option.value ~default:[] (Hashtbl.find_opt used (j, k))))
    f.Formulation.rk_vars;
  (* a producer's value index: the last value it produces *)
  let index = Hashtbl.create (Array.length f.Formulation.values) in
  Array.iteri
    (fun idx (v : Dfg.value) -> Hashtbl.replace index v.Dfg.producer idx)
    f.Formulation.values;
  let routes =
    Array.to_list f.Formulation.values
    |> List.concat_map (fun (value : Dfg.value) ->
           let producer = value.Dfg.producer in
           let j = Hashtbl.find index producer in
           List.mapi
             (fun k sink ->
               let nodes =
                 List.sort compare (Option.value ~default:[] (Hashtbl.find_opt used (j, k)))
               in
               { Mapping.value_producer = producer; sink; nodes })
             value.Dfg.sinks)
  in
  {
    Mapping.dfg = f.Formulation.dfg;
    mrrg = f.Formulation.mrrg;
    placement;
    routes;
  }
