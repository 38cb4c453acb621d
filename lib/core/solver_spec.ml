module Solve = Cgra_ilp.Solve
module Backend = Cgra_backend.Backend
module Milp_adapter = Cgra_backend.Milp_adapter

type engine = Native of Solve.engine | External of Backend.t
type t = { name : string; formulation : Formulation_intf.impl; engine : engine }

let default =
  { name = "native-sat"; formulation = Formulation_intf.paper; engine = Native Solve.Sat_backed }

(* "native" stands for the paper formulation; the other one names
   itself.  The external solvers read the paper formulation's LP
   export. *)
let all =
  List.concat_map
    (fun (prefix, formulation) ->
      List.map
        (fun (suffix, e) -> { name = prefix ^ "-" ^ suffix; formulation; engine = Native e })
        [ ("sat", Solve.Sat_backed); ("bnb", Solve.Branch_and_bound) ])
    [ ("native", Formulation_intf.paper); ("conn", Formulation_intf.conn) ]
  @ List.map
      (fun (b : Backend.t) ->
        { name = b.Backend.name; formulation = Formulation_intf.paper; engine = External b })
      [ Milp_adapter.highs; Milp_adapter.cbc; Milp_adapter.scip ]

let names () = List.map (fun s -> s.name) all

let of_name name =
  match List.find_opt (fun s -> s.name = name) all with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown solver %S (known: %s)" name (String.concat ", " (names ())))
