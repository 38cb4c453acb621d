module Backend = Cgra_backend.Backend
module Milp_adapter = Cgra_backend.Milp_adapter

type engine = Native | External of Backend.t
type t = { name : string; formulation : Formulation_intf.impl; engine : engine }

let default = { name = "native-sat"; formulation = Formulation_intf.paper; engine = Native }

(* "native" stands for the paper formulation; the other one names
   itself.  The external solvers read the paper formulation's LP
   export. *)
let all =
  List.map
    (fun (prefix, formulation) -> { name = prefix ^ "-sat"; formulation; engine = Native })
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
