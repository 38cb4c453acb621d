module Solve = Cgra_ilp.Solve
module Backend = Cgra_backend.Backend
module Registry = Cgra_backend.Registry

type engine = Native of Solve.engine | External of Backend.t
type t = { name : string; formulation : Formulation_intf.impl; engine : engine }

let engines = [ ("sat", Solve.Sat_backed); ("bnb", Solve.Branch_and_bound) ]

let default =
  { name = "native-sat"; formulation = Formulation_intf.paper; engine = Native Solve.Sat_backed }

(* "native" stands for the paper formulation; every other registered
   formulation names itself. *)
let formulation_prefixes () =
  ("native", Formulation_intf.paper)
  :: List.filter_map
       (fun fname ->
         if fname = Formulation_intf.default_name then None
         else Option.map (fun impl -> (fname, impl)) (Formulation_intf.find fname))
       (Formulation_intf.names ())

let native_specs () =
  List.concat_map
    (fun (prefix, formulation) ->
      List.map
        (fun (suffix, e) -> { name = prefix ^ "-" ^ suffix; formulation; engine = Native e })
        engines)
    (formulation_prefixes ())

let names () = List.map (fun s -> s.name) (native_specs ()) @ Registry.names ()

let of_name name =
  match List.find_opt (fun s -> s.name = name) (native_specs ()) with
  | Some s -> Ok s
  | None -> (
      match Registry.find name with
      | Some b -> Ok { name; formulation = Formulation_intf.paper; engine = External b }
      | None ->
          Error
            (Printf.sprintf "unknown solver %S (known: %s)" name
               (String.concat ", " (names ()))))
