type availability = Available of { version : string option } | Unavailable of string

type t = {
  name : string;
  doc : string;
  available : unit -> availability;
  solve : ?deadline:Cgra_util.Deadline.t -> Cgra_ilp.Model.t -> Cgra_ilp.Solve.outcome;
}

exception Error of string

let () =
  Printexc.register_printer (function
    | Error msg -> Some (Printf.sprintf "Cgra_backend.Backend.Error(%S)" msg)
    | _ -> None)
