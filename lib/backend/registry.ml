let builtin = [ Milp_adapter.highs; Milp_adapter.cbc; Milp_adapter.scip ]

let lock = Mutex.create ()
let registered : Backend.t list ref = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let all () =
  locked (fun () ->
      let extra = List.rev !registered in
      let shadowed = List.map (fun (b : Backend.t) -> b.Backend.name) extra in
      List.filter (fun (b : Backend.t) -> not (List.mem b.Backend.name shadowed)) builtin
      @ extra)

let names () = List.map (fun (b : Backend.t) -> b.Backend.name) (all ())

let find name = List.find_opt (fun (b : Backend.t) -> b.Backend.name = name) (all ())

let register b =
  locked (fun () ->
      registered :=
        b :: List.filter (fun (r : Backend.t) -> r.Backend.name <> b.Backend.name) !registered)
