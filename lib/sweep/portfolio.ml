module Deadline = Cgra_util.Deadline

(* Race engine variants on their own domains; first definitive answer
   (Feasible or Infeasible — both are proofs, and complete engines
   cannot disagree) wins and cancels the rest through the shared flag
   that every engine's deadline polls. *)
let race ~variants ?certify ?explain (job : Job.t) =
  match variants with
  | [] -> invalid_arg "Portfolio.race: empty variant list"
  | [ v ] -> Runner.run_variant ?certify ?explain v job
  | first :: rest ->
      let t0 = Deadline.now () in
      let cancel = Deadline.new_cancellation () in
      let winner = Atomic.make None in
      let attempt v =
        let r = Runner.run_variant ~cancel ?certify ?explain v job in
        if Record.definitive r then
          if Atomic.compare_and_set winner None (Some r) then Deadline.cancel cancel;
        r
      in
      let domains = List.map (fun v -> Domain.spawn (fun () -> attempt v)) rest in
      let mine = attempt first in
      let others = List.map Domain.join domains in
      let all = mine :: others in
      let result =
        match Atomic.get winner with
        | Some r -> r
        | None -> (
            (* Nobody proved anything: prefer a timeout (the budget ran
               out) over an error (the job itself is broken) so that a
               resolvable cell is not masked by one crashed racer. *)
            match List.find_opt (fun (r : Record.t) -> r.Record.status = Record.Timeout) all with
            | Some r -> r
            | None -> List.hd all)
      in
      { result with Record.total_seconds = Deadline.elapsed_of ~start:t0 }
