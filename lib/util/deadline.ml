(* A deadline is an absolute wall-clock instant plus an optional shared
   cancellation flag.  Wall clock (not [Sys.time], which counts process
   CPU time and therefore advances N times too fast when N domains are
   busy) so that per-job budgets stay correct under the parallel sweep
   engine. *)

type t = { at : float; cancel : bool Atomic.t option }

let now () = Unix.gettimeofday ()

let none = { at = infinity; cancel = None }
let after ~seconds = { at = now () +. seconds; cancel = None }

let new_cancellation () = Atomic.make false
let cancel flag = Atomic.set flag true
let with_cancellation t flag = { t with cancel = Some flag }
let within t ~seconds = { t with at = Float.min t.at (now () +. seconds) }

let cancelled t = match t.cancel with None -> false | Some f -> Atomic.get f

let expired t = cancelled t || now () >= t.at

let remaining t =
  if t.at = infinity then None else Some (Float.max 0. (t.at -. now ()))

let elapsed_of ~start = now () -. start
