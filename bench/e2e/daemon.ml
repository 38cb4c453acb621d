(* The serve-mixed workload: [Server.run] in its own domain with one
   pool worker, driven by one closed-loop client that blocks on every
   reply, as [cgra_map client] does. *)

module Server = Cgra_serve.Server
module Client = Cgra_serve.Client
module Protocol = Cgra_serve.Protocol
module Session = Cgra_serve.Session
module IM = Cgra_core.Ilp_mapper
module Library = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Deadline = Cgra_util.Deadline
module Rng = Cgra_util.Rng

(* Relative, so the socket stays inside the working directory (under a
   name the repository ignores) and its path stays short. *)
let socket_path () = Printf.sprintf ".e2e-%d.sock" (Unix.getpid ())

let request payload = { Protocol.id = None; payload }

let await_ping socket =
  let give_up = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Client.one_shot ~socket (request Protocol.Ping) with
    | Ok { Protocol.reply = Protocol.Ok_reply; _ } -> ()
    | _ when Unix.gettimeofday () < give_up ->
        Unix.sleepf 0.001;
        go ()
    | _ -> failwith "the daemon never answered ping"
  in
  go ()

(* Start a daemon, wait until it answers [ping] and run [f] on its
   socket.  On every exit path the daemon is sent [shutdown] and joined,
   and the socket is unlinked.  [f] closes each connection before
   opening the next: the single worker serves one connection at a time. *)
let with_daemon f =
  let socket = socket_path () in
  let config =
    {
      Server.default_config with
      Server.socket_path = socket;
      pool_size = 1;
      max_limit = Query.limit_seconds;
    }
  in
  let daemon = Domain.spawn (fun () -> Server.run config) in
  let stop () =
    ignore (Client.one_shot ~socket (request Protocol.Shutdown));
    (match Domain.join daemon with
    | Ok () -> ()
    | Error e -> prerr_endline ("e2e: daemon: " ^ e)
    | exception e -> prerr_endline ("e2e: daemon: " ^ Printexc.to_string e));
    try Sys.remove socket with Sys_error _ -> ()
  in
  Fun.protect ~finally:stop (fun () ->
      await_ping socket;
      f socket)

(* The one caller of the daemon is [cgra_map client]: one connection per
   invocation, carrying its request [--repeat N] times.  A pass sends
   every cell as one such invocation with N = [repeat], the 1 cold + 20
   warm requests [bench/main.exe serve] measures.  No request trace of a
   real caller exists, so this cold/warm ratio is not one observed in
   use.  The seed orders the cells; of two cells that differ only in II,
   the lower II comes first, as an incremental II search asks. *)
let repeat = 21

let sequence rng cells =
  let order = Array.of_list cells in
  Rng.shuffle rng order;
  let ladder (lo : Corpus.cell) (hi : Corpus.cell) =
    lo.Corpus.bench = hi.Corpus.bench && lo.Corpus.arch = hi.Corpus.arch
    && lo.Corpus.size = hi.Corpus.size && lo.Corpus.ii < hi.Corpus.ii
  in
  let n = Array.length order in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if ladder order.(j) order.(i) then begin
        let c = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- c
      end
    done
  done;
  Array.to_list order

let map_request (c : Corpus.cell) =
  request
    (Protocol.Map
       {
         Protocol.benchmark = c.Corpus.bench;
         dfg_text = None;
         arch = c.Corpus.arch;
         adl_text = None;
         size = c.Corpus.size;
         contexts = c.Corpus.ii;
         limit = Query.limit_seconds;
         optimize = false;
         certify = false;
         explain = false;
         backend = None;
       })

type served = {
  cell : Corpus.cell;
  start : float;  (** clock when the request was sent *)
  seconds : float;  (** client round trip *)
  outcome : Query.outcome;
  warm : bool;  (** answered from a cached session *)
  transport : float;  (** round trip minus the verdict's server-side [wall_seconds] *)
}

let serve client c =
  let start = Unix.gettimeofday () in
  let reply = Client.roundtrip client (map_request c) in
  let seconds = Unix.gettimeofday () -. start in
  let served ?(warm = false) ?(transport = 0.0) outcome =
    { cell = c; start; seconds; outcome; warm; transport }
  in
  match reply with
  | Ok { Protocol.reply = Protocol.Verdict v; _ } ->
      let outcome =
        match v.Protocol.status with
        | "feasible" -> Ok Corpus.Feasible
        | "infeasible" -> Ok Corpus.Infeasible
        | s -> Error s
      in
      served (Query.expected c outcome) ~warm:v.Protocol.provenance.Protocol.cache_hit
        ~transport:(seconds -. v.Protocol.wall_seconds)
  | Ok { Protocol.reply = Protocol.Error_reply { code; message }; _ } ->
      served (Error (code ^ ": " ^ message))
  | Ok _ -> served (Error "unexpected reply")
  | Error e -> served (Error e)

type pass = { served : served list; stats : Protocol.stats option }

(* One pass: a fresh daemon, so first touches are cold, then one
   connection per cell in the given order, as one [client --repeat]
   invocation each.  [between], in the timed loop, runs before each
   connection. *)
let pass ?between cells =
  with_daemon (fun socket ->
      let connected f =
        match Client.connect ~socket with
        | Error e -> failwith e
        | Ok client -> Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)
      in
      let served =
        List.concat_map
          (fun c ->
            Option.iter (fun f -> f ()) between;
            connected (fun client -> List.init repeat (fun _ -> serve client c)))
          cells
      in
      let stats =
        connected (fun client ->
            match Client.roundtrip client (request Protocol.Stats) with
            | Ok { Protocol.reply = Protocol.Stats_reply s; _ } -> Some s
            | _ -> None)
      in
      { served; stats })

(* A session's cold path against the one-shot mapper on the same cell
   and MRRG: (session seconds, one-shot seconds, judged session answer). *)
let cold_vs_oneshot (c : Corpus.cell) =
  let mrrg = Build.elaborate (Library.make c.Corpus.config) ~ii:c.Corpus.ii in
  let deadline () = Deadline.after ~seconds:Query.limit_seconds in
  let t0 = Unix.gettimeofday () in
  ignore (IM.map ~warm_start:0.0 ~deadline:(deadline ()) c.Corpus.dfg mrrg);
  let t1 = Unix.gettimeofday () in
  let s = Session.create c.Corpus.dfg in
  let o = Session.solve ~deadline:(deadline ()) s ~mrrg ~ii:c.Corpus.ii in
  let t2 = Unix.gettimeofday () in
  (t2 -. t1, t1 -. t0, Query.judge ~certify:false c o.Session.result)
