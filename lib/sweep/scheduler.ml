type event =
  | Job_started of { index : int; total : int; worker : int; job : Job.t }
  | Job_finished of { index : int; total : int; worker : int; record : Record.t }

type stats = { ran : int; skipped : int; disagreements : int; wall_seconds : float }

module Deadline = Cgra_util.Deadline

let run ?(jobs = 1) ?journal ?(resume = false) ?(on_event = fun _ -> ()) ~execute job_list =
  let t0 = Deadline.now () in
  let done_keys =
    match journal with
    | Some path when resume -> Grid.latest_by_key (Store.load path)
    | _ -> Hashtbl.create 0
  in
  let pending =
    Array.of_list (List.filter (fun j -> not (Hashtbl.mem done_keys (Job.key j))) job_list)
  in
  let total = Array.length pending in
  let results = Array.make total None in
  let store = Option.map Store.append_to journal in
  let next = Atomic.make 0 in
  let event_mutex = Mutex.create () in
  let emit e =
    Mutex.lock event_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock event_mutex) (fun () -> try on_event e with _ -> ())
  in
  let execute job = try execute job with e -> Record.error job (Printexc.to_string e) in
  let worker w =
    (* Claim jobs by fetch-and-add: each index is taken exactly once,
       and the claiming worker is the only writer of results.(i). *)
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let job = pending.(i) in
        emit (Job_started { index = i; total; worker = w; job });
        let record = execute job in
        results.(i) <- Some record;
        Option.iter (fun store -> Store.append store record) store;
        emit (Job_finished { index = i; total; worker = w; record });
        loop ()
      end
    in
    (* A worker must never die with jobs still queued: any escape from
       the loop machinery itself ([execute] exceptions are already
       per-job records) re-enters on the next index. *)
    let rec guard () = try loop () with _ -> guard () in
    guard ()
  in
  let n_workers = max 1 (min jobs (max 1 total)) in
  Fun.protect
    ~finally:(fun () -> Option.iter Store.close store)
    (fun () ->
      let spawned = List.init (n_workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
      worker 0;
      List.iter Domain.join spawned);
  let records =
    Array.to_list results
    |> List.mapi (fun i r ->
           match r with Some r -> r | None -> Record.error pending.(i) "job lost (scheduler bug)")
  in
  let stats =
    {
      ran = total;
      skipped = List.length job_list - total;
      disagreements = List.length (List.filter Record.disagreement records);
      wall_seconds = Deadline.elapsed_of ~start:t0;
    }
  in
  (records, stats)
