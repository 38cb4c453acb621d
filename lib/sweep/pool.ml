type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;  (* workers sleep here *)
  idle : Condition.t;      (* drain/shutdown waiters sleep here *)
  queue : (unit -> unit) Queue.t;
  queue_capacity : int;    (* 0 = unbounded *)
  n_workers : int;
  mutable n_active : int;
  mutable stopping : bool;
  mutable joined : bool;
  mutable domains : unit Domain.t list;
}

let worker pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.nonempty pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stopping: exit *)
    else begin
      let task = Queue.pop pool.queue in
      pool.n_active <- pool.n_active + 1;
      Mutex.unlock pool.mutex;
      (try task () with _ -> ());
      Mutex.lock pool.mutex;
      pool.n_active <- pool.n_active - 1;
      if Queue.is_empty pool.queue && pool.n_active = 0 then Condition.broadcast pool.idle;
      Mutex.unlock pool.mutex;
      loop ()
    end
  in
  loop ()

let create ?(queue_capacity = 64) ~workers () =
  let n = max 1 workers in
  let pool =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      queue_capacity = max 0 queue_capacity;
      n_workers = n;
      n_active = 0;
      stopping = false;
      joined = false;
      domains = [];
    }
  in
  (* Workers close over the record itself; they never read [domains]. *)
  pool.domains <- List.init n (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let workers t = t.n_workers

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let active t = locked t (fun () -> t.n_active)

let submit t task =
  locked t (fun () ->
      if t.stopping then false
      else if t.queue_capacity > 0 && Queue.length t.queue >= t.queue_capacity then false
      else begin
        Queue.push task t.queue;
        Condition.signal t.nonempty;
        true
      end)

let drain t =
  locked t (fun () ->
      while not (Queue.is_empty t.queue && t.n_active = 0) do
        Condition.wait t.idle t.mutex
      done)

let shutdown t =
  drain t;
  let join =
    locked t (fun () ->
        if t.joined then false
        else begin
          t.stopping <- true;
          t.joined <- true;
          Condition.broadcast t.nonempty;
          true
        end)
  in
  if join then List.iter Domain.join t.domains
