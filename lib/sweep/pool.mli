(** A resident pool of worker domains with a bounded task queue.

    {!Scheduler.run} spawns domains per sweep and joins them at the
    end, which is right for batch runs but wrong for a resident
    service: the mapping daemon keeps one fleet of workers alive across
    requests and feeds it a stream of tasks.  [Pool] is that fleet —
    [workers] domains looping over a FIFO of thunks, with a bounded
    queue so overload is reported to the producer ({!submit} returns
    [false]) instead of accumulating without limit.

    {b Domain-safety.}  All operations are mutex-protected and may be
    called from any domain.  Tasks must be self-contained (the pool
    swallows their exceptions) and must not call {!drain} or
    {!shutdown} on their own pool (deadlock). *)

type t

val create : ?queue_capacity:int -> workers:int -> unit -> t
(** Start [max 1 workers] worker domains.  [queue_capacity] (default
    [64]) bounds the number of {e queued} (not yet started) tasks;
    [0] means unbounded. *)

val workers : t -> int

val active : t -> int
(** Tasks currently executing. *)

val submit : t -> (unit -> unit) -> bool
(** Enqueue a task; [false] when the queue is full or the pool is
    shutting down (the task is dropped — the caller owns the retry or
    the overload answer). *)

val drain : t -> unit
(** Block until the queue is empty and no task is executing.  Other
    producers may still submit concurrently; drain then waits for
    their work too. *)

val shutdown : t -> unit
(** Drain, then stop and join every worker domain.  Subsequent
    {!submit}s return [false].  Idempotent. *)
