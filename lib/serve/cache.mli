(** A mutex-protected string-keyed LRU cache — the daemon's resident
    memory across requests.

    Two instances back the server: tier 1 maps an architecture digest +
    II to its elaborated MRRG; tier 2 maps a (DFG digest, architecture
    digest, formulation) triple to a live {!Session} holding compiled
    encodings and solver state.  Both are bounded: once [capacity] entries are
    resident the least-recently-{e used} entry is evicted (lookup and
    insert both refresh recency).

    {b Concurrency.}  All operations take the cache's mutex, and
    {!find_or_add} runs the builder {e under} it — by design: the
    builders are cheap (MRRG elaboration is microseconds; creating a
    session allocates an empty solver), and building under the lock
    guarantees one resident value per key, which matters when the value
    owns solver state.  Expensive work (the actual solving) happens on
    the value after the cache call returns. *)

type 'a t

type stats = { hits : int; misses : int; evictions : int; size : int; capacity : int }

val create : capacity:int -> 'a t
(** [capacity <= 0] disables residency: every lookup misses and
    {!find_or_add} builds without storing — the cache degrades to a
    pass-through (the [--cache-* 0] escape hatch). *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key build] returns the resident value ([..., true])
    or builds, stores and returns a fresh one ([..., false]), evicting
    the least recently used entry if the cache is full.  An exception
    from [build] propagates and caches nothing. *)

val find : 'a t -> string -> 'a option
(** Lookup without building; refreshes recency on hit, counts a miss
    otherwise. *)

val stats : 'a t -> stats

val keys_by_recency : 'a t -> string list
(** Resident keys, most recently used first (tests). *)
