(** Wall-clock time budgets for long-running solver calls, with
    cooperative cross-domain cancellation.

    A deadline is either infinite or an absolute instant, optionally
    carrying a shared cancellation flag; solvers poll {!expired} at
    coarse granularity (e.g. every few thousand conflicts) so the cost
    of time-limiting is negligible.  Because every engine already polls
    its deadline, attaching a flag with {!with_cancellation} is all a
    portfolio racer needs to stop losing engines: set the flag from any
    domain and every solver sharing it winds down at its next poll. *)

type t

val none : t
(** The deadline that never expires (and cannot be cancelled). *)

val after : seconds:float -> t
(** [after ~seconds] expires [seconds] from now; non-positive values
    expire immediately. *)

val new_cancellation : unit -> bool Atomic.t
(** A fresh, unset cancellation flag, safe to share across domains. *)

val cancel : bool Atomic.t -> unit
(** Raise the flag: every deadline carrying it is expired from now on. *)

val with_cancellation : t -> bool Atomic.t -> t
(** [with_cancellation t flag] expires when [t] does {e or} as soon as
    [flag] is set, whichever comes first. *)

val within : t -> seconds:float -> t
(** [within t ~seconds] expires [seconds] from now or when [t] does,
    whichever comes first, and carries [t]'s cancellation flag. *)

val cancelled : t -> bool
(** Was the deadline's flag (if any) raised?  [false] for plain
    deadlines, even expired ones. *)

val expired : t -> bool
(** Has the deadline passed or its cancellation flag been raised? *)

val remaining : t -> float option
(** Seconds left, or [None] for {!none}.  Never negative.  Ignores the
    cancellation flag (a cancelled deadline can report time remaining). *)

val elapsed_of : start:float -> float
(** Seconds elapsed since [start] (a {!now} value). *)

val now : unit -> float
(** Wall-clock time in seconds.  Wall clock, not CPU time: with several
    domains running, process CPU time advances faster than real time
    and would expire budgets early. *)
