(** Cardinality constraints over literals, clausified into a solver.

    These encodings turn the pseudo-Boolean constraints of the mapping
    ILP (at-most-one route usage, exactly-one placement, bounded
    objective) into CNF.  All encodings are {e arc-consistent}: unit
    propagation alone enforces the bound. *)

type encoding = Pairwise | Sequential
(** At-most-one flavours: [Pairwise] adds n(n-1)/2 binary clauses (best
    for small n); [Sequential] adds a commander-style ladder with O(n)
    clauses and auxiliary variables.  {!at_most_one} picks automatically
    when not forced. *)

val at_most_one : ?encoding:encoding -> Solver.t -> Lit.t list -> unit
(** At most one of the literals is true. *)

val at_least_one : Solver.t -> Lit.t list -> unit
(** Simply the clause over the literals. *)

val exactly_one : ?encoding:encoding -> Solver.t -> Lit.t list -> unit

val at_most_k : Solver.t -> Lit.t list -> int -> unit
(** Sequential-counter encoding of [sum lits <= k].  [k >= 0]. *)

val at_most_k_array : Solver.t -> Lit.t array -> int -> unit
(** {!at_most_k} over an array (not retained), for callers that gather
    literals without building a list. *)

val at_least_k : Solver.t -> Lit.t list -> int -> unit
(** [sum lits >= k], by [at_most (n-k)] on the negated literals. *)

(** Incremental totalizer: builds a sorting tree over the literals whose
    output literals [o_1 .. o_n] satisfy (o_j true iff at least j inputs
    are true).  The objective-descent loop of the ILP solver bounds the
    sum by assuming [~o_{k+1}] ({!bound_lit}), one solve at a time,
    without re-encoding and without committing a clause. *)
module Totalizer : sig
  type t

  val build : ?cap:int -> Solver.t -> Lit.t list -> t
  (** Clausify the tree; inputs may repeat.  With [cap], every node
      keeps only its first [cap] outputs, so the tree can bound the sum
      by [cap - 1] or less: about n·cap clauses instead of n²/2.
      Without it (or with [cap] at least the input count) it has every
      output.
      @raise Invalid_argument on a cap below 1. *)

  val outputs : t -> Lit.t array
  (** [outputs.(j)] is the literal "at least j+1 inputs true", for [j]
      below the cap. *)

  val bound_lit : t -> int -> Lit.t option
  (** [bound_lit t k] is the literal meaning [sum <= k] — the negated
      output [~o_{k+1}] — meant to be passed to {!Solver.solve_with} as
      an assumption, enforcing the bound for one solve and leaving the
      clause database reusable under any other bound (adding it as a
      unit clause makes the bound permanent).  [None] when [k] is at
      least the input count (the bound is vacuous).
      @raise Invalid_argument on a negative bound, or one below the
      input count that the cap leaves no output for. *)
end

(** {1 Sizing}

    What the solver stores and allocates for an encoding, counted
    without encoding it, the input of {!Solver.reserve}.  Unit clauses
    are not stored and not counted.  A count bounds what the solver
    needs: it may shorten or drop a clause but never lengthens one. *)

type size = { mutable clauses : int; mutable literals : int; mutable vars : int }
(** A running count of stored clauses, of their literals and of the
    auxiliary variables the encodings allocate. *)

val count_clauses : size -> extra:int -> int -> int -> unit
(** [count_clauses size ~extra count len] adds [count] clauses of [len]
    literals, each with [extra] more (a guard literal, see
    {!Solver.set_guard}). *)

val count_at_most_k : size -> extra:int -> int -> int -> unit
(** [count_at_most_k size ~extra n k] adds what {!at_most_k_array}
    stores and allocates for [k] over [n] fresh literals: an exact
    count, as the same device choice makes both.  [extra] as for
    {!count_clauses}. *)
