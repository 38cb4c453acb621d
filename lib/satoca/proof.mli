(** Proof logs: the evidence behind an [Unsat] answer.

    A log records, in order, every clause that entered the solver (an
    input), every clause the solver derived (a lemma: learnt clauses,
    inputs strengthened at intake, failed-literal units, the units of
    root-level facts and the final empty clause) and every lemma it
    discarded (a deletion).  Every input and every lemma gets an ID,
    counting from 1 in logging order; a deletion names the ID it drops.

    A lemma carries {e hints} (LRAT antecedents): the IDs of the clauses
    that derive it by unit propagation, in propagation order.  Assigning
    the lemma's negation, each hinted clause in turn is unit (its one
    open literal is then assigned) or falsified, and the last one is
    falsified.  {!Drat.check} verifies exactly that, one hint at a time.
    The inputs alone are the CNF being refuted; the lemmas and deletions
    without their hints are a standard DRAT derivation of the empty
    clause from it, for any external DRAT checker via
    {!to_dimacs}/{!to_drat}.

    Because the incremental solving style of the ILP layer adds clauses
    {e between} solve calls (objective bounds, totalizer layers), inputs
    and lemmas interleave.  The log stays sound under that interleaving:
    a lemma may only cite clauses logged before it, which are a subset
    of the final CNF and its consequences, so every accepted lemma is
    entailed by the full input set.

    A log is owned by one solver; attach it with {!Solver.set_proof}
    {e before} adding clauses.  Logging is append only.

    {b Layout.}  The log is one flat int arena of records:
    - an input is [[kind_input; n; l_1 .. l_n]];
    - a lemma is [[kind_lemma; n; l_1 .. l_n; m; h_1 .. h_m]];
    - a deletion is [[kind_delete; id]].
    An input or lemma record takes the next ID. *)

type event =
  | Input of Lit.t list  (** axiom: part of the CNF under refutation *)
  | Add of Lit.t list * int list
      (** a lemma and its hints, the IDs it is derived from *)
  | Delete of int  (** the ID of a lemma dropped from the active set *)

type t

val create : unit -> t
(** A fresh, empty log. *)

val log_input : t -> Lit.t array -> int -> int
(** [log_input t lits n] records the axiom [lits.(0 .. n-1)] and returns
    its ID (called by {!Solver.add_clause}). *)

val log_add : ?counted:bool -> t -> Lit.t array -> int -> int array -> int -> int
(** [log_add t lits n hints m] records the lemma [lits.(0 .. n-1)] with
    the hints [hints.(0 .. m-1)] and returns its ID.  With [~counted:false]
    (default [true]) it is the unit of a root-level fact, which the
    solver derives only to cite it, and {!n_steps} does not count it. *)

val log_delete : t -> int -> unit
(** Record the deletion of the lemma with the given ID. *)

val of_events : event list -> t
(** The log of an event list, every [Add] counted: the entry point for
    hand-written and tampered logs. *)

val events : t -> event list
(** All events in logging order. *)

val n_inputs : t -> int
(** Number of inputs. *)

val n_steps : t -> int
(** Derivation steps: counted lemmas and deletions. *)

val has_empty_clause : t -> bool
(** True once an empty input or lemma was logged — the log claims a
    refutation.  A log without one proves nothing (the solve ended
    [Sat]/[Unknown], or certification was interrupted). *)

val cnf : t -> Lit.t list list
(** The input clauses, in order. *)

val max_var : t -> int
(** Largest variable index mentioned by any clause; [-1] if none. *)

val to_dimacs : t -> string
(** The input clauses as a DIMACS CNF body. *)

val to_drat : t -> string
(** The derivation in standard textual DRAT ([d]-prefixed deletions,
    0-terminated DIMACS literals), consumable by external checkers. *)

(** {1 The arena, for checkers} *)

val kind_input : int
val kind_lemma : int
val kind_delete : int

val arena : t -> int array
(** The arena's backing array: words [0 .. arena_size t - 1] hold the
    records (see the layout above).  Stale after the next logging
    call. *)

val arena_size : t -> int
(** Words in use. *)
