(** A complete CDCL SAT solver.

    This is the decision engine beneath the ILP layer: conflict-driven
    clause learning with two-watched-literal propagation, first-UIP
    conflict analysis, VSIDS branching with phase saving, Luby restarts
    and activity-based learnt-clause deletion, with optional
    failed-literal probing between restarts ({!Inprocess}, the only
    inprocessing pass).  It is {e complete}: on an instance without a
    deadline it always answers [Sat] or [Unsat], which is what lets the
    mapper prove feasibility or infeasibility exactly as the paper's
    Gurobi-based flow does.

    Clauses may be added between [solve] calls (the solver restarts to
    the root level), enabling the objective-descent loop of the ILP
    optimizer.

    {b Domain-safety.}  All solver state lives inside [t]; there are no
    global mutable variables, so independent instances may run in
    parallel on separate domains — the portfolio racer in [Cgra_sweep]
    relies on this.  A single [t] must never be shared across domains.
    Each racing engine builds its own solver and is stopped
    cooperatively through the cancellation flag of the
    {!Cgra_util.Deadline} it polls. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] is only returned when a deadline expires. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt : int;  (** learnt clauses currently kept *)
  probed_failed : int;  (** failed literals found by probing *)
}

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its 0-based index. *)

val new_vars : t -> int -> int
(** [new_vars t n] allocates [n] variables, returning the first index.
    The block is numbered exactly as [n] calls of {!new_var} would
    number it; it makes no object per variable (the per-variable
    arrays grow by doubling). *)

val nvars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause over existing variables.  Tautologies are dropped and
    duplicate literals merged.  Adding the empty clause (or a clause
    falsified at the root level) makes the instance permanently
    unsatisfiable.  Must not be called during [solve].  While a guard
    literal is set (see {!set_guard}) it is appended to the clause
    first.

    A clause of two or more literals is stored at once and watched in
    bulk, with every clause added since the last propagation, the next
    time the solver propagates; a unit clause propagates at once.  The
    solver behaves exactly as if each clause were watched as it is
    added. *)

val add_clause_array : t -> Lit.t array -> unit
(** {!add_clause} over the literals of an array, which is not kept. *)

val add_binary : t -> Lit.t -> Lit.t -> unit
(** [add_binary t a b] is [add_clause t [a; b]], without the list. *)

val add_ternary : t -> Lit.t -> Lit.t -> Lit.t -> unit
(** [add_ternary t a b c] is [add_clause t [a; b; c]], without the
    list. *)

val reserve : t -> vars:int -> clauses:int -> literals:int -> unit
(** [reserve t ~vars ~clauses ~literals] makes room for [vars] more
    variables and for [clauses] more stored clauses holding [literals]
    literals in all, so that allocating and adding them moves no
    variable or clause memory.  Only clauses of two or more literals
    are stored; a unit clause is asserted at once and needs no room.  A
    bound above what is then added costs only the unused room.  The
    room made also holds learnt clauses of a quarter of the reserved
    size, so a short search does not grow the store either. *)

val set_guard : t -> Lit.t option -> unit
(** Set (or with [None] clear) the current {e guard literal}: while
    set, every clause passed to {!add_clause} gets the literal appended
    before normalisation, relativising the clause to the guard.  This
    is how constraint groups are compiled for unsat-core extraction:
    encode each group under guard [~s_g] for a fresh selector variable
    [s_g], then {!solve_with} the selectors as assumptions — the failed
    assumptions name the groups in conflict.  Auxiliary variables
    created by encodings are per-clause-set, so guarding their defining
    clauses is sound: deselecting a group merely leaves its encoding
    unconstrained. *)

val ok : t -> bool
(** [false] once a root-level conflict has been established. *)

val set_proof : t -> Proof.t option -> unit
(** Attach (or detach) a proof sink.  While attached, every clause
    added is logged as a proof axiom and every inference the solver
    makes — root-level strengthening, learnt clauses, failed-literal
    units, learnt-clause deletions and the final empty clause of an
    [Unsat] answer — is logged as a lemma with its hints, the IDs of
    the clauses it follows from by unit propagation in propagation
    order (conflict analysis already visits them).  An [Unsat] verdict
    so leaves a certificate that {!Drat.check} validates against the
    logged CNF by walking the hints, and that any external DRAT checker
    validates from {!Proof.to_drat}.  A level-0 fact a lemma cites gets
    a unit lemma of its own, not counted in {!Proof.n_steps}.  Attach
    {e before} the first [add_clause]: clauses stored earlier have no
    ID, and a lemma citing one fails the check.  Collecting hints
    changes no search decision; without a sink the solver collects none
    and logging costs one [option] test per event. *)

val solve : ?deadline:Cgra_util.Deadline.t -> t -> result
(** Decide the current clause set.  After [Sat], {!value} reads the
    model; the model remains valid until the next [add_clause] or
    [solve].  Equivalent to [solve_with ~assumptions:[]]. *)

val solve_with :
  ?deadline:Cgra_util.Deadline.t -> assumptions:Lit.t list -> t -> result
(** Decide the clause set {e under} the given assumption literals,
    without committing to them: assumptions are enqueued as the first
    decisions (one decision level each), so learnt clauses remain
    implied by the clause set alone and the solver stays fully
    reusable afterwards — the incremental-SAT interface of
    MiniSat-style [solve(assumps)].

    [Sat] means satisfiable with every assumption true (the model
    assigns them).  [Unsat] means the clause set entails the negation
    of the assumptions' conjunction; {!failed_assumptions} then yields
    the subset established in conflict by final-conflict analysis.  An
    [Unsat] under non-empty failed assumptions does {e not} make the
    solver [not ok] — only a root-level conflict (unconditional
    unsatisfiability) does.
    @raise Invalid_argument on literals over unknown variables. *)

val failed_assumptions : t -> Lit.t list
(** After {!solve_with} returned [Unsat]: a subset of the assumptions
    (in the polarity passed) whose conjunction the clause set refutes —
    an {e assumption core}, not guaranteed minimal.  Empty when the
    clause set is unsatisfiable on its own (a root-level conflict).
    Reset by the next [solve_with] call. *)

val value : t -> int -> bool
(** Model value of a variable (only meaningful after [Sat]; variables
    untouched by the search read as their saved phase, default
    [false]). *)

val lit_value : t -> Lit.t -> bool
(** Model value of a literal. *)

val stats : t -> stats
(** Cumulative counters since [create] — on a reused incremental solver
    they span every solve so far.  Use {!stats_delta} against a snapshot
    taken before a solve to report per-solve figures. *)

val stats_delta : now:stats -> before:stats -> stats
(** Per-solve view: subtracts every monotone counter; [learnt] is a
    gauge (clauses currently kept) and is taken from [now]. *)

val zero_stats : stats
(** Every counter 0: the stats of a search no solver ran. *)

val inprocess_counters : stats -> (string * int) list
(** The inprocessing counters of a stats record as labelled pairs
    (only [probed_failed]). *)

val set_activity : t -> int -> float -> unit
(** Seed a variable's VSIDS activity — a branching hint: variables with
    higher initial activity are decided first until conflict-driven
    bumping takes over. *)

val set_phase : t -> int -> bool -> unit
(** Seed a variable's saved polarity: the value it is first decided to.
    Phase saving overwrites it as search progresses. *)

val seed_phases : t -> Lit.t list -> unit
(** Warm-start from a (partial) assignment: the literals are placed on
    a throwaway decision level and propagated, so that {e auxiliary}
    variables (encoding ladders, counters) also receive phases
    consistent with the assignment; everything is then backtracked,
    leaving only saved polarities behind.  Inconsistent literals are
    skipped.  No clauses are added and completeness is unaffected. *)

val seed_phases_array : t -> Lit.t array -> unit
(** {!seed_phases} over the literals of an array, in array order. *)

val set_random_freq : t -> float -> unit
(** Fraction of decisions made on a uniformly random unassigned
    variable (default 0.02); 0 disables randomisation. *)

(** {1 Inprocessing support}

    The narrow internal surface failed-literal probing ({!Probe},
    {!Bin_graph}) drives the solver through; the {!Inprocess} scheduler
    is installed with {!set_inprocess} and fired by the solver at solve
    start and between Luby restarts.  Every function below assumes —
    and preserves — the quiescent root state: decision level 0,
    propagation queue drained.  Every derived clause flows through the
    attached {!Proof} sink with its hints, so certificates stay
    checkable.  Not
    intended for use outside the [Cgra_satoca] library. *)

val set_inprocess : t -> (t -> unit) option -> unit
(** Install (or clear) the inprocessing hook.  The solver calls it with
    itself at the start of each [solve]/[solve_with] and after each
    restart, always from the quiescent root state.  The hook may probe
    literals and add derived clauses through the functions below; if it
    derives a root conflict the solve returns [Unsat] immediately. *)

val simp_prepare : t -> bool
(** Must be called (and return [true]) before any other simplification
    in a hook invocation.  Verifies the quiescent root state and clears
    the reason indices of root-level facts (they need none; while a
    proof is logged, each such fact first gets its unit lemma).  Returns
    [false] when simplification must not run (conflict already
    established, or non-root state). *)

val n_clause_slots : t -> int
(** Number of clauses ever stored (problem and learnt; units are not
    stored); indices [0 .. n-1] are valid arguments to {!clause_view}
    (deleted slots included). *)

val clause_view : t -> int -> int array
(** A copy of the literals of the [ci]-th clause stored, in the order
    the solver keeps them, or [[||]] when it has been deleted.  Walks
    the clause store from the start: for tests and inspection, not for
    loops over every clause (see {!iter_binary}). *)

val iter_binary : t -> (Lit.t -> Lit.t -> unit) -> unit
(** [iter_binary t f] calls [f a b] on every live binary clause
    [(a | b)], in storage order, without allocating. *)

val root_value : t -> Lit.t -> int
(** -1 unassigned / 0 false / 1 true under the root assignment. *)

val probe_lit : t -> Lit.t -> bool
(** Assume the literal on a throwaway decision level and propagate.
    Returns [true] when this fails: the negation is then asserted as a
    {e derived} root unit (a lemma hinted by the failed propagation,
    not an input axiom; the guard literal is not appended) and
    propagated.  If that falsifies the clause set, the empty clause is
    logged and the solver is no longer {!ok}.  Always backtracks to the
    root first; propagated polarities are retained as saved phases. *)

val note_probed_failed : t -> unit
