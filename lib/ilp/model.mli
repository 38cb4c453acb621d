(** 0-1 integer linear programs.

    The mapping formulation of the paper is a pure binary program with
    integer coefficients, so the model is deliberately specialised:
    every variable is binary, and constraints are integer linear rows
    with a sense.  Models are built imperatively and then handed to
    {!Solve} (or exported through {!Lp_format}).

    Names exist for humans — LP export, unsat cores, diagnostics — and
    the solving engines never read them, so the build hot path can
    defer rendering: {!add_binary_deferred} and {!add_row}'s [dname]
    store a thunk that is forced (once, cached) only when {!var_name},
    {!row_name} or {!find_var} actually asks for the spelling. *)

type t

type var = int
(** Dense variable index, 0-based. *)

type sense = Le | Ge | Eq
    (** Row comparison against its right-hand side. *)

type term = int * var
(** [coeff * variable]. *)

type row = {
  group : string option;
      (** constraint-group label for unsat-core extraction ([None] =
          hard background constraint, never reported in a core) *)
  terms : term list;
  sense : sense;
  rhs : int;
}
(** Row names are not stored in the record; ask {!row_name} for the
    (on-demand rendered) name of row [i]. *)

type objective =
  | Feasibility           (** no objective: any feasible point is optimal *)
  | Minimize of term list

val create : ?name:string -> unit -> t
(** A fresh empty model ([name] defaults to ["model"]). *)

val name : t -> string
(** The model's name (used as the LP-file problem name). *)

val add_binary : t -> string -> var
(** Add a fresh binary variable.  Names must be unique and non-empty
    (they become LP-file identifiers).
    @raise Invalid_argument on a duplicate or empty name. *)

val add_binary_deferred : t -> (unit -> string) -> var
(** Add a fresh binary variable whose name is rendered on first use.
    Uniqueness of deferred names is the caller's obligation; it is
    checked by {!validate}, not at add time (checking here would force
    the very rendering this call exists to avoid). *)

val nvars : t -> int
(** Number of variables added so far. *)

val var_name : t -> var -> string
(** The name a variable was created with (rendering and caching it
    first if it was deferred).
    @raise Invalid_argument on an out-of-range index. *)

val find_var : t -> string -> var option
(** Look a variable up by name (forces any still-deferred names). *)

val add_row : t -> ?name:string -> ?dname:(unit -> string) -> ?group:string ->
  term list -> sense -> int -> unit
(** Add a constraint row.  Terms on the same variable are merged;
    zero-coefficient terms are dropped.  [name] (or the deferred
    [dname], rendered on first {!row_name}; [name] wins when both are
    given) labels the row — unnamed rows render as ["c<index>"].
    [group] tags the row with a named constraint group (e.g.
    [place:op7]): {!Unsat_core} reports infeasibility cores as sets of
    group labels, so groups should be the human-meaningful units of
    blame.  Rows without a group are {e hard} — always enforced, never
    blamed.
    @raise Invalid_argument on unknown variables or an empty group
    label. *)

(** {2 Zero-allocation row emission}

    The builder's hot path ([Formulation.build]) emits rows
    directly into the model's flat term storage instead of constructing
    a term list per row: [begin_row] opens a row, [term] appends one
    coefficient–variable pair, [end_row] canonicalizes the stored
    segment in place (sort by variable, merge duplicates, drop zeros —
    exactly {!add_row}'s normal form) and seals the row.  {!add_row} is
    itself implemented on top of these. *)

val begin_row :
  t -> ?name:string -> ?dname:(unit -> string) -> ?group:string -> sense -> int -> unit
(** Open a row.  @raise Invalid_argument if a row is already open or
    the group label is empty. *)

val term : t -> int -> var -> unit
(** Append one term to the open row.
    @raise Invalid_argument on an unknown variable or no open row. *)

val end_row : t -> unit
(** Canonicalize and seal the open row.
    @raise Invalid_argument if no row is open. *)

val add_row2 : t -> ?group:string -> int -> var -> int -> var -> sense -> int -> unit
(** [add_row2 t c1 v1 c2 v2 sense rhs] adds the unnamed two-term row
    [c1*v1 + c2*v2 sense rhs] — the dominant row shape of mapping
    formulations — without opening a row builder.  Equivalent to
    [add_row t [(c1,v1); (c2,v2)] sense rhs]. *)

val row_name : t -> int -> string
(** Name of row [i] in insertion order (["c<i>"] for unnamed rows).
    @raise Invalid_argument on an out-of-range index. *)

val groups : t -> string list
(** Distinct group labels in first-use order (single pass over the
    stored rows). *)

val set_branch_priority : t -> var -> float -> unit
(** Branching hint forwarded to the solving engines: variables with
    higher priority are decided first.  Default 0. *)

val branch_priority : t -> var -> float
(** Current priority hint of a variable. *)

val set_branch_phase : t -> var -> bool -> unit
(** Polarity hint: the value the variable is first decided to.
    Default [false]. *)

val branch_phase : t -> var -> bool
(** Current polarity hint of a variable. *)

val set_objective : t -> objective -> unit
(** Replace the objective (initially [Feasibility]). *)

val objective : t -> objective
(** The current objective. *)

val rows : t -> row list
(** All rows, in insertion order (freshly allocated list; hot paths
    use the flat row access below). *)

val row : t -> int -> row
(** Row [i] in insertion order.
    @raise Invalid_argument on an out-of-range index. *)

val iter_rows : t -> (int -> row -> unit) -> unit
(** Visit every row with its index, in insertion order, without
    materialising a list. *)

val nrows : t -> int
(** Number of rows. *)

(** {2 Flat row access}

    Read-only views of row [i] straight from the flat term storage, for
    the passes that walk every row (presolve, clausification) and must
    not materialise a {!row} per visit.  Terms are in {!add_row}'s
    normal form: variables strictly ascending, coefficients non-zero.
    Indices are not range-checked: pass [0 <= i < nrows t] and
    [0 <= k < row_len t i]. *)

val row_len : t -> int -> int
(** Number of terms of row [i]. *)

val row_coef : t -> int -> int -> int
(** Coefficient of the [k]-th term of row [i]. *)

val row_var : t -> int -> int -> var
(** Variable of the [k]-th term of row [i]. *)

val row_sense : t -> int -> sense
val row_rhs : t -> int -> int
val row_group : t -> int -> string option

(** {1 Evaluation} — used by checkers and the reference solver. *)

val eval_terms : term list -> (var -> bool) -> int
(** Weighted sum of the terms under an assignment. *)

val row_satisfied : row -> (var -> bool) -> bool
(** Does the assignment satisfy this one row? *)

val feasible : t -> (var -> bool) -> bool
(** Does the assignment satisfy every row? *)

val objective_value : t -> (var -> bool) -> int
(** Value of the objective terms (0 for [Feasibility]). *)

val validate : t -> (unit, string list) result
(** Check name uniqueness (forcing deferred names) and index ranges. *)
