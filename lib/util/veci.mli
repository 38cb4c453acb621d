(** Growable arrays, used in the SAT solver's hot paths.

    [Veci] is an unboxed-int vector; [Vec] is its polymorphic sibling.
    {!get} and {!set} assert that the index is below {!size}; the
    [unsafe_] variants and {!data} skip that check for hot loops. *)

type t

val create : ?capacity:int -> unit -> t
val make : int -> int -> t
(** [make n x] is a vector of [n] copies of [x]. *)

val size : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

val data : t -> int array
(** The backing array: elements [0 .. size t - 1] are the vector's,
    the rest is spare capacity.  A hot loop in another module reads it
    once and then indexes it directly, instead of paying an
    out-of-line call per element.  Reads and writes through it are
    seen by the vector until the next {!push}, which may move the
    elements to a new array; after that the returned array is stale. *)

(** Unchecked {!get}, for hot loops. *)
val unsafe_get : t -> int -> int

(** Unchecked {!set}, for hot loops. *)
val unsafe_set : t -> int -> int -> unit
val push : t -> int -> unit
val pop : t -> int
(** Removes and returns the last element.  @raise Invalid_argument if empty. *)

val last : t -> int
val clear : t -> unit
val shrink : t -> int -> unit
(** [shrink t n] drops elements so that [size t = n]; requires [n <= size t]. *)

val iter : (int -> unit) -> t -> unit
val exists : (int -> bool) -> t -> bool
val to_list : t -> int list
val of_list : int list -> t
val swap_remove : t -> int -> unit
(** Remove index [i] by swapping the last element into its place. *)

val sort : (int -> int -> int) -> t -> unit
