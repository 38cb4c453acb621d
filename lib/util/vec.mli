(** Polymorphic growable array (companion to {!Veci}). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity; only {!data} exposes it. *)

val size : 'a t -> int

val data : 'a t -> 'a array
(** The backing array, as {!Veci.data}: elements [0 .. size t - 1] are
    the vector's, the rest holds [dummy].  Valid until the next
    {!push}, which may move the elements to a new array. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
