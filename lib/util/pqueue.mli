(** Imperative binary min-heap.

    The comparison is fixed at creation.  Used by routing (keyed by
    distance); the event engine keeps its own unboxed heap. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)
