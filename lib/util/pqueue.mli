(** Mutable binary min-heap keyed by [(float, int)] priority.

    Used as the event queue of the discrete-event scheduler: the float key is
    virtual time and the integer key is a sequence number that breaks ties
    deterministically (FIFO among simultaneous events). *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an element with the given priority. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] when empty. *)

val clear : 'a t -> unit
