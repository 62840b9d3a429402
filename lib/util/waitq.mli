(** Wait queues shared between the engine and the scheduler.

    The database engine must be able to suspend the calling transaction
    (write-lock waits, S2PL lock waits, deferrable-transaction admission)
    without depending on a particular scheduler.  A {!Waitq.t} holds opaque
    resume thunks; a {!scheduler} record supplies the suspend/charge
    operations.  [Ssi_sim] provides the real cooperative implementation;
    {!direct} is a degenerate one for single-threaded use, whose [suspend]
    raises [Db_error.Error Lock_not_available] because nobody could ever
    wake the caller. *)

type t
(** A FIFO queue of suspended computations. *)

val create : unit -> t

val id : t -> int
(** Unique identifier of this queue (diagnostics). *)

val is_empty : t -> bool
val length : t -> int

val enqueue : t -> (unit -> unit) -> unit
(** Used by scheduler implementations: register a resume thunk. *)

val wake_all : t -> unit
(** Call (and remove) every registered resume thunk, in FIFO order. *)

val wake_one : t -> bool
(** Call (and remove) the oldest resume thunk.  Returns [false] when the
    queue was empty. *)

type scheduler = {
  suspend : t -> unit;
      (** Suspend the calling computation until a wake on the queue.  May
          raise [Db_error.Error Lock_not_available]. *)
  charge : float -> unit;
      (** Account [s] seconds of work to the calling computation (virtual
          time under simulation; a no-op in direct mode). *)
  now : unit -> float;  (** Current virtual time (0. in direct mode). *)
}

val direct : scheduler
(** Scheduler for plain, non-simulated API use. *)
