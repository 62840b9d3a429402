(** Deterministic discrete-event simulation with cooperative coroutines.

    This module is the concurrency substrate of the repository.  The paper
    evaluated PostgreSQL on real multicore/disk hardware; here transactions
    are OCaml-5 effect-handler coroutines advancing a virtual clock, which
    makes every experiment deterministic while still expressing the
    phenomena the paper measures: CPU overhead (virtual time charged per
    operation against a bounded CPU resource), lock blocking (suspended
    coroutines), and abort/retry costs.

    All functions except {!run} must be called from inside a process running
    under {!run}; calling them elsewhere raises [Not_in_simulation]. *)

exception Not_in_simulation

exception Stuck of { count : int; labels : string list }
(** Raised by {!run} when the event queue drains while processes are still
    suspended: a lost-wakeup or deadlock bug in the simulated program.
    [count] is the number of stuck processes and [labels] holds one
    ["waitq:<id>"] per process suspended in {!wait} (sorted), so a stuck
    chaos test names the queues it deadlocked on. *)

val run : (unit -> unit) -> float
(** [run main] executes [main] as the initial process and drives the event
    queue until it is empty.  Returns the final virtual time.  Events run
    in [(time, seq)] order, [seq] counting every event queued, so
    simultaneous events run first-queued first. *)

val spawn : (unit -> unit) -> unit
(** Start a new process at the current virtual time. *)

val at : after:float -> (unit -> unit) -> unit
(** [at ~after body] starts [body] as a new process [after] virtual
    seconds from now — a one-shot timer.  Equivalent to
    [spawn (fun () -> delay after; body ())] without making the caller's
    schedule depend on an extra process switch; the network layer and
    quorum deadlines are built on this.  A negative [after] counts as 0;
    a NaN one raises [Invalid_argument]. *)

val delay : float -> unit
(** Advance the calling process's virtual time by [d] seconds.  A [d] of
    at most 0 returns at once without yielding; a NaN one raises
    [Invalid_argument]. *)

val now : unit -> float
(** Current virtual time. *)

val running : unit -> bool
(** Whether a simulation is active — for code that degrades gracefully
    outside one (e.g. quorum commit reverts to asynchronous when the
    engine is used directly). *)

val yield : unit -> unit
(** Reschedule the calling process at the current time, letting other
    runnable processes execute first. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] suspends the calling process.  [register] receives a
    resume thunk; invoking the thunk (once) schedules the process to resume
    at the then-current virtual time.  Resuming twice is an error. *)

val wait : Ssi_util.Waitq.t -> unit
(** Suspend on a wait queue; woken by [Waitq.wake_all]/[wake_one]. *)

val scheduler : Ssi_util.Waitq.scheduler
(** Scheduler record handed to the database engine: [suspend] is {!wait},
    [charge] is {!delay}, [now] is {!now}. *)

(** {1 Bounded resources}

    Capacity-[k] resources model CPU cores and disk spindles.  Acquisition
    is FIFO; releasing hands the slot directly to the oldest waiter. *)

type resource

val resource : capacity:int -> resource
val capacity : resource -> int

val acquire : resource -> unit
(** Take one slot, suspending while none is free. *)

val release : resource -> unit
(** Give back one slot.  Must balance a prior {!acquire}. *)

val use : resource -> float -> unit
(** [use r d] acquires a slot, holds it for [d] seconds of virtual time, and
    releases it: the canonical way to model a burst of CPU or I/O work. *)

val busy_time : resource -> float
(** Cumulative slot-seconds consumed via {!use} (utilisation accounting). *)
