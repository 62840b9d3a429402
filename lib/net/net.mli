(** A seeded, virtual-clock message network between named nodes.

    The replication layer of the paper (§7.2) assumes WAL records reach the
    replica reliably and in order; real networks guarantee neither.  This
    module is the adversarial transport used to test the streaming
    protocol: every message sent between two nodes traverses a {e link}
    that can delay, jitter, drop, duplicate and reorder it, and any pair of
    nodes can be bidirectionally {e partitioned}.  All randomness comes
    from one seeded {!Ssi_util.Rng} stream and all delivery is scheduled on
    the simulator's virtual clock ({!Ssi_sim.Sim.at}), so an entire
    network adversity schedule replays identically from the seed.

    Nodes are registered with a handler; {!send} never blocks the sender.
    Handlers run as their own simulation processes at delivery time.

    Reported metrics (into the registry passed at {!create}):
    [net.sent], [net.delivered], [net.dropped], [net.duplicated],
    [net.reordered], [net.partition_drops]. *)

type 'msg t

(** Per-link fault and latency model.  Effective drop/duplicate/reorder
    probabilities are the maximum of the link's own values and the
    network-wide chaos knobs ({!set_chaos}). *)
type link = {
  delay : float;  (** base one-way latency (virtual seconds) *)
  jitter : float;  (** uniform extra delay in [\[0, jitter)] *)
  drop : float;  (** probability the message is lost *)
  duplicate : float;  (** probability the message is delivered twice *)
  reorder : float;
      (** probability the message takes an extra {!field-reorder_delay}
          detour, letting later sends overtake it *)
  reorder_delay : float;  (** amplitude of the reorder detour *)
}

val default_link : link
(** 50µs delay, 20µs jitter, lossless. *)

val create : ?obs:Ssi_obs.Obs.t -> ?default_link:link -> seed:int -> unit -> 'msg t

val add_node : 'msg t -> string -> handler:(src:string -> 'msg -> unit) -> unit
(** Register a node.  Raises [Invalid_argument] on duplicate names. *)

val set_handler : 'msg t -> string -> (src:string -> 'msg -> unit) -> unit
(** Replace a node's handler (a promoted replica re-registers as a
    primary).  Raises [Invalid_argument] for unknown nodes. *)

val nodes : 'msg t -> string list
(** Registered node names, in registration order. *)

val set_chaos : 'msg t -> ?drop:float -> ?duplicate:float -> ?reorder:float -> unit -> unit
(** Network-wide fault floor, combined with each link by [max] — the knob
    the chaos scheduler turns.  Omitted parameters are left unchanged. *)

val chaos : 'msg t -> float * float * float
(** Current [(drop, duplicate, reorder)] chaos floor (for save/restore). *)

(** {1 Partitions}

    A partition blocks {e both} directions between two nodes: sends are
    counted in [net.partition_drops] and discarded.  Messages already in
    flight when the partition starts are still delivered (the wire is cut,
    not flushed). *)

val partition : 'msg t -> string -> string -> unit
val heal : 'msg t -> string -> string -> unit
val isolate : 'msg t -> string -> unit
(** Partition one node from every other currently-registered node. *)

val rejoin : 'msg t -> string -> unit
(** Heal every partition involving the node. *)

val heal_all : 'msg t -> unit
val partitioned : 'msg t -> string -> string -> bool

val send :
  'msg t -> ?span_ctx:Ssi_obs.Obs.span_ctx -> src:string -> dst:string -> 'msg -> unit
(** Hand a message to the network: it is delivered to [dst]'s handler
    after the link's (possibly adversarial) treatment, or never.  Must be
    called from inside a simulation.  Raises [Invalid_argument] when
    either endpoint is unknown.

    When [?span_ctx] is given, the hop is recorded as a [net.msg] span
    parented under that context (in the registry passed at {!create}):
    delivered messages close the span at delivery time, while dropped and
    partitioned ones close it immediately with a [dropped]/[partitioned]
    attribute — lost causality is never silent. *)

val stats : 'msg t -> (string * int) list
(** The [net.*] counters as an assoc list (name, value), sorted. *)

(** {1 Type-erased control surface}

    The fault scheduler ({!Ssi_fault.Fault}) drives partitions and chaos
    knobs on whatever network the harness built, without knowing its
    message type.  {!ops} packages the control operations (never [send])
    behind closures so one scheduler can target a ['a t] of any ['a]. *)

type ops = {
  o_nodes : unit -> string list;
  o_partition : string -> string -> unit;
  o_heal : string -> string -> unit;
  o_isolate : string -> unit;
  o_rejoin : string -> unit;
  o_heal_all : unit -> unit;
  o_set_chaos : ?drop:float -> ?duplicate:float -> ?reorder:float -> unit -> unit;
  o_chaos : unit -> float * float * float;
}

val ops : 'msg t -> ops
