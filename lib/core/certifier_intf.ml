(** The serializability-certifier signature and the vocabulary every
    certifier shares: the failure exception, the configuration, the
    introspection record and victim accounting.

    The module depends on no certifier, so the paper's SSI manager
    ({!Ssi}) and the SSN/ESSN watermark certifiers ({!Ssn}) both
    [include] {!S} in their interfaces, and {!Certifier} packs either of
    them behind it.  Re-exported by {!Certifier}; refer to it from there. *)

open Ssi_storage

type cseq = Ssi_mvcc.Mvcc.cseq

exception Serialization_failure of { xid : Heap.xid; reason : string }
(** The acting transaction must abort: a dangerous structure (SSI) or a
    closed exclusion window (SSN/ESSN) was resolved against it. *)

type kind = SSI | SSN | ESSN

type config = {
  kind : kind;  (** which certifier the engine runs *)
  max_committed_sxacts : int;
      (** Retained committed-transaction nodes before summarization (§6.2). *)
  read_only_opt : bool;
      (** Enable the read-only optimizations of §4 (Theorem 3 rule and safe
          snapshots under SSI; the effective-stamp refinement under ESSN).
          Disabling reproduces the "SSI (no r/o opt)" series of Figures 4
          and 5a. *)
  predlock : Predlock.config;
}

let default_config =
  {
    kind = SSI;
    max_committed_sxacts = 64;
    read_only_opt = true;
    predlock = Predlock.default_config;
  }

type node_info = {
  info_xid : Heap.xid;
  info_status : string;  (** "active" | "prepared" | "committed" | "aborted" *)
  info_doomed : bool;
  info_read_only : bool;
  info_safe : bool;
  info_commit_cseq : cseq option;
  info_in : Heap.xid list;  (** readers with an edge into this transaction *)
  info_out : Heap.xid list;
  info_conservative_in : bool;
      (** The in-conflict flag is the §7.1 conservative bit (set by 2PC
          crash recovery, or when a conflict partner was summarized) rather
          than an identified edge — a distributed coordinator must treat
          the flag as set. *)
  info_conservative_out : bool;
}

(** Victim accounting, written once for every certifier: the
    [<prefix>.failures] and [<prefix>.dooms] counters, one
    [<prefix>.victims.<slug>] counter per abort reason (the slug is the
    reason lowercased with every non-alphanumeric turned into [_]), so
    reports can break serialization failures down the way Figure 6 of the
    paper breaks down abort causes, and the [<prefix>.fail] /
    [<prefix>.doom] trace events, attached to the victim's span. *)
module Victims = struct
  open Ssi_obs

  type t = {
    obs : Obs.t;
    prefix : string;
    failures : Obs.counter;
    dooms : Obs.counter;
    per_reason : (string, Obs.counter) Hashtbl.t;
        (** memoized [<prefix>.victims.<slug>] handles, keyed by raw reason:
            the slug is built once per distinct reason *)
  }

  let create obs prefix =
    {
      obs;
      prefix;
      failures = Obs.counter obs (prefix ^ ".failures");
      dooms = Obs.counter obs (prefix ^ ".dooms");
      per_reason = Hashtbl.create 8;
    }

  let count v reason =
    let c =
      match Hashtbl.find_opt v.per_reason reason with
      | Some c -> c
      | None ->
          let slug =
            String.map
              (function ('a' .. 'z' | '0' .. '9') as c -> c | _ -> '_')
              (String.lowercase_ascii reason)
          in
          let c = Obs.counter v.obs (v.prefix ^ ".victims." ^ slug) in
          Hashtbl.add v.per_reason reason c;
          c
    in
    Obs.incr c

  let event v name ~xid reason =
    Obs.trace v.obs ?span:(Obs.owner_span v.obs xid) (v.prefix ^ name)
      ~fields:[ ("xid", Obs.I xid); ("reason", Obs.S reason) ]

  (** The acting transaction [xid] must abort: count it, record the
      [<prefix>.fail] event and raise {!Serialization_failure}. *)
  let fail v ~xid reason =
    Obs.incr v.failures;
    count v reason;
    event v ".fail" ~xid reason;
    raise (Serialization_failure { xid; reason })

  (** The bystander [xid] was just doomed: count it and record the
      [<prefix>.doom] event. *)
  let doomed v ~xid reason =
    Obs.incr v.dooms;
    count v reason;
    event v ".doom" ~xid reason
end

(** One certifier instance [t] manages every serializable transaction of a
    database; [node] is one transaction's state (PostgreSQL's
    [SERIALIZABLEXACT] under SSI).  The certifier judges evidence; it
    does not collect it.  The engine takes and maintains SIREAD locks in
    the {!Predlock} table {!S.locks} returns, and calls the certifier at
    three kinds of points: registration and the end-of-life lifecycle;
    dependency evidence — MVCC visibility at read time ({!S.conflict_out},
    {!S.read_from}) and the SIREAD owners of what a write touches
    ({!S.conflict_in}); and recovery.  A hook that resolves a conflict
    against the calling transaction raises {!Serialization_failure}; a
    bystander is {e doomed} instead and fails at its next operation or
    commit. *)
module type S = sig
  type t
  type node

  val supports_deferrable : bool
  (** Safe snapshots and [BEGIN DEFERRABLE] (§4.3); the engine rejects
      deferrable transactions when [false]. *)

  val locks : t -> Predlock.t
  (** The SIREAD predicate-lock table this instance creates (from
      [config.predlock]) and releases and summarizes as transactions
      finish; the engine acquires locks in it for every tracked read. *)

  val max_committed_sxacts : t -> int

  val set_max_committed_sxacts : t -> int -> unit
  (** Dynamically re-bound the retained committed-transaction budget
      (§6.2).  Shrinking it takes effect at the next commit's cleanup pass,
      forcing summarization of the backlog. *)

  (** {1 Transaction lifecycle} *)

  val register :
    t -> xid:Heap.xid -> snap_cseq:cseq -> read_only:bool -> deferrable:bool -> node
  (** Call immediately after taking the transaction's snapshot. *)

  val check_doomed : node -> unit
  (** Raise {!Serialization_failure} if the node was doomed by a conflict
      resolved in another transaction's favour. *)

  val prepare : t -> node -> unit
  (** Two-phase commit: run the pre-commit check and mark the transaction
      prepared.  A prepared transaction can no longer be chosen as an abort
      victim (§7.1). *)

  val restore_prepared : t -> node -> unit
  (** Cold-start recovery: mark a freshly {!register}ed node as a prepared
      transaction restored from the durable 2PC state, with conservative
      both-ways conflict state (§7.1).  The caller reinstalls its persisted
      SIREAD locks via {!locks}. *)

  val mark_conservative : t -> node -> unit
  (** Give a live prepared transaction the same conservative state:
      distributed 2PC, where its remote rw edges are invisible to this
      instance during the coordinator's decision window. *)

  val precommit : t -> node -> unit
  (** The commit-time serialization check (§5.4 rule 1 under SSI). *)

  val committed : t -> node -> commit_cseq:cseq -> unit
  (** Post-commit processing: conflict bookkeeping, read-only safety,
      cleanup and summarization (§6). *)

  val aborted : t -> node -> unit
  (** Remove the transaction and its conflict edges; release its locks. *)

  (** {1 Evidence of rw-antidependencies} *)

  val conflict_out : t -> node -> writer:Heap.xid -> unit
  (** The reader observed MVCC evidence of a write it did not see
      (invisible creator, or visible deleter): record reader --rw-->
      writer.  Writers that never ran serializable are ignored. *)

  val read_from : t -> node -> creator:Heap.xid -> unit
  (** The transaction read (or is overwriting) a version created by
      [creator]: a w:r / w:w dependency edge.  SSI infers what it needs
      from SIREAD locks and visibility and ignores this; the watermark
      certifiers fold the committed creator's stamp into the reader's
      pstamp. *)

  val conflict_in : t -> node -> Predlock.readers -> unit
  (** The transaction is writing (a heap tuple or an index entry) what
      [readers] hold SIREAD locks on — PostgreSQL's
      [CheckForSerializableConflictIn].  Record that it modified data,
      then record reader --rw--> writer conflicts (may raise or doom). *)

  (** {1 Read-only safety (§4.2, §4.3)} *)

  val is_safe : node -> bool
  (** The node's snapshot has been proved safe: it no longer tracks reads
      and cannot be aborted. *)

  val safety_determined : node -> bool

  val safety_waitq : node -> Ssi_util.Waitq.t
  (** Woken once safety is determined (used by deferrable transactions). *)

  (** {1 Recovery} *)

  val recover : t -> unit
  (** Simulate crash recovery: every non-prepared transaction disappears;
      prepared transactions keep their SIREAD locks but lose their conflict
      state to the conservative both-ways approximation (§7.1). *)

  (** {1 Introspection} *)

  val dump_graph : t -> node_info list
  (** Every tracked serializable transaction and its rw-antidependency
      edges — the view behind [SHOW CONFLICTS]. *)

  val info : t -> Heap.xid -> node_info option
  (** [List.find_opt] of [xid] over {!dump_graph}, answered from the
      per-xid table without building the graph. *)

  val active_count : t -> int
  val committed_retained : t -> int
  val oldserxid_size : t -> int
end
