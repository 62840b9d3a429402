(** The serializability-certifier signature and the vocabulary every
    certifier shares: the failure exception, the configuration, the
    introspection record, victim accounting and the retention of committed
    transactions.

    The module depends on no certifier, so the paper's SSI manager
    ({!Ssi}) and the SSN/ESSN watermark certifiers ({!Ssn}) both
    [include] {!S} in their interfaces, and {!Certifier} packs either of
    them behind it.  Re-exported by {!Certifier}; refer to it from there. *)

open Ssi_storage

type cseq = Ssi_mvcc.Mvcc.cseq

(** The acting transaction [xid] must abort: a dangerous structure (SSI)
    or a closed exclusion window (SSN/ESSN) was resolved against it. *)
let serialization_failure ~xid reason =
  raise Ssi_util.Db_error.(Error (Serialization_failure { xid; reason }))

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

(** A certifier node's lifecycle. *)
type status = Active | Prepared | Committed | Aborted

let status_name = function
  | Active -> "active"
  | Prepared -> "prepared"
  | Committed -> "committed"
  | Aborted -> "aborted"

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
          crash recovery or {!S.mark_conservative}) rather than an
          identified edge — a distributed coordinator must treat the flag
          as set. *)
  info_conservative_out : bool;
}

(** A node's rw-antidependency state as a distributed 2PC coordinator
    needs it (§7.1): an edge in, an edge out, and whether the flags are
    the §7.1 conservative bits rather than identified edges.  An edge
    whose partner was summarized (§6.2) still counts. *)
type conflicts = {
  rw_in : bool;  (** some reader has an rw edge into this transaction *)
  rw_out : bool;  (** this transaction has an rw edge out to some writer *)
  conservative : bool;
      (** Set by 2PC crash recovery or {!S.mark_conservative}: a
          coordinator must treat both directions as set. *)
}

let no_conflicts = { rw_in = false; rw_out = false; conservative = false }

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
      [<prefix>.fail] event and raise {!serialization_failure}. *)
  let fail v ~xid reason =
    Obs.incr v.failures;
    count v reason;
    event v ".fail" ~xid reason;
    serialization_failure ~xid reason

  (** The bystander [xid] was just doomed: count it and record the
      [<prefix>.doom] event. *)
  let doomed v ~xid reason =
    Obs.incr v.dooms;
    count v reason;
    event v ".doom" ~xid reason
end

(** Retention of committed transactions, written once for every
    certifier.  A committed node keeps its SIREAD locks and edges while it
    can still take part in a conflict and is drained as soon as it cannot
    (§6.1).  Past [max_committed_sxacts] retained nodes the oldest is
    summarized (§6.2): its locks pass to the {!Predlock} dummy owner
    stamped with its lock stamp, and its commit cseq and out stamp go into
    [oldserxid], where [conflict_out] still finds it.

    {!cleanup} takes two horizons.  It drains a node, in commit order,
    once its commit cseq is below [~nodes] and its lock stamp is below
    [~locks]; it purges dummy-owner records below [~locks] and [oldserxid]
    entries below [~nodes].  SSI passes the minimum active snapshot for
    both; SSN and ESSN need a lower [~locks] (DESIGN.md §11).  What only
    one certifier does stays in its hooks, which receive the certifier
    instance ['c]. *)
module Retention = struct
  open Ssi_obs

  type old_entry = {
    old_commit : cseq;
    old_out : cseq;  (** SSI's earliest out-conflict commit cseq, SSN's π *)
  }

  type ('c, 'n) hooks = {
    xid : 'n -> Heap.xid;
    commit_cseq : 'n -> cseq;
    lock_stamp : 'c -> 'n -> cseq;  (** c under SSI, e under SSN/ESSN *)
    out_stamp : 'n -> cseq;  (** kept in [oldserxid] *)
    drained : 'c -> 'n -> unit;  (** after its locks were released *)
    summarized : 'c -> 'n -> unit;  (** after its locks and entry were summarized *)
    purged : 'c -> cseq -> unit;  (** an [oldserxid] entry left, by commit cseq *)
    before_summarize : 'c -> unit;  (** runs between the drain and summarization *)
  }

  type ('c, 'n) t = {
    hooks : ('c, 'n) hooks;
    locks : Predlock.t;
    obs : Obs.t;
    summarize_event : string;
    m_summarized : Obs.counter;
    m_cleanups : Obs.counter;
    mutable max_committed : int;
    committed : 'n Queue.t;  (** retained committed nodes, commit order *)
    oldserxid : (Heap.xid, old_entry) Hashtbl.t;
    oldserxid_order : (Heap.xid * cseq) Queue.t;
        (** insertion order, so commit order: the purge pops a prefix *)
  }

  let create ~obs ~prefix ~locks ~max_committed hooks =
    {
      hooks;
      locks;
      obs;
      summarize_event = prefix ^ ".summarize";
      m_summarized = Obs.counter obs (prefix ^ ".summarized");
      m_cleanups = Obs.counter obs (prefix ^ ".cleanups");
      max_committed;
      committed = Queue.create ();
      oldserxid = Hashtbl.create 64;
      oldserxid_order = Queue.create ();
    }

  let max_committed r = r.max_committed
  let set_max_committed r n = r.max_committed <- max 0 n
  let retained r = Queue.length r.committed
  let oldserxid_size r = Hashtbl.length r.oldserxid
  let retain r n = Queue.add n r.committed
  let fold r f acc = Queue.fold f acc r.committed
  let to_list r = List.of_seq (Queue.to_seq r.committed)
  let find_old r xid = Hashtbl.find_opt r.oldserxid xid

  (** The least out stamp of the retained nodes and [oldserxid] entries
      committed at or after [since]. *)
  let min_out r ~since =
    let acc = ref Ssi_mvcc.Mvcc.invalid_cseq in
    let see c o = if c >= since && o < !acc then acc := o in
    Queue.iter (fun n -> see (r.hooks.commit_cseq n) (r.hooks.out_stamp n)) r.committed;
    Hashtbl.iter (fun _ e -> see e.old_commit e.old_out) r.oldserxid;
    !acc

  let summarize r c n =
    let h = r.hooks in
    let xid = h.xid n and commit = h.commit_cseq n in
    Obs.incr r.m_summarized;
    Obs.trace r.obs r.summarize_event ~fields:[ ("xid", Obs.I xid); ("cseq", Obs.I commit) ];
    Predlock.summarize_owner r.locks xid ~cseq:(h.lock_stamp c n);
    Hashtbl.replace r.oldserxid xid { old_commit = commit; old_out = h.out_stamp n };
    Queue.add (xid, commit) r.oldserxid_order;
    h.summarized c n

  let rec drain r c ~nodes ~locks =
    let h = r.hooks in
    match Queue.peek r.committed with
    | n when h.commit_cseq n < nodes && h.lock_stamp c n < locks ->
        ignore (Queue.pop r.committed);
        Predlock.release_owner r.locks (h.xid n);
        h.drained c n;
        drain r c ~nodes ~locks
    | _ | (exception Queue.Empty) -> ()

  let rec purge r c ~nodes =
    match Queue.peek r.oldserxid_order with
    | xid, commit when commit < nodes ->
        ignore (Queue.pop r.oldserxid_order);
        (match Hashtbl.find r.oldserxid xid with
        | e when e.old_commit = commit ->
            Hashtbl.remove r.oldserxid xid;
            r.hooks.purged c commit
        | _ | (exception Not_found) -> ());
        purge r c ~nodes
    | _ | (exception Queue.Empty) -> ()

  let cleanup r c ~nodes ~locks =
    Obs.incr r.m_cleanups;
    drain r c ~nodes ~locks;
    r.hooks.before_summarize c;
    while Queue.length r.committed > r.max_committed do
      summarize r c (Queue.pop r.committed)
    done;
    Predlock.cleanup_old_committed r.locks ~before:locks;
    purge r c ~nodes

  (** Crash recovery: release and forget every retained node and drop
      every dummy-owner record.  [oldserxid] entries wait for the next
      purge: a snapshot taken after the crash sees every summarized
      transaction's writes, so none is reachable. *)
  let reset r c =
    Queue.iter
      (fun n ->
        Predlock.release_owner r.locks (r.hooks.xid n);
        r.hooks.drained c n)
      r.committed;
    Queue.clear r.committed;
    Predlock.cleanup_old_committed r.locks ~before:Ssi_mvcc.Mvcc.invalid_cseq
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
    against the calling transaction raises {!serialization_failure}; a
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

  val begin_safe : t -> xid:Heap.xid -> snap_cseq:cseq -> bool
  (** At BEGIN of a READ ONLY, not DEFERRABLE transaction: true when its
      snapshot is already safe (§4.2): the read-only optimizations are on
      and every active or prepared transaction declared READ ONLY.  It
      then has no node and holds only its cleanup horizon until
      {!end_safe}; otherwise {!register} it. *)

  val end_safe : t -> snap_cseq:cseq -> unit
  (** Its commit or abort: release the horizon and run cleanup. *)

  val check_doomed : node -> unit
  (** Raise {!serialization_failure} if the node was doomed by a conflict
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

  val conflicts : node -> conflicts
  (** The node's conflict flags, read from its own state: what a 2PC
      participant reports to the coordinator at prepare and commit. *)

  val active_count : t -> int
  val committed_retained : t -> int
  val oldserxid_size : t -> int
end
