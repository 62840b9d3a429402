(* The Serial Safety Net and ESSN.  ssn.mli defines the stamps and the
   exclusion-window test.  pstamp only grows and sstamp only shrinks, so
   the test is monotone and runs at every stamp mutation: a transaction
   whose window closes is doomed on the spot, which aborts the same set
   as a commit-time check but wastes less work.  ESSN's effective stamp
   e(T) is snap_cseq(T) for a transaction that is read-only in the
   theorems' sense (declared, or committed without writing) and c(T)
   otherwise; SSN is the special case e = c.

   Stamp bookkeeping per edge class:
   - w:r and w:w predecessors are reported by the engine via {!read_from}
     with the creator xid of every visible (or overwritten) version; the
     commit stamp comes from the Clog, so no SSN node needs to be
     retained for them.  Version creators wrote by definition, so
     e = c even under ESSN.
   - r:w edges are found exactly like SSI finds them: the SIREAD owners
     of what a write touches, which the engine looks up in the lock table
     ({!conflict_in}), and MVCC visibility evidence at read time
     ({!conflict_out}).  Edges with a committed endpoint fold into the
     stamps immediately; edges between two live transactions are kept on
     plain lists and resolved when either endpoint commits.

   Retention is SSI's ({!Certifier_intf.Retention}) with a second horizon.
   A committed X stays reachable by {!conflict_out} while c(X) is at or
   above the minimum active snapshot, but its SIREAD locks matter for as
   long as some reachable π can still fall to or below e(X), which can be
   much longer; {!cleanup} derives both horizons.

   Prepared transactions (2PC) can no longer abort and commit without a
   check, so the commit-time propagation must never close a prepared
   window.  Three gates keep the invariant:
   - preparing T fails if T has any rw edge to another prepared
     transaction, so no rw edge ever connects two prepared transactions;
   - a committer X fails (actor gives way) if its pi would close a
     prepared in-edge reader's window;
   - a committing reader Y fails if its effective stamp would close a
     prepared out-edge writer's window.
   Crash recovery restores in-doubt prepared transactions with the
   conservative stamps [pstamp = sstamp = 0]: every future transaction
   that forms an rw edge with a restored one gives way, generalizing the
   paper's §7.1 both-ways conflict flags. *)

open Ssi_storage
module Mvcc = Ssi_mvcc.Mvcc
module Obs = Ssi_obs.Obs
open Certifier_intf

let inf = Mvcc.invalid_cseq

type node = {
  xid : Heap.xid;
  snap_cseq : cseq;
  declared_read_only : bool;
  mutable status : status;
  mutable doomed : bool;
  mutable wrote : bool;
  mutable commit_cseq : cseq;
  mutable pstamp : cseq;  (** eta: high watermark of committed predecessors *)
  mutable sstamp : cseq;  (** pi: low watermark of committed rw-successors; [inf] = none *)
  mutable in_readers : node list;  (** readers r with r --rw--> me *)
  mutable out_writers : node list;  (** writers w with me --rw--> w *)
}

type t = {
  clog : Mvcc.Clog.t;
  locks : Predlock.t;
  config : config;
  extended : bool;  (** ESSN stamp refinement on? *)
  prefix : string;  (** metric/event namespace: ["ssn"] or ["essn"] *)
  by_xid : (Heap.xid, node) Hashtbl.t;
  ret : (t, node) Retention.t;
      (** retained committed nodes, and the [oldserxid] entries of
          summarized ones: commit stamp plus finalized π, enough to serve
          late {!conflict_out} lookups after the node itself is dropped *)
  mutable active_n : int;
  obs : Obs.t;
  conflicts : Obs.counter;
  victims : Victims.t;
}

let supports_deferrable = false
let locks t = t.locks
let max_committed_sxacts t = Retention.max_committed t.ret
let set_max_committed_sxacts t n = Retention.set_max_committed t.ret n

(* No safe-snapshot machinery: no snapshot is ever safe (tracking never
   stops early), and safety is trivially determined so nothing ever waits
   on it. *)
let is_safe _ = false
let safety_determined _ = true
let never_safe_waitq = Ssi_util.Waitq.create ()
let safety_waitq _ = never_safe_waitq
let active_count t = t.active_n
let committed_retained t = Retention.retained t.ret
let oldserxid_size t = Retention.oldserxid_size t.ret

(* "Read-only" in the theorems' sense: declared as such, or known to have
   committed without writing. *)
let ro_in_theory n = n.declared_read_only || (n.status = Committed && not n.wrote)

(* ESSN: the effective commit stamp a committed transaction hands to its
   successors.  A read-only transaction is serializable at its snapshot,
   so it repositions there; everyone else sits at its commit stamp. *)
let e_of t n =
  if t.extended && t.config.read_only_opt && ro_in_theory n then n.snap_cseq
  else n.commit_cseq

(* The stamp a still-active reader would hand out if it committed right
   now: a fresh commit stamp exceeds every stamp recorded so far, which
   [inf] stands in for; an ESSN read-only transaction repositions at its
   snapshot, which is already known. *)
let e_estimate t n =
  if t.extended && t.config.read_only_opt && n.declared_read_only then n.snap_cseq
  else inf

(* ---- Victim accounting ----------------------------------------------------- *)

(* Every doom/fail decision leaves one [<prefix>.exclusion] event carrying
   the victim's closed window — the raw material [pg_ssi explain] renders
   for SSN/ESSN aborts the way it renders T1->T2->T3 structures for SSI.
   [peer] is the transaction whose stamp closed the window (-1 when the
   window was already closed, e.g. a conservative restored stamp). *)
let record_exclusion t ~victim ~reason ~pstamp ~sstamp ~peer =
  Obs.trace t.obs ?span:(Obs.owner_span t.obs victim) (t.prefix ^ ".exclusion")
    ~fields:
      [
        ("victim", Obs.I victim);
        ("reason", Obs.S reason);
        ("pstamp", Obs.I pstamp);
        ("sstamp", Obs.I (if sstamp = inf then -1 else sstamp));
        ("peer", Obs.I peer);
      ]

let fail t node reason = Victims.fail t.victims ~xid:node.xid reason

let doom t victim ~reason =
  if not victim.doomed then begin
    victim.doomed <- true;
    Victims.doomed t.victims ~xid:victim.xid reason
  end

let check_doomed node =
  if node.doomed then
    serialization_failure ~xid:node.xid "transaction doomed by a concurrent conflict"

(* ---- Stamp mutation with the eager window check --------------------------- *)

let closed n = n.sstamp <= n.pstamp

(* The window of [n] just closed because of [peer]'s stamp.  If [n] is the
   acting transaction, raise; if it is an active bystander, doom it.  A
   prepared [n] can do neither — the prepare/precommit gates exist to make
   this unreachable, but if a conservative path ever lands here the actor
   gives way. *)
let resolve_closed t ~actor ~peer n ~reason =
  record_exclusion t ~victim:n.xid ~reason ~pstamp:n.pstamp ~sstamp:n.sstamp
    ~peer;
  if n == actor then fail t n reason
  else
    match n.status with
    | Active -> doom t n ~reason
    | Prepared | Committed | Aborted -> fail t actor reason

(* Absorb a committed successor's watermark into [n]'s sstamp. *)
let absorb_pi t ~actor ~peer n pi ~reason =
  if pi < n.sstamp then begin
    n.sstamp <- pi;
    if closed n && not n.doomed then resolve_closed t ~actor ~peer n ~reason
  end

(* Absorb a committed predecessor's effective stamp into [n]'s pstamp. *)
let absorb_eta t ~actor ~peer n e ~reason =
  if e > n.pstamp then begin
    n.pstamp <- e;
    if closed n && not n.doomed then resolve_closed t ~actor ~peer n ~reason
  end

let reason_pred = "exclusion window closed by committed predecessor"
let reason_succ = "exclusion window closed by committed rw-successor"
let reason_peer_commit = "exclusion window closed by committing peer"
let reason_prepared = "rw conflict resolved in a prepared transaction's favour"

(* ---- Edges ----------------------------------------------------------------- *)

let add_edge t ~actor ~reader ~writer =
  if
    reader != writer
    && (not reader.doomed) && (not writer.doomed)
    && reader.status <> Aborted && writer.status <> Aborted
    && not (List.memq writer reader.out_writers)
  then begin
    reader.out_writers <- writer :: reader.out_writers;
    writer.in_readers <- reader :: writer.in_readers;
    Obs.incr t.conflicts;
    Obs.trace t.obs ?span:(Obs.owner_span t.obs actor.xid) (t.prefix ^ ".rw_edge")
      ~fields:
        [
          ("reader", Obs.I reader.xid);
          ("writer", Obs.I writer.xid);
          ("reader_sstamp", Obs.I (if reader.sstamp = inf then -1 else reader.sstamp));
          ("writer_pstamp", Obs.I writer.pstamp);
        ];
    (* An edge with a committed endpoint folds into the live endpoint's
       stamp immediately; a fully in-flight edge is resolved when either
       endpoint commits. *)
    if writer.status = Committed then
      absorb_pi t ~actor ~peer:writer.xid reader writer.sstamp ~reason:reason_succ
    else if reader.status = Committed then
      absorb_eta t ~actor ~peer:reader.xid writer (e_of t reader) ~reason:reason_pred
  end

let detach n =
  List.iter
    (fun r -> r.out_writers <- List.filter (fun w -> w != n) r.out_writers)
    n.in_readers;
  List.iter
    (fun w -> w.in_readers <- List.filter (fun r -> r != n) w.in_readers)
    n.out_writers;
  n.in_readers <- [];
  n.out_writers <- []

(* ---- Retention ------------------------------------------------------------- *)

(* Drained and summarized nodes leave the graph the same way. *)
let forget t n =
  detach n;
  Hashtbl.remove t.by_xid n.xid

let retention_hooks =
  {
    Retention.xid = (fun n -> n.xid);
    commit_cseq = (fun n -> n.commit_cseq);
    lock_stamp = e_of;  (* ESSN: a read-only reader's snapshot position *)
    out_stamp = (fun n -> n.sstamp);
    drained = forget;
    summarized = forget;
    purged = (fun _ _ -> ());
    before_summarize = ignore;
  }

let create ?(config = default_config) ?(obs = Obs.create ()) ~extended clog =
  let prefix = if extended then "essn" else "ssn" in
  let locks = Predlock.create ~config:config.predlock ~obs () in
  {
    clog;
    locks;
    config;
    extended;
    prefix;
    by_xid = Hashtbl.create 64;
    ret =
      Retention.create ~obs ~prefix ~locks ~max_committed:config.max_committed_sxacts
        retention_hooks;
    active_n = 0;
    obs;
    conflicts = Obs.counter obs (prefix ^ ".conflicts");
    victims = Victims.create obs prefix;
  }

(* The two horizons of {!Retention.cleanup}.  [~nodes] is the minimum
   active snapshot: every later reader sees the writes of an X committed
   below it, so {!conflict_out} cannot reach X's π.  [~locks] is H_π, the
   minimum of every live node's sstamp and of the π of every retained or
   summarized X with c(X) >= [~nodes].  A new π is a fresh commit stamp or
   is inherited from one of those, so none falls below H_π; and a
   committed reader R closes a window only if some π <= e(R).  So once
   e(R) < H_π, R's locks and dummy-owner records are dead.  A restored or
   conservatively marked prepared transaction has sstamp 0 and holds every
   lock until it resolves. *)
let cleanup t =
  let snap = ref inf and pi = ref inf in
  Hashtbl.iter
    (fun _ n ->
      match n.status with
      | Active | Prepared ->
          if n.snap_cseq < !snap then snap := n.snap_cseq;
          if n.sstamp < !pi then pi := n.sstamp
      | Committed | Aborted -> ())
    t.by_xid;
  let nodes = !snap in
  Retention.cleanup t.ret t ~nodes ~locks:(min !pi (Retention.min_out t.ret ~since:nodes))

(* ---- Registration ---------------------------------------------------------- *)

let begin_safe _ ~xid:_ ~snap_cseq:_ = false
let end_safe _ ~snap_cseq:_ = ()

let register t ~xid ~snap_cseq ~read_only ~deferrable =
  if deferrable then invalid_arg "Ssn.register: deferrable requires the SSI certifier";
  let node =
    {
      xid;
      snap_cseq;
      declared_read_only = read_only;
      status = Active;
      doomed = false;
      wrote = false;
      commit_cseq = inf;
      pstamp = 0;
      sstamp = inf;
      in_readers = [];
      out_writers = [];
    }
  in
  Hashtbl.replace t.by_xid xid node;
  t.active_n <- t.active_n + 1;
  node

(* ---- Evidence ---------------------------------------------------------------- *)

(* w:r / w:w predecessor: the transaction read (or is about to overwrite) a
   version created by [creator].  Version creators wrote, so their
   effective stamp is their commit stamp even under ESSN, and the Clog
   remembers it forever — no SSN node required. *)
let read_from t node ~creator =
  if creator <> node.xid then
    match Mvcc.Clog.status t.clog creator with
    | Mvcc.Clog.Committed c ->
        absorb_eta t ~actor:node ~peer:creator node c ~reason:reason_pred
    | Mvcc.Clog.In_progress | Mvcc.Clog.Aborted -> ()

(* r:w out-edge from MVCC visibility evidence: [node] read a version that
   [writer] overwrote (or deleted), so [writer] serializes after [node]. *)
let conflict_out t node ~writer =
  if writer <> node.xid then
    match Hashtbl.find_opt t.by_xid writer with
    | Some w -> add_edge t ~actor:node ~reader:node ~writer:w
    | None -> (
        match Retention.find_old t.ret writer with
        | None -> () (* writer was not serializable *)
        | Some { Retention.old_out = old_pi; _ } ->
            Obs.incr t.conflicts;
            Obs.trace t.obs ?span:(Obs.owner_span t.obs node.xid) (t.prefix ^ ".rw_edge")
              ~fields:
                [
                  ("reader", Obs.I node.xid);
                  ("writer", Obs.I writer);
                  ("summarized", Obs.B true);
                ];
            absorb_pi t ~actor:node ~peer:writer node old_pi ~reason:reason_succ)

(* r:w in-edges at write time: SIREAD owners of what [node] is writing.
   Unlike SSI, a reader that committed before the writer's snapshot still
   matters: its effective stamp feeds the writer's pstamp.  Its locks last
   until e(reader) falls below the lock horizon H_π of {!cleanup}. *)
let conflict_in t node readers =
  node.wrote <- true;
  let { Predlock.xids; old_committed } = readers in
  List.iter
    (fun rxid ->
      if rxid <> node.xid then
        match Hashtbl.find_opt t.by_xid rxid with
        | None -> () (* lock of a cleaned-up owner: stale, ignore *)
        | Some r -> add_edge t ~actor:node ~reader:r ~writer:node)
    xids;
  match old_committed with
  | Some e ->
      (* Summarized committed readers: the predicate lock records the max
         effective stamp among them (ESSN records e, not c). *)
      Obs.incr t.conflicts;
      absorb_eta t ~actor:node ~peer:(-1) node e ~reason:reason_pred
  | None -> ()

(* ---- Commit / abort ---------------------------------------------------------- *)

(* The 2PC gates (see the header comment).  [committing] distinguishes the
   precommit form (my commit stamp is about to exist) from the prepare
   form. *)
let gate_prepared_in t node =
  (* Committing [node] hands pi(node) = min(sstamp, fresh c) to every
     in-edge reader.  A prepared reader cannot be doomed, so if that would
     close its window the committer gives way. *)
  List.iter
    (fun r ->
      if r.status = Prepared && min r.sstamp node.sstamp <= r.pstamp then begin
        record_exclusion t ~victim:node.xid ~reason:reason_prepared
          ~pstamp:r.pstamp ~sstamp:(min r.sstamp node.sstamp) ~peer:r.xid;
        fail t node reason_prepared
      end)
    node.in_readers

let gate_prepared_out t node =
  (* Committing reader [node] hands e(node) to every out-edge writer.  For
     SSN e is a fresh commit stamp exceeding every finite sstamp; for an
     ESSN read-only transaction it is the (known) snapshot position. *)
  let ey = e_estimate t node in
  List.iter
    (fun w ->
      if w.status = Prepared then begin
        let closes =
          if w.sstamp >= inf then false
          else if ey >= inf then true
          else w.sstamp <= max w.pstamp ey
        in
        if closes then begin
          record_exclusion t ~victim:node.xid ~reason:reason_prepared
            ~pstamp:(max w.pstamp (min ey (inf - 1)))
            ~sstamp:w.sstamp ~peer:w.xid;
          fail t node reason_prepared
        end
      end)
    node.out_writers

let check_own_window t node =
  if closed node then begin
    record_exclusion t ~victim:node.xid
      ~reason:"exclusion window closed at commit" ~pstamp:node.pstamp
      ~sstamp:node.sstamp ~peer:(-1);
    fail t node "exclusion window closed at commit"
  end

let precommit t node =
  check_doomed node;
  check_own_window t node;
  gate_prepared_in t node;
  gate_prepared_out t node

let prepare t node =
  check_doomed node;
  check_own_window t node;
  (* No rw edge may ever connect two prepared transactions: a later
     commit-time propagation between them could be resolved in neither
     endpoint's favour.  New edges always have at least one active
     endpoint, so failing the preparer here keeps the invariant. *)
  if
    List.exists (fun r -> r.status = Prepared) node.in_readers
    || List.exists (fun w -> w.status = Prepared) node.out_writers
  then fail t node "rw conflict with a prepared transaction";
  node.status <- Prepared

let mark_conservative _t node =
  (* Distributed 2PC: remote rw edges are invisible here, so close the
     window for the live prepared transaction exactly as restore_prepared
     does after a crash — every later edge-former gives way. *)
  node.wrote <- true;
  node.pstamp <- 0;
  node.sstamp <- 0

let restore_prepared _t node =
  (* Cold-start recovery of an in-doubt 2PC transaction: its stamps did not
     survive the crash.  [pstamp = sstamp = 0] is the conservative
     fixpoint — the window is permanently closed, so every transaction
     that later forms an rw edge with this one gives way (the prepared
     gates above), and its own eventual commit dooms all in-flight
     readers.  The 2PC outcome itself is never blocked: commit_prepared
     runs no check. *)
  node.status <- Prepared;
  node.wrote <- true;
  node.pstamp <- 0;
  node.sstamp <- 0

let committed t node ~commit_cseq =
  node.status <- Committed;
  node.commit_cseq <- commit_cseq;
  (* Finalize pi: successors committed before me already lowered sstamp;
     my own commit stamp caps it. *)
  if commit_cseq < node.sstamp then node.sstamp <- commit_cseq;
  let e = e_of t node in
  (* Resolve the in-flight edges: I am the committed endpoint now. *)
  List.iter
    (fun r ->
      match r.status with
      | Active | Prepared ->
          if not r.doomed then
            absorb_pi t ~actor:node ~peer:node.xid r node.sstamp
              ~reason:reason_peer_commit
      | Committed | Aborted -> ())
    node.in_readers;
  List.iter
    (fun w ->
      match w.status with
      | Active | Prepared ->
          if not w.doomed then
            absorb_eta t ~actor:node ~peer:node.xid w e ~reason:reason_peer_commit
      | Committed | Aborted -> ())
    node.out_writers;
  t.active_n <- t.active_n - 1;
  Retention.retain t.ret node;
  cleanup t

let aborted t node =
  node.status <- Aborted;
  detach node;
  Predlock.release_owner t.locks node.xid;
  t.active_n <- t.active_n - 1;
  Hashtbl.remove t.by_xid node.xid;
  cleanup t

(* ---- Recovery ------------------------------------------------------------------ *)

let recover t =
  (* Non-prepared active transactions disappear; committed bookkeeping is
     rebuilt from the log by the engine, so drop it wholesale. *)
  let stale = ref [] in
  Hashtbl.iter
    (fun xid n ->
      match n.status with
      | Active ->
          n.status <- Aborted;
          Predlock.release_owner t.locks n.xid;
          stale := xid :: !stale;
          t.active_n <- t.active_n - 1
      | Prepared | Committed | Aborted -> ())
    t.by_xid;
  List.iter (Hashtbl.remove t.by_xid) !stale;
  Retention.reset t.ret t;
  (* Prepared survivors keep their SIREAD locks but lose their stamps:
     conservative closed window, as in restore_prepared. *)
  Hashtbl.iter
    (fun _ p ->
      p.in_readers <- [];
      p.out_writers <- [];
      p.pstamp <- 0;
      p.sstamp <- 0)
    t.by_xid

(* ---- Introspection ------------------------------------------------------------ *)

(* SSN's conservative state after restore_prepared is the closed stamp
   window [pstamp = sstamp = 0]: report it as both-ways conservative so a
   distributed coordinator treats the restored txn as a §7.1 pivot
   candidate, exactly like the SSI backend. *)
let closed n = n.status = Prepared && n.pstamp = 0 && n.sstamp = 0

let conflicts n =
  let c = closed n in
  { rw_in = n.in_readers <> [] || c; rw_out = n.out_writers <> [] || c; conservative = c }

let node_info n =
  {
    info_xid = n.xid;
    info_status = status_name n.status;
    info_doomed = n.doomed;
    info_read_only = n.declared_read_only;
    info_safe = false;
    info_commit_cseq = (if n.status = Committed then Some n.commit_cseq else None);
    info_in = List.rev_map (fun r -> r.xid) n.in_readers;
    info_out = List.rev_map (fun w -> w.xid) n.out_writers;
    info_conservative_in = closed n;
    info_conservative_out = closed n;
  }

let dump_graph t =
  let live = ref [] in
  Hashtbl.iter
    (fun _ n ->
      match n.status with
      | Active | Prepared -> live := n :: !live
      | Committed | Aborted -> ())
    t.by_xid;
  let live = List.sort (fun a b -> compare a.xid b.xid) !live in
  List.map node_info (live @ Retention.to_list t.ret)

(* [by_xid] also holds the committed nodes, exactly those [t.ret]
   retains; aborted nodes never stay in it. *)
let info t xid =
  match Hashtbl.find_opt t.by_xid xid with
  | Some ({ status = Active | Prepared | Committed; _ } as n) -> Some (node_info n)
  | Some { status = Aborted; _ } | None -> None
