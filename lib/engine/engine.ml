open Ssi_storage
open Ssi_util
module Mvcc = Ssi_mvcc.Mvcc
module Clog = Mvcc.Clog
module Snapshot = Mvcc.Snapshot
module Visibility = Mvcc.Visibility
module Certifier = Ssi_core.Certifier
module Btree = Ssi_btree.Btree
module Lockmgr = Ssi_lockmgr.Lockmgr
module Obs = Ssi_obs.Obs
module Predlock = Ssi_core.Predlock
module Wal = Ssi_wal.Wal

type isolation = Read_committed | Repeatable_read | Serializable | Serializable_2pl

let isolation_to_string = function
  | Read_committed -> "READ COMMITTED"
  | Repeatable_read -> "REPEATABLE READ"
  | Serializable -> "SERIALIZABLE"
  | Serializable_2pl -> "SERIALIZABLE (2PL)"

let pp_isolation ppf iso = Format.pp_print_string ppf (isolation_to_string iso)

include Db_error

let fail e = raise (Error e)

type costs = {
  cpu_per_op : float;
  cpu_per_tuple : float;
  cpu_per_lock : float;
  io_per_page : float;
  miss_ratio : float;
  io_commit : float;
}

let zero_costs =
  {
    cpu_per_op = 0.;
    cpu_per_tuple = 0.;
    cpu_per_lock = 0.;
    io_per_page = 0.;
    miss_ratio = 0.;
    io_commit = 0.;
  }

type config = {
  certifier : Certifier.config;
  tuples_per_page : int;
  btree_order : int;
  next_key_gaps : bool;
  costs : costs;
  charge_cpu : (float -> unit) option;
  charge_io : (float -> unit) option;
}

let default_config =
  {
    certifier = Certifier.default_config;
    tuples_per_page = 64;
    btree_order = 32;
    next_key_gaps = false;
    costs = zero_costs;
    charge_cpu = None;
    charge_io = None;
  }

(* Registry handles hoisted out of the hot paths.  The latency histograms
   record virtual-clock seconds per operation ([engine.latency.<op>]);
   under the direct (non-simulated) scheduler the clock is constant and
   the observations are zeros. *)
type metrics = {
  m_begins : Obs.counter;
  m_commits : Obs.counter;
  m_aborts : Obs.counter;
  m_serialization_failures : Obs.counter;
  m_write_conflicts : Obs.counter;
  m_deadlocks : Obs.counter;
  m_retries : Obs.counter;
  m_giveups : Obs.counter;
  m_faults : Obs.counter;
  h_read : Obs.histogram;
  h_index_scan : Obs.histogram;
  h_seq_scan : Obs.histogram;
  h_insert : Obs.histogram;
  h_update : Obs.histogram;
  h_delete : Obs.histogram;
  h_commit : Obs.histogram;
  g_active : Obs.gauge;
      (** [engine.active_txns]: live (running + prepared) transactions —
          a saturation signal for the scrape/watchdog layer *)
}

type index_s = {
  idx_name : string;
  table_name : string;
  col : int;
  tree : Btree.t;
  pred_locks : bool;
  next_key : bool;  (** next-key gap locks instead of leaf-page locks *)
}

type table_s = {
  heap : Heap.t;
  pk_index : index_s;
  mutable secondary : index_s list;
  rel_lock : Lockmgr.target;  (** the table's relation lock target, built once *)
}

(* A serializable transaction's certifier node, packed with the
   certifier instance and implementation that created it; none when the
   snapshot of a READ ONLY transaction is safe at BEGIN (§4.2). *)
type sx =
  | No_sx
  | Safe_sx
  | Sx : (module Certifier.S with type t = 'c and type node = 'n) * 'c * 'n -> sx

type t = {
  clog : Clog.t;
  cert : Certifier.packed;
  predlocks : Predlock.t;  (** the certifier's SIREAD lock table *)
  locks : Lockmgr.t;
  tables : (string, table_s) Hashtbl.t;
  idx_by_name : (string, index_s) Hashtbl.t;
  active : (Heap.xid, txn) Hashtbl.t;  (** running and prepared transactions *)
  prepared_by_gid : (string, txn) Hashtbl.t;
  sched : Waitq.scheduler;
  cfg : config;
  obs : Obs.t;
  metrics : metrics;
  mutable on_log : (Wal.record -> Obs.span_ctx option -> unit) list;  (** registration order *)
  mutable on_wait : waiter:Heap.xid -> holder:Heap.xid -> unit;
  mutable commit_gate : (unit -> unit) option;
  mutable commit_wait : (int -> unit) option;
  mutable fault_injector : (op:string -> unit) option;
  mutable wal_device : Wal.t option;  (** the durable log, when attached *)
  mutable scan : scan option;  (** made by the first index scan that cannot suspend *)
  probe : probe;
  mutable recorder : recorder option;
  mutable unsafe_tail : (Heap.xid * undo_entry list) list;
      (** commits {!redo}ne since the last safe-point commit, newest first,
          with the undo entries that take each back *)
}

(* The state of an index scan that cannot suspend ({!index_scan_mvcc}).
   An engine makes one at its first such scan and reuses it for every later
   one, so a scan allocates neither its walk's callbacks nor its counters:
   the callbacks read the scan in progress from the fields below, which
   keep the last scan's values until the next one starts. *)
and scan = {
  buf : Scan_buffer.t;
  mutable s_txn : txn;
  mutable s_tbl : table_s;
  mutable s_idx : index_s;
  mutable s_gaps : bool;  (** the walk takes [s_idx]'s SIREAD gap locks *)
  mutable s_locked_key : bool;  (** the walk has next-key gap-locked a key *)
  mutable s_last : Value.t;  (** the last one, when [s_locked_key] *)
  mutable s_tuples : int;  (** heap tuples examined *)
  mutable s_pages : int;  (** leaf pages examined *)
  on_page : int -> unit;
  on_entry : Value.t -> Value.t -> unit;
  skipped : Heap.xid -> unit;  (** [skipped_by s_txn] *)
  lock : page:int -> Value.t array -> pos:int -> len:int -> unit;
}

(* The buffer a 2PL index probe walks into ({!lock_index_probe}): the
   leaf pages it visits, leftmost first, and when asked the [(ikey, pk)]
   entries in range, in key order.  One per engine, reused by every probe
   through callbacks made once; a probe that has to wait for a lock copies
   what it still needs out of it first, since other transactions' probes
   run while it waits. *)
and probe = {
  mutable pr_pages : int array;
  mutable pr_npages : int;
  mutable pr_keys : Value.t array;
  mutable pr_pks : Value.t array;
  mutable pr_nentries : int;
  pr_on_page : int -> unit;
  pr_on_entry : Value.t -> Value.t -> unit;
}

(* An attached history recorder ({!set_recorder}).  The reads and first
   writes of each running transaction are kept here, keyed by xid, rather
   than in [txn]: a detached engine allocates nothing for them. *)
and recorder = { emit : Recorded.txn -> unit; pending : (Heap.xid, pending) Hashtbl.t }

and pending = {
  mutable p_reads : Recorded.read list;  (** newest first *)
  mutable p_old : (string * Value.t * (string * Value.t) list) list;
      (** (table, key, index keys of the version replaced), one per row
          at its first write *)
  mutable p_tag : string option;
}

and txn = {
  db : t;
  txn_xid : Heap.xid;
  iso : isolation;
  ro : bool;
  mutable snapshot : Snapshot.t;
  mutable sxact : sx;  (** [No_sx] once a crash dropped a [Safe_sx] horizon *)
  mutable finished : bool;
  mutable prepared_gid : string option;
  mutable undo : undo_entry list;  (** stack, newest first *)
  mutable wal : Wal.op list;  (** reversed *)
  mutable savepoints : (string * undo_entry list * Wal.op list) list;
      (** name, [undo] and [wal] when it was set — newest first *)
  mutable subdepth : int;
  span : Obs.span;
      (** the span engine operations hang their child spans on — supplied
          by the client (retry loop) or opened at begin when absent *)
  span_owned : bool;  (** the engine opened [span] and must finish it *)
  span_ctx : Obs.span_ctx;
      (** [span]'s identity, which operations and the commit parent on: it
          outlives the handle once a finished [span] leaves the span table *)
  mutable write_waiting_for : Heap.xid option;
      (** the transaction whose tuple write lock this one is waiting on *)
  mutable crashed : bool;
      (** the transaction vanished in {!simulate_connection_loss}: the
          session's next operation fails with a retryable [Transient_fault] *)
  mutable wounded : bool;  (** {!wound}: the next step fails retryably *)
  commit_wq : Waitq.t;  (** woken when this transaction commits or aborts *)
}

and undo_entry =
  | U_new_version of table_s * Value.t
  | U_index_entry of index_s * Value.t * Value.t
  | U_set_xmax of Heap.tuple

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let probe_page pr page =
  let n = pr.pr_npages in
  if n = Array.length pr.pr_pages then pr.pr_pages <- grow pr.pr_pages 0;
  pr.pr_pages.(n) <- page;
  pr.pr_npages <- n + 1

let probe_entry pr ikey pk =
  let n = pr.pr_nentries in
  if n = Array.length pr.pr_keys then begin
    pr.pr_keys <- grow pr.pr_keys Value.Null;
    pr.pr_pks <- grow pr.pr_pks Value.Null
  end;
  pr.pr_keys.(n) <- ikey;
  pr.pr_pks.(n) <- pk;
  pr.pr_nentries <- n + 1

let new_probe () =
  let rec pr =
    {
      pr_pages = Array.make 8 0;
      pr_npages = 0;
      pr_keys = Array.make 8 Value.Null;
      pr_pks = Array.make 8 Value.Null;
      pr_nentries = 0;
      pr_on_page = (fun page -> probe_page pr page);
      pr_on_entry = (fun ikey pk -> probe_entry pr ikey pk);
    }
  in
  pr

let create ?(scheduler = Waitq.direct) ?(config = default_config) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  Obs.set_clock obs scheduler.Waitq.now;
  let clog = Clog.create () in
  let cert = Certifier.make ~config:config.certifier ~obs clog in
  let (Certifier.Cert ((module C), c)) = cert in
  {
    clog;
    cert;
    predlocks = C.locks c;
    locks = Lockmgr.create ~obs scheduler;
    tables = Hashtbl.create 16;
    idx_by_name = Hashtbl.create 16;
    active = Hashtbl.create 64;
    prepared_by_gid = Hashtbl.create 8;
    scan = None;
    probe = new_probe ();
    sched = scheduler;
    cfg = config;
    obs;
    metrics =
      {
        m_begins = Obs.counter obs "engine.begins";
        m_commits = Obs.counter obs "engine.commits";
        m_aborts = Obs.counter obs "engine.aborts";
        m_serialization_failures = Obs.counter obs "engine.serialization_failures";
        m_write_conflicts = Obs.counter obs "engine.write_conflicts";
        m_deadlocks = Obs.counter obs "engine.deadlocks";
        m_retries = Obs.counter obs "engine.retries";
        m_giveups = Obs.counter obs "engine.giveups";
        m_faults = Obs.counter obs "engine.faults_injected";
        h_read = Obs.histogram obs "engine.latency.read";
        h_index_scan = Obs.histogram obs "engine.latency.index_scan";
        h_seq_scan = Obs.histogram obs "engine.latency.seq_scan";
        h_insert = Obs.histogram obs "engine.latency.insert";
        h_update = Obs.histogram obs "engine.latency.update";
        h_delete = Obs.histogram obs "engine.latency.delete";
        h_commit = Obs.histogram obs "engine.latency.commit";
        g_active = Obs.gauge obs "engine.active_txns";
      };
    on_log = [];
    on_wait = (fun ~waiter:_ ~holder:_ -> ());
    commit_gate = None;
    commit_wait = None;
    fault_injector = None;
    wal_device = None;
    recorder = None;
    unsafe_tail = [];
  }

let set_on_log t f = t.on_log <- t.on_log @ [ f ]
let set_on_wait t f = t.on_wait <- f

let attach_wal t w =
  t.wal_device <- Some w;
  Wal.set_obs w t.obs

let set_commit_gate t f = t.commit_gate <- f
let set_commit_wait t f = t.commit_wait <- f
let set_fault_injector t f = t.fault_injector <- f

let set_recorder t emit =
  t.recorder <- Option.map (fun emit -> { emit; pending = Hashtbl.create 64 }) emit

let recording t = t.recorder <> None

let pending_of r xid =
  match Hashtbl.find_opt r.pending xid with
  | Some p -> p
  | None ->
      let p = { p_reads = []; p_old = []; p_tag = None } in
      Hashtbl.add r.pending xid p;
      p

let record_read r txn read =
  let p = pending_of r txn.txn_xid in
  p.p_reads <- read :: p.p_reads

(* The rows of [rel] the transaction has written so far: a scan returns
   its own version of them.  From the redo ops, which a rollback to a
   savepoint trims. *)
let own_rows txn rel =
  List.filter_map
    (function
      | Wal.Insert { table; key; _ } | Wal.Update { table; key; _ } | Wal.Delete { table; key } ->
          if table = rel then Some key else None)
    txn.wal

(* A fault point: where an installed injector may kill the current
   operation with a retryable error.  Never placed after a commit point, so
   acknowledged commits are durable and faulted attempts wrote nothing. *)
let fault_point db ~op =
  match db.fault_injector with
  | None -> ()
  | Some inject -> (
      try inject ~op
      with Error (Transient_fault _) as e ->
        Obs.incr db.metrics.m_faults;
        Obs.trace db.obs "fault" ~fields:[ ("op", Obs.S op) ];
        raise e)

let obs t = t.obs
let certifier t = t.cert
let certifier_kind t = t.cfg.certifier.kind
let config t = t.cfg
let predicate_locks t = t.predlocks

let active_transactions t = Hashtbl.length t.active

(* Sorted: [Hashtbl.fold] order depends on insertion history and hashing,
   and this list feeds checkpoint images, recovery reports and coordinator
   scans that must be byte-identical across runs of the same seed. *)
let table_names t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [])


(* ---- Cost accounting ----------------------------------------------------- *)

let charge_cpu db x =
  if x > 0. then match db.cfg.charge_cpu with Some f -> f x | None -> db.sched.charge x

let charge_io db x =
  if x > 0. then match db.cfg.charge_io with Some f -> f x | None -> db.sched.charge x

let finish_op db ~tuples ~locks ~pages =
  let c = db.cfg.costs in
  charge_cpu db
    (c.cpu_per_op
    +. (float_of_int tuples *. c.cpu_per_tuple)
    +. (float_of_int locks *. c.cpu_per_lock));
  charge_io db (float_of_int pages *. c.miss_ratio *. c.io_per_page)

(* ---- Durable log plumbing ------------------------------------------------- *)

(* Append [record] to the durable log, when one is attached, and return
   once it is durable: [`Flush] fsyncs it now (DDL, epochs and checkpoints
   are rare), [`Wait] blocks until the group-commit flush that covers it
   (a no-op when appends flush synchronously). *)
let log db record ~sync =
  match db.wal_device with
  | None -> ()
  | Some w -> (
      let lsn = Wal.append w record in
      match sync with `Flush -> Wal.flush w | `Wait -> Wal.wait_durable w db.sched lsn)

(* DDL reaches the log hooks too, in log order with the commits. *)
let log_ddl db record =
  log db record ~sync:`Flush;
  List.iter (fun hook -> hook record None) db.on_log

(* ---- Schema --------------------------------------------------------------- *)

let table_of db name =
  match Hashtbl.find db.tables name with
  | tbl -> tbl
  | exception Not_found -> fail (Undefined_object ("Engine: unknown table " ^ name))

let table_schema t ~table = Heap.schema (table_of t table).heap

let table_indexes t ~table =
  let tbl = table_of t table in
  let schema = Heap.schema tbl.heap in
  let col i = (Schema.columns schema).(i.col) in
  (tbl.pk_index.idx_name, col tbl.pk_index)
  :: List.map (fun i -> (i.idx_name, col i)) tbl.secondary

let hook_split db index =
  Btree.set_on_split index.tree (fun ~old_page ~new_page ->
      Predlock.on_index_page_split db.predlocks ~index:index.idx_name ~old_page ~new_page)

let create_table db ~name ~cols ~key =
  if Hashtbl.mem db.tables name then fail (Duplicate_object ("Engine.create_table: duplicate " ^ name));
  let schema = Schema.make ~name ~cols ~key in
  let heap = Heap.create ~tuples_per_page:db.cfg.tuples_per_page schema in
  let pk_name = name ^ "_pkey" in
  let pk_index =
    {
      idx_name = pk_name;
      table_name = name;
      col = Schema.key_index schema;
      tree = Btree.create ~order:db.cfg.btree_order ~name:pk_name ();
      pred_locks = true;
      next_key = db.cfg.next_key_gaps;
    }
  in
  let tbl = { heap; pk_index; secondary = []; rel_lock = Lockmgr.Relation name } in
  hook_split db pk_index;
  Hashtbl.add db.tables name tbl;
  Hashtbl.add db.idx_by_name pk_name pk_index;
  log_ddl db (Wal.Schema { d_name = name; d_cols = cols; d_key = key })

let create_index db ~table ~name ~column ?(predicate_locks = true) ?next_key_gaps () =
  let tbl = table_of db table in
  if Hashtbl.mem db.idx_by_name name then
    fail (Duplicate_object ("Engine.create_index: duplicate " ^ name));
  let col =
    try Schema.column_index (Heap.schema tbl.heap) column
    with Not_found -> fail (Undefined_object ("unknown column " ^ column))
  in
  let index =
    {
      idx_name = name;
      table_name = table;
      col;
      tree = Btree.create ~order:db.cfg.btree_order ~name ();
      pred_locks = predicate_locks;
      next_key = Option.value next_key_gaps ~default:db.cfg.next_key_gaps;
    }
  in
  hook_split db index;
  (* Backfill from every existing version so old versions stay reachable. *)
  Heap.iter_heads tbl.heap (fun head ->
      Seq.iter
        (fun (v : Heap.tuple) -> ignore (Btree.insert index.tree ~key:v.row.(col) ~pk:v.key))
        (Heap.versions head));
  tbl.secondary <- index :: tbl.secondary;
  Hashtbl.add db.idx_by_name name index;
  log_ddl db
    (Wal.Index
       {
         table;
         def =
           {
             i_name = name;
             i_column = column;
             i_pred_locks = predicate_locks;
             i_next_key = index.next_key;
           };
       })

let drop_index db ~name =
  match Hashtbl.find_opt db.idx_by_name name with
  | None -> fail (Undefined_object ("Engine.drop_index: unknown index " ^ name))
  | Some index ->
      let tbl = table_of db index.table_name in
      if index == tbl.pk_index then
        fail (Invalid_request "Engine.drop_index: cannot drop primary key");
      tbl.secondary <- List.filter (fun i -> i != index) tbl.secondary;
      Hashtbl.remove db.idx_by_name name;
      (* §5.2.1: index-gap locks are replaced with a relation-level lock on
         the heap. *)
      Predlock.drop_index_to_relation db.predlocks ~index:name ~heap_rel:index.table_name;
      log_ddl db (Wal.Drop_index name)

let recluster db ~table =
  let tbl = table_of db table in
  Heap.rewrite tbl.heap;
  (* Physical locations changed: promote page/tuple SIREAD locks (§5.2.1). *)
  Predlock.promote_relation db.predlocks ~rel:table

(* ---- Transaction lifecycle ------------------------------------------------- *)

let xid txn = txn.txn_xid
let engine_of txn = txn.db
let is_finished txn = txn.finished && not txn.crashed
let snapshot_cseq txn = txn.snapshot.Snapshot.horizon

let tag txn name =
  match txn.db.recorder with None -> () | Some r -> (pending_of r txn.txn_xid).p_tag <- Some name

let snapshot_is_safe txn =
  match txn.sxact with Sx ((module C), _, node) -> C.is_safe node | Safe_sx -> true | No_sx -> false

(* A safe-at-BEGIN transaction ends: release its snapshot's horizon. *)
let end_safe txn =
  let (Certifier.Cert ((module C), c)) = txn.db.cert in
  C.end_safe c ~snap_cseq:txn.snapshot.Snapshot.horizon

let make_txn db ~iso ~ro ~xid ~snapshot ~sxact ~span =
  (* Without a client-supplied span the transaction roots its own trace,
     so standalone [with_txn] users still get a complete tree. *)
  let span, span_owned =
    match span with
    | Some s ->
        Obs.Span.add s "xid" (Obs.I xid);
        (s, false)
    | None ->
        ( Obs.Span.start db.obs "txn"
            ~attrs:[ ("iso", Obs.S (isolation_to_string iso)); ("xid", Obs.I xid) ],
          true )
  in
  let txn =
    {
      db;
      txn_xid = xid;
      iso;
      ro;
      snapshot;
      sxact;
      finished = false;
      prepared_gid = None;
      undo = [];
      wal = [];
      savepoints = [];
      subdepth = 0;
      span;
      span_owned;
      span_ctx = Obs.Span.ctx span;
      write_waiting_for = None;
      crashed = false;
      wounded = false;
      commit_wq = Waitq.create ();
    }
  in
  (* Layers that know the transaction only by xid find it here: the
     certifier emits its conflict events under it, the lock manager
     parents its wait spans on it. *)
  Obs.set_owner_span db.obs xid span;
  Hashtbl.add db.active xid txn;
  Obs.set_gauge db.metrics.g_active (float_of_int (Hashtbl.length db.active));
  txn

let rec begin_deferrable ?span db =
  (* §4.3: acquire a snapshot but block until it is known safe; on an
     unsafe verdict, throw the snapshot away and retry with a new one. *)
  let xid = Clog.new_xid db.clog in
  let snapshot = Snapshot.take db.clog ~owner:xid in
  let (Certifier.Cert (((module C) as m), c)) = db.cert in
  let node =
    C.register c ~xid ~snap_cseq:snapshot.Snapshot.horizon ~read_only:true ~deferrable:true
  in
  let give_up () = C.aborted c node; Clog.abort db.clog xid in
  (* A wait the direct scheduler refuses must not leave the node behind. *)
  (try
     while not (C.safety_determined node) do
       db.sched.suspend (C.safety_waitq node)
     done
   with e -> give_up (); raise e);
  if C.is_safe node then
    make_txn db ~iso:Serializable ~ro:true ~xid ~snapshot ~sxact:(Sx (m, c, node)) ~span
  else begin
    give_up ();
    begin_deferrable ?span db
  end

let begin_txn ?(isolation = Serializable) ?(read_only = false) ?(deferrable = false) ?span db =
  if deferrable then begin
    if not (read_only && isolation = Serializable) then
      fail (Invalid_request "Engine.begin_txn: DEFERRABLE requires READ ONLY SERIALIZABLE");
    if not db.cfg.certifier.read_only_opt then
      fail (Invalid_request "Engine.begin_txn: DEFERRABLE requires the read-only optimizations");
    let (Certifier.Cert ((module C), _)) = db.cert in
    if not C.supports_deferrable then
      fail
        (Invalid_request
           (Printf.sprintf "Engine.begin_txn: DEFERRABLE requires the SSI certifier (running %s)"
              (Certifier.kind_to_string (certifier_kind db))));
    begin_deferrable ?span db
  end
  else begin
    let xid = Clog.new_xid db.clog in
    let snapshot = Snapshot.take db.clog ~owner:xid in
    let sxact =
      match isolation with
      | Serializable ->
          let (Certifier.Cert (((module C) as m), c)) = db.cert in
          let snap_cseq = snapshot.Snapshot.horizon in
          if read_only && C.begin_safe c ~xid ~snap_cseq then Safe_sx
          else Sx (m, c, C.register c ~xid ~snap_cseq ~read_only ~deferrable:false)
      | Read_committed | Repeatable_read | Serializable_2pl -> No_sx
    in
    make_txn db ~iso:isolation ~ro:read_only ~xid ~snapshot ~sxact ~span
  end

let begin_txn ?isolation ?read_only ?deferrable ?span db =
  Obs.incr db.metrics.m_begins;
  begin_txn ?isolation ?read_only ?deferrable ?span db

(* A standby's read at [horizon], owned by [xid], an id no clog hands
   out: a primary commit redone later never counts as its own write. *)
let begin_snapshot db ~xid ~horizon =
  if xid >= 0 then invalid_arg "Engine.begin_snapshot: the owner xid must be negative";
  Clog.install db.clog xid Clog.In_progress;
  Obs.incr db.metrics.m_begins;
  let snapshot = { Snapshot.owner = xid; horizon } in
  make_txn db ~iso:Repeatable_read ~ro:true ~xid ~snapshot ~sxact:No_sx ~span:None

(* SIREAD locks and the certifier's evidence hooks are live only while the
   transaction is tracked: plain snapshot-isolation transactions and
   safe-snapshot read-only transactions have no (active) sxact.  This is
   the one safe-snapshot guard; no certifier hook repeats it. *)
let tracking txn =
  match txn.sxact with
  | Sx ((module C), _, node) when not (C.is_safe node) -> txn.sxact
  | Sx _ | Safe_sx | No_sx -> No_sx

let is_tracked txn = match tracking txn with Sx _ -> true | Safe_sx | No_sx -> false

(* Misuse of a handle: operating on a finished or prepared transaction.  A
   crashed one is finished too, but fails with [ensure_running]'s retryable
   error instead. *)
let ensure_usable txn =
  if not txn.crashed then begin
    if txn.finished then invalid_arg "Engine: transaction already finished";
    if txn.prepared_gid <> None then invalid_arg "Engine: transaction is prepared"
  end

let ensure_running txn =
  if txn.crashed then
    fail (Transient_fault { op = "txn"; reason = "connection lost: server crashed" });
  ensure_usable txn;
  if txn.wounded then
    fail (Serialization_failure { xid = txn.txn_xid; reason = "wounded by an older transaction" });
  match txn.sxact with Sx ((module C), _, node) -> C.check_doomed node | Safe_sx | No_sx -> ()

(* Per-statement snapshots: READ COMMITTED semantics, and the way the 2PL
   baseline sees the latest committed data once its locks are held.  Taken
   at each statement's start and re-taken after any blocking lock
   acquisition: the snapshot must reflect the commits the granted lock now
   protects against, or a 2PL reader would see stale data (and TPC-C
   order-id allocation would hand out duplicates). *)
let refresh_stmt_snapshot txn =
  match txn.iso with
  | Read_committed | Serializable_2pl ->
      (* No commit since the last one: it would be the same snapshot. *)
      if txn.snapshot.Snapshot.horizon <> Clog.next_cseq txn.db.clog then
        txn.snapshot <- Snapshot.take txn.db.clog ~owner:txn.txn_xid
  | Repeatable_read | Serializable -> ()

let start_op txn =
  ensure_running txn;
  refresh_stmt_snapshot txn

let ensure_writable txn = if txn.ro then fail Read_only_transaction

let is_2pl txn = txn.iso = Serializable_2pl

(* ---- Undo ------------------------------------------------------------------- *)

let apply_undo_entry db = function
  | U_new_version (tbl, key) -> Heap.unlink_head tbl.heap key
  | U_index_entry (idx, ikey, pk) ->
      (* Rolling back the insert merges the gap the entry had split back
         into its successor's: locks guarding the vanished key must
         survive on the successor, or a later insert into the reunited
         gap would miss those readers.  Only when the key is physically
         gone — other pks under the same index key keep the gap split. *)
      if Btree.delete idx.tree ~key:ikey ~pk && idx.next_key
         && Btree.lookup idx.tree ikey ~pages:(ref []) = []
      then
        Predlock.on_index_key_remove db.predlocks
          ~index:idx.idx_name ~key:ikey
          ~succ:(Btree.next_key_after idx.tree ikey)
  | U_set_xmax tuple -> Heap.set_xmax tuple Heap.invalid_xid

(* Pop and apply undo entries until [txn.undo] is [saved] again: a
   savepoint's list head is a suffix of every later [txn.undo], so this is
   linear in the entries undone. *)
let rec undo_to txn saved =
  match txn.undo with
  | e :: rest when txn.undo != saved ->
      apply_undo_entry txn.db e;
      txn.undo <- rest;
      undo_to txn saved
  | _ -> ()

(* Roll back every write of [txn] and mark it aborted in the clog.  An
   aborted attempt leaves nothing in the recorded history. *)
let discard txn =
  undo_to txn [];
  txn.wal <- [];
  (match txn.db.recorder with None -> () | Some r -> Hashtbl.remove r.pending txn.txn_xid);
  Clog.abort txn.db.clog txn.txn_xid

(* ---- Savepoints (§7.3) -------------------------------------------------------- *)

let savepoint txn name =
  ensure_running txn;
  txn.savepoints <- (name, txn.undo, txn.wal) :: txn.savepoints;
  txn.subdepth <- txn.subdepth + 1

let find_savepoint txn name =
  let rec loop acc = function
    | [] -> None
    | ((n, _, _) as sp) :: rest ->
        if n = name then Some (List.rev acc, sp, rest) else loop (sp :: acc) rest
  in
  loop [] txn.savepoints

let rollback_to_savepoint txn name =
  ensure_running txn;
  match find_savepoint txn name with
  | None -> fail (Undefined_object ("Engine: no such savepoint " ^ name))
  | Some (newer, ((_, undo, wal) as sp), older) ->
      (* Nested savepoints established after [name] are destroyed; [name]
         itself survives (SQL semantics). *)
      txn.subdepth <- txn.subdepth - List.length newer;
      txn.savepoints <- sp :: older;
      undo_to txn undo;
      txn.wal <- wal

let release_savepoint txn name =
  ensure_running txn;
  match find_savepoint txn name with
  | None -> fail (Undefined_object ("Engine: no such savepoint " ^ name))
  | Some (newer, _, older) ->
      txn.subdepth <- txn.subdepth - (List.length newer + 1);
      txn.savepoints <- older

(* ---- Waiting for writers ------------------------------------------------------ *)

(* Suspend until transaction [other] (which holds a tuple write lock we
   ran into) commits or aborts.  Tuple-lock waits can cycle (two
   transactions updating the same rows in opposite orders), so — like
   PostgreSQL, whose tuple-lock conflicts go through the heavyweight lock
   manager precisely for its deadlock detector (§5.1) — we check the
   waits-for chain before suspending and fail the requester on a cycle.
   Then [on_wait] hears of the wait unless the holder is prepared. *)
let wait_for_xid txn other =
  match Hashtbl.find_opt txn.db.active other with
  | None -> () (* already resolved *)
  | Some holder ->
      let rec cycles_back t steps =
        if steps > 1024 then false
        else
          match t.write_waiting_for with
          | None -> false
          | Some next ->
              next = txn.txn_xid
              || (match Hashtbl.find_opt txn.db.active next with
                 | None -> false
                 | Some t' -> cycles_back t' (steps + 1))
      in
      if cycles_back holder 0 then begin
        Obs.incr txn.db.metrics.m_deadlocks;
        fail (Serialization_failure { xid = txn.txn_xid; reason = "deadlock detected" })
      end;
      if holder.prepared_gid = None then txn.db.on_wait ~waiter:txn.txn_xid ~holder:other;
      (* A holder the hook finished has already woken its [commit_wq]. *)
      if not (holder.finished || txn.wounded) then
        Fun.protect ~finally:(fun () -> txn.write_waiting_for <- None) (fun () ->
            txn.write_waiting_for <- Some other;
            txn.db.sched.suspend holder.commit_wq);
      refresh_stmt_snapshot txn;
      (* Re-check doom: the conflict that resolved may have chosen us. *)
      ensure_running txn

(* Wake a tuple-write wait now: waiters re-check the row after any wake. *)
let wound txn =
  txn.wounded <- true;
  Option.iter (fun h -> Waitq.wake_all h.commit_wq)
    (Option.bind txn.write_waiting_for (Hashtbl.find_opt txn.db.active))

let in_progress db x = match Clog.status db.clog x with Clog.In_progress -> true | _ -> false

(* The newest version of a row whose creator did not abort, with all
   in-progress writers (creator or deleter) awaited first. *)
let rec live_head txn tbl key =
  match Heap.head tbl.heap key with
  | head when Heap.is_absent head -> None
  | head ->
      let rec newest (v : Heap.tuple) =
        match Clog.status txn.db.clog v.xmin with
        | Clog.Aborted -> ( match v.prev with None -> None | Some older -> newest older)
        | Clog.In_progress when v.xmin <> txn.txn_xid -> Some (`Wait v.xmin)
        | Clog.In_progress | Clog.Committed _ -> Some (`Head v)
      in
      (match newest head with
      | None -> None
      | Some (`Wait x) ->
          wait_for_xid txn x;
          live_head txn tbl key
      | Some (`Head v) ->
          if v.xmax <> Heap.invalid_xid && v.xmax <> txn.txn_xid && in_progress txn.db v.xmax
          then begin
            wait_for_xid txn v.xmax;
            live_head txn tbl key
          end
          else Some v)

(* ---- Shared read path ----------------------------------------------------------- *)

(* §5.3: report [w], the concurrent writer of a newer version [txn]'s
   snapshot skipped, as an rw-conflict out of [txn].  A read builds
   [skipped_by txn] once and passes it to every [visible] call. *)
let skipped_by txn w =
  match tracking txn with
  | Sx ((module C), c, node) -> C.conflict_out c node ~writer:w
  | Safe_sx | No_sx -> ()

(* The version of a row that [txn]'s snapshot sees, from the chain head as
   [Heap.head] returns it, or [Heap.absent]; [skipped] hears every writer
   skipped on the way. *)
let visible txn ~skipped head = Visibility.find_visible txn.db.clog txn.snapshot ~skipped head

(* Record that [txn] read version [v]: an rw-conflict out to its
   concurrent deleter, and [v]'s creator for the certifiers that track
   it.  Returns whether [txn] is tracked, i.e. whether the caller must take
   a SIREAD lock on what it read. *)
let note_read txn (v : Heap.tuple) =
  match tracking txn with
  | Sx ((module C), c, node) ->
      let deleter = Visibility.deleter txn.db.clog txn.snapshot v in
      if deleter <> Heap.invalid_xid then C.conflict_out c node ~writer:deleter;
      C.read_from c node ~creator:v.xmin;
      true
  | Safe_sx | No_sx -> false

let sees txn x = Snapshot.sees_xid txn.db.clog txn.snapshot x

(* The version whose committed deletion hides a row from [txn]'s
   snapshot, from the chain head [v]: the newest version whose creator
   the snapshot sees, when it sees that version's deleter too; otherwise
   [Heap.absent].  A plain walk, so a scan can ask it of every row without
   allocating. *)
let rec seen_deletion txn (v : Heap.tuple) =
  if Heap.is_absent v then Heap.absent
  else if sees txn v.xmin then
    if v.xmax <> Heap.invalid_xid && sees txn v.xmax then v else Heap.absent
  else match v.prev with None -> Heap.absent | Some older -> seen_deletion txn older

(* A read that found the row absent saw its committed deletion, if one
   hides the newest version its snapshot sees: a w:r dependency on the
   deleter, as a read of a version depends on the version's creator. *)
let note_absent txn head =
  match tracking txn with
  | Sx ((module C), c, node) ->
      let v = seen_deletion txn head in
      if not (Heap.is_absent v) then C.read_from c node ~creator:v.xmax
  | Safe_sx | No_sx -> ()

(* The version a deletion removed, from the version [v] it marked dead:
   below any versions the deleter created itself, the one it first
   superseded. *)
let rec deleted_image (v : Heap.tuple) =
  match v.prev with
  | Some older when older.xmax = v.xmax -> deleted_image older
  | Some _ | None -> v

(* The same for an index scan that found no visible row behind entry
   [ikey] of [idx]: it saw the deletion only if the version the deletion
   removed carried [ikey], i.e. was in the scanned range. *)
let note_absent_entry txn idx ikey head =
  match tracking txn with
  | Sx ((module C), c, node) ->
      let v = seen_deletion txn head in
      if (not (Heap.is_absent v)) && Value.equal (deleted_image v).row.(idx.col) ikey then
        C.read_from c node ~creator:v.xmax
  | Safe_sx | No_sx -> ()

(* The next-key gap lock above [key]: on its successor, or on the gap
   above the highest key (§5.2.1 "next-key locking" future work). *)
let ssi_lock_gap_above txn idx key =
  let locks = txn.db.predlocks and owner = txn.txn_xid and index = idx.idx_name in
  match Btree.next_key_after idx.tree key with
  | Some succ -> Predlock.lock_index_key locks ~owner ~index ~key:succ
  | None -> Predlock.lock_index_inf locks ~owner ~index

(* Acquire the SIREAD gap locks for a point probe of [key], walking its
   leaves before the row is visited.  Page mode locks every examined leaf
   page; next-key mode locks [key] when an entry has it, then the gap
   above it, which together cover every gap the probe observed. *)
let ssi_lock_point_gaps txn idx key =
  let locks = txn.db.predlocks and owner = txn.txn_xid and index = idx.idx_name in
  if idx.next_key then begin
    let found = ref false in
    Btree.walk idx.tree ~lo:key ~hi:key ~page:ignore ~entry:(fun _ _ -> found := true);
    if !found then Predlock.lock_index_key locks ~owner ~index ~key;
    ssi_lock_gap_above txn idx key
  end
  else
    Btree.walk_pages idx.tree ~lo:key ~hi:key ~page:(fun page ->
        Predlock.lock_index_page locks ~owner ~index ~page)

(* ---- Heavyweight locks (2PL) ------------------------------------------------ *)

(* Take a heavyweight lock for [txn], waiting if it must.  The lock
   manager fails the requester whose wait would close a cycle; that is a
   serialization failure here. *)
let lock txn target mode =
  match Lockmgr.acquire txn.db.locks ~owner:txn.txn_xid target mode with
  | () -> ()
  | exception Lockmgr.Deadlock { victim; _ } ->
      Obs.incr txn.db.metrics.m_deadlocks;
      fail (Serialization_failure { xid = victim; reason = "deadlock detected" })

(* Take a heavyweight lock only if it is granted at once, so that no other
   transaction runs meanwhile; say whether it was. *)
let lock_now txn target mode = Lockmgr.try_acquire txn.db.locks ~owner:txn.txn_xid target mode

(* S-lock the leaf pages [pages.(0..i)], rightmost first, and say whether
   any had to wait.  Before a wait, the pages still to lock are copied out
   of the engine's probe buffer, which other probes reuse meanwhile. *)
let rec lock_leaves txn idx pages i ~waited =
  if i < 0 then waited
  else
    let target = Lockmgr.Index_page (idx.idx_name, pages.(i)) in
    if lock_now txn target Lockmgr.S then lock_leaves txn idx pages (i - 1) ~waited
    else begin
      let pages = Array.sub pages 0 i in
      lock txn target Lockmgr.S;
      lock_leaves txn idx pages (i - 1) ~waited:true
    end

(* Under 2PL an index probe is only valid once shared locks on the visited
   leaf pages are held.  Walk [lo, hi] into the engine's probe buffer
   (with its entries when [entries]), then lock the leaves.  Locks
   granted at once let no other transaction run, so the walk still
   stands; after a wait the tree may have changed, so walk again until
   every leaf is locked without waiting. *)
let rec lock_index_probe txn idx ~lo ~hi ~entries =
  let pr = txn.db.probe in
  pr.pr_npages <- 0;
  pr.pr_nentries <- 0;
  if entries then Btree.walk idx.tree ~lo ~hi ~page:pr.pr_on_page ~entry:pr.pr_on_entry
  else Btree.walk_pages idx.tree ~lo ~hi ~page:pr.pr_on_page;
  if lock_leaves txn idx pr.pr_pages (pr.pr_npages - 1) ~waited:false then
    lock_index_probe txn idx ~lo ~hi ~entries

(* Probe the primary-key index for gap protection, then walk the version
   chain.  Returns the visible version, recording SSI conflicts and
   acquiring SIREAD / 2PL locks along the way. *)
let fetch txn tbl key ~for_write =
  let db = txn.db in
  let rel = Heap.rel_name tbl.heap in
  if is_2pl txn then begin
    lock txn tbl.rel_lock (if for_write then Lockmgr.IX else Lockmgr.IS);
    lock_index_probe txn tbl.pk_index ~lo:key ~hi:key ~entries:false;
    lock txn (Lockmgr.Tuple (rel, key)) (if for_write then Lockmgr.X else Lockmgr.S);
    refresh_stmt_snapshot txn
  end
  else if is_tracked txn then ssi_lock_point_gaps txn tbl.pk_index key;
  let head = Heap.head tbl.heap key in
  match visible txn ~skipped:(skipped_by txn) head with
  | v when Heap.is_absent v ->
      note_absent txn head;
      None
  | v ->
      if note_read txn v then
        Predlock.lock_tuple db.predlocks ~owner:txn.txn_xid ~rel ~key
          ~page:(Heap.page_of_tid v.tid);
      Some v

(* ---- Reads ------------------------------------------------------------------------ *)

let read txn ~table ~key =
  start_op txn;
  fault_point txn.db ~op:"read";
  let tbl = table_of txn.db table in
  let found = fetch txn tbl key ~for_write:false in
  (match txn.db.recorder with
  | None -> ()
  | Some r ->
      record_read r txn
        (Recorded.Point
           {
             rel = table;
             key;
             version = Option.map (fun (v : Heap.tuple) -> v.xmin) found;
             horizon = txn.snapshot.Snapshot.horizon;
           }));
  let result = match found with None -> None | Some v -> Some (Array.copy v.row) in
  finish_op txn.db ~tuples:1 ~locks:(if is_tracked txn || is_2pl txn then 2 else 0) ~pages:2;
  result

let index_of db name =
  match Hashtbl.find db.idx_by_name name with
  | i -> i
  | exception Not_found -> fail (Undefined_object ("Engine: unknown index " ^ name))

(* The version of [pk] that index entry [ikey] of [idx] leads [txn] to,
   from the chain head [head]: [Heap.absent] when no version is visible,
   or when the visible one no longer carries [ikey] (the entries of old
   versions stay in the index). *)
let index_visible txn idx ~skipped ikey head =
  let v = visible txn ~skipped head in
  if Heap.is_absent v || Value.equal v.row.(idx.col) ikey then v else Heap.absent

(* Visit the entries [keys.(i..n-1)], [pks.(i..n-1)] of a 2PL scan,
   S-locking each row before its visibility check: the lock can wait, and
   the row must then be read as of the post-wait state.  Before a wait
   the entries still to visit are copied out of the engine's probe
   buffer.  Returns the rows examined and the visible rows, newest
   first. *)
let rec scan_2pl txn tbl idx ~skipped keys pks i n tuples rows =
  if i >= n then (tuples, rows)
  else
    let target = Lockmgr.Tuple (Heap.rel_name tbl.heap, pks.(i)) in
    if lock_now txn target Lockmgr.S then
      scan_2pl_row txn tbl idx ~skipped keys pks i n tuples rows
    else begin
      let keys = Array.sub keys i (n - i) and pks = Array.sub pks i (n - i) in
      lock txn target Lockmgr.S;
      scan_2pl_row txn tbl idx ~skipped keys pks 0 (n - i) tuples rows
    end

and scan_2pl_row txn tbl idx ~skipped keys pks i n tuples rows =
  refresh_stmt_snapshot txn;
  let head = Heap.head tbl.heap pks.(i) in
  if Heap.is_absent head then scan_2pl txn tbl idx ~skipped keys pks (i + 1) n tuples rows
  else
    let v = index_visible txn idx ~skipped keys.(i) head in
    scan_2pl txn tbl idx ~skipped keys pks (i + 1) n (tuples + 1)
      (if Heap.is_absent v then rows else Array.copy v.row :: rows)

(* Under 2PL every lock acquisition can suspend, so the scan walks the
   range into the probe buffer while it locks the leaves, and visits the
   entries that walk validated instead of walking the live tree; it
   collects its rows in a list of its own rather than the engine's shared
   scan buffer. *)
let index_scan_2pl txn tbl idx ~lo ~hi =
  let db = txn.db in
  lock txn tbl.rel_lock Lockmgr.IS;
  lock_index_probe txn idx ~lo ~hi ~entries:true;
  refresh_stmt_snapshot txn;
  let pr = db.probe in
  let npages = pr.pr_npages in
  let tuples, rows =
    scan_2pl txn tbl idx ~skipped:(skipped_by txn) pr.pr_keys pr.pr_pks 0 pr.pr_nentries 0 []
  in
  finish_op db ~tuples ~locks:(tuples + npages) ~pages:(npages + tuples);
  List.rev rows

(* The walk's callbacks.  [scan_page] counts a leaf and, in page mode,
   gap-locks it before its entries are visited; [scan_entry] gap-locks a
   next-key index's distinct keys, then visits the row; [scan_lock] takes
   one heap page's batch of tuple locks. *)
let scan_page s page =
  s.s_pages <- s.s_pages + 1;
  if s.s_gaps && not s.s_idx.next_key then
    Predlock.lock_index_page s.s_txn.db.predlocks ~owner:s.s_txn.txn_xid ~index:s.s_idx.idx_name
      ~page

let scan_entry s ikey pk =
  let txn = s.s_txn and idx = s.s_idx in
  (if s.s_gaps && idx.next_key then
     if not (s.s_locked_key && Value.equal s.s_last ikey) then begin
       s.s_locked_key <- true;
       s.s_last <- ikey;
       Predlock.lock_index_key txn.db.predlocks ~owner:txn.txn_xid ~index:idx.idx_name ~key:ikey
     end);
  let head = Heap.head s.s_tbl.heap pk in
  if not (Heap.is_absent head) then begin
    s.s_tuples <- s.s_tuples + 1;
    let v = index_visible txn idx ~skipped:s.skipped ikey head in
    if Heap.is_absent v then note_absent_entry txn idx ikey head
    else begin
      if note_read txn v then Scan_buffer.add_read s.buf ~key:pk ~page:(Heap.page_of_tid v.tid);
      Scan_buffer.add_row s.buf (Array.copy v.row)
    end
  end

let scan_lock s ~page keys ~pos ~len =
  let txn = s.s_txn in
  if is_tracked txn then
    Predlock.lock_tuples_slice txn.db.predlocks ~owner:txn.txn_xid ~rel:(Heap.rel_name s.s_tbl.heap)
      ~page keys ~pos ~len

(* The engine's scan state, set up for a scan of [idx] by [txn] with its
   counters at zero. *)
let start_scan txn tbl idx =
  let db = txn.db in
  let s =
    match db.scan with
    | Some s ->
        s.s_txn <- txn;
        s.s_tbl <- tbl;
        s.s_idx <- idx;
        s
    | None ->
        let rec s =
          {
            buf = Scan_buffer.create ();
            s_txn = txn;
            s_tbl = tbl;
            s_idx = idx;
            s_gaps = false;
            s_locked_key = false;
            s_last = Value.Null;
            s_tuples = 0;
            s_pages = 0;
            on_page = (fun page -> scan_page s page);
            on_entry = (fun ikey pk -> scan_entry s ikey pk);
            skipped = (fun w -> skipped_by s.s_txn w);
            lock = (fun ~page keys ~pos ~len -> scan_lock s ~page keys ~pos ~len);
          }
        in
        db.scan <- Some s;
        s
  in
  s.s_locked_key <- false;
  s.s_tuples <- 0;
  s.s_pages <- 0;
  s

(* At every other isolation level the scan walks the live tree without a
   suspension point, so it can use the engine's one [scan] state and its
   [Scan_buffer]: the tuples it read collect there and take their SIREAD
   locks a heap page at a time after the walk (one coverage check per page
   instead of one hash probe per tuple), and its rows collect there until
   the walk is over.  The walk takes the index's gap locks as it goes:
   page mode locks each leaf as the walk announces it, next-key mode each
   distinct key before its entry is visited and the gap above [hi] after
   the last.  No other transaction can run during the walk or before its
   reads are flushed, so conflict detection is the same as if every gap
   lock were taken first.  On the failure path the reads are flushed too,
   so a mid-scan serialization failure leaves the SIREAD locks of the rows
   read and the gap locks of the leaves reached; leaves the walk never
   reached are not gap-locked.  The buffer is emptied, and the counters
   read, before [finish_op], which can suspend. *)
let index_scan_mvcc txn tbl idx ~lo ~hi =
  let db = txn.db in
  let s = start_scan txn tbl idx in
  let tracked = is_tracked txn in
  s.s_gaps <- tracked && idx.pred_locks;
  if tracked && not idx.pred_locks then
    Predlock.lock_index_rel db.predlocks ~owner:txn.txn_xid ~index:idx.idx_name;
  (match Btree.walk idx.tree ~lo ~hi ~page:s.on_page ~entry:s.on_entry with
  | () -> ()
  | exception e ->
      Scan_buffer.drop_rows s.buf;
      Scan_buffer.flush_reads s.buf s.lock;
      raise e);
  if s.s_gaps && idx.next_key then ssi_lock_gap_above txn idx hi;
  let rows = Scan_buffer.take_rows s.buf in
  Scan_buffer.flush_reads s.buf s.lock;
  let tuples = s.s_tuples and npages = s.s_pages in
  finish_op db ~tuples ~locks:(if tracked then tuples + npages else 0) ~pages:(npages + tuples);
  rows

let index_scan txn ~table ~index ~lo ~hi =
  start_op txn;
  fault_point txn.db ~op:"index_scan";
  let db = txn.db in
  let tbl = table_of db table in
  let idx = index_of db index in
  if idx.table_name <> table then invalid_arg "Engine.index_scan: index is on another table";
  let rows =
    (* Only the 2PL scan takes heavyweight locks. *)
    if is_2pl txn then index_scan_2pl txn tbl idx ~lo ~hi
    else index_scan_mvcc txn tbl idx ~lo ~hi
  in
  (* The horizon after the scan: a 2PL scan re-takes its statement
     snapshot per tuple lock, and its last one saw every row it returned. *)
  (match db.recorder with
  | None -> ()
  | Some r ->
      record_read r txn
        (Recorded.Scan
           {
             rel = table;
             range = Some (index, lo, hi);
             horizon = txn.snapshot.Snapshot.horizon;
             own = own_rows txn table;
           }));
  rows

let seq_scan txn ~table ?(filter = fun _ -> true) () =
  start_op txn;
  fault_point txn.db ~op:"seq_scan";
  let db = txn.db in
  let tbl = table_of db table in
  let rel = Heap.rel_name tbl.heap in
  if is_2pl txn then begin
    lock txn tbl.rel_lock Lockmgr.S;
    refresh_stmt_snapshot txn
  end;
  if is_tracked txn then Predlock.lock_relation db.predlocks ~owner:txn.txn_xid ~rel;
  let tuples = ref 0 in
  let rows = ref [] in
  let skipped = skipped_by txn in
  Heap.iter_heads tbl.heap (fun head ->
      incr tuples;
      let v = visible txn ~skipped head in
      if Heap.is_absent v then note_absent txn head
      else begin
        (* The relation SIREAD lock above covers every row. *)
        ignore (note_read txn v);
        if filter v.row then rows := Array.copy v.row :: !rows
      end);
  (match db.recorder with
  | None -> ()
  | Some r ->
      record_read r txn
        (Recorded.Scan
           { rel; range = None; horizon = txn.snapshot.Snapshot.horizon; own = own_rows txn rel }));
  (* Read tracking is per tuple (visibility conflict-out checks), while
     the 2PL baseline locks the whole relation once. *)
  finish_op db ~tuples:!tuples
    ~locks:(if is_tracked txn then !tuples else if is_2pl txn then 1 else 0)
    ~pages:(Heap.npages tbl.heap);
  !rows

let row_count txn ~table = List.length (seq_scan txn ~table ())

(* ---- Writes ------------------------------------------------------------------------- *)

(* Add an index entry for a new tuple version, with the SSI conflict-in
   check against gap readers, and record undo if the entry is new. *)
let index_insert ?(new_row = false) txn idx ~ikey ~pk =
  let db = txn.db in
  let page, added = Btree.insert idx.tree ~key:ikey ~pk in
  (* An idempotent insert (the entry already existed, e.g. an update that
     left the indexed column unchanged) fills no gap: no phantom is
     possible and no conflict check or page lock is needed.  A [new_row]
     whose entry survives from a version another transaction deleted does
     fill one: a reader saw the key absent through that entry's gap.  For
     a real insert the undo entry must be recorded BEFORE the conflict
     check: the check may raise, and the rollback must remove the physical
     entry. *)
  if added then begin
    txn.undo <- U_index_entry (idx, ikey, pk) :: txn.undo;
    (* The new entry split the gap below its successor: the gap's locks
       must be inherited onto the new key first, or a later insert below
       [ikey] would consult only the new key and miss the original gap
       readers (the successor itself may be another transaction's
       uncommitted insert).  Unconditional — a lower-isolation inserter
       splits gaps guarded for serializable readers too. *)
    if idx.next_key then
      Predlock.on_index_key_insert db.predlocks ~index:idx.idx_name ~key:ikey
        ~succ:(Btree.next_key_after idx.tree ikey)
  end;
  (if added || new_row then
     match tracking txn with
     | Sx ((module C), c, node) ->
         C.conflict_in c node
           (if idx.next_key then
              Predlock.readers_for_index_insert_nextkey db.predlocks ~index:idx.idx_name
                ~key:ikey ~succ:(Btree.next_key_after idx.tree ikey)
            else Predlock.readers_for_index_insert db.predlocks ~index:idx.idx_name ~page)
     | Safe_sx | No_sx -> ());
  if added && is_2pl txn then
    lock txn (Lockmgr.Index_page (idx.idx_name, page)) Lockmgr.X

let all_indexes tbl = tbl.pk_index :: tbl.secondary
let index_keys tbl row = List.map (fun idx -> (idx.idx_name, row.(idx.col))) (all_indexes tbl)

(* Stored rows are never mutated.  A heap version's row array is shared
   with the transaction's redo op, the commit record handed to the log and
   the log hooks, and the replicas that apply it, so every way out
   copies instead: [read], the scans and [update]'s [f] get copies, and
   replay and recovery copy the logged row on insert.  [insert] copies the
   caller's row once, [update] stores the row [f] returned. *)
let insert txn ~table row =
  start_op txn;
  fault_point txn.db ~op:"insert";
  let db = txn.db in
  let tbl = table_of db table in
  let schema = Heap.schema tbl.heap in
  Schema.check_row schema row;
  let key = Schema.key_of_row schema row in
  ensure_writable txn;
  if is_2pl txn then begin
    lock txn tbl.rel_lock Lockmgr.IX;
    lock txn (Lockmgr.Tuple (table, key)) Lockmgr.X;
    refresh_stmt_snapshot txn
  end;
  (* Over a head another transaction deleted, the new row may find the
     index entries of the dead version: [new_row] still checks their
     gaps.  Over its own delete the transaction only replaces its own
     write, as an update does. *)
  let new_row =
    match live_head txn tbl key with
    | None -> false
    | Some v ->
        let deleted =
          v.xmax <> Heap.invalid_xid
          && (v.xmax = txn.txn_xid || Clog.is_committed db.clog v.xmax)
        in
        if not deleted then fail (Unique_violation { table; key = Value.to_string key });
        (* Re-inserting over a committed-dead head is a w:w dependency on
           the dead version's creator and deleter. *)
        (match tracking txn with
        | Sx ((module C), c, node) ->
            C.read_from c node ~creator:v.xmin;
            if v.xmax <> Heap.invalid_xid then C.read_from c node ~creator:v.xmax
        | Safe_sx | No_sx -> ());
        v.xmax <> txn.txn_xid
  in
  let old_page =
    match Heap.head tbl.heap key with
    | h when Heap.is_absent h -> -1
    | h -> Heap.page_of_tid h.Heap.tid
  in
  let row = Array.copy row in
  let tuple = Heap.insert_version tbl.heap ~key ~row ~xmin:txn.txn_xid in
  txn.undo <- U_new_version (tbl, key) :: txn.undo;
  (match tracking txn with
  | Sx ((module C), c, node) ->
      let page = Heap.page_of_tid tuple.tid in
      C.conflict_in c node (Predlock.readers_for_write db.predlocks ~rel:table ~key ~page);
      if old_page >= 0 && old_page <> page then
        C.conflict_in c node
          (Predlock.readers_for_write db.predlocks ~rel:table ~key ~page:old_page)
  | Safe_sx | No_sx -> ());
  List.iter
    (fun idx -> index_insert ~new_row txn idx ~ikey:row.(idx.col) ~pk:key)
    (all_indexes tbl);
  txn.wal <- Wal.Insert { table; key; row } :: txn.wal;
  finish_op db ~tuples:1
    ~locks:(if is_tracked txn || is_2pl txn then 2 + List.length tbl.secondary else 0)
    ~pages:(2 + List.length tbl.secondary)

(* Shared write-side logic of update and delete: locate the visible
   version and enforce first-updater-wins, waiting out in-progress writers
   of newer state.  Returns the version to supersede, or [None] when the
   row is absent. *)
let rec locate_version txn tbl key =
  match fetch txn tbl key ~for_write:true with
  | None -> None
  | Some v -> (
      (* Wait for in-progress creators/deleters of newer state. *)
      match live_head txn tbl key with
      | None -> None (* everything above was aborted and v was too *)
      | Some n when n != v -> newer_committed txn tbl key
      | Some _ when v.xmax = Heap.invalid_xid || v.xmax = txn.txn_xid -> Some v
      | Some _ -> (
          match Clog.status txn.db.clog v.xmax with
          | Clog.In_progress ->
              wait_for_xid txn v.xmax;
              refresh_stmt_snapshot txn;
              locate_version txn tbl key
          | Clog.Committed _ -> newer_committed txn tbl key
          | Clog.Aborted ->
              Heap.set_xmax v Heap.invalid_xid;
              Some v))

(* A version newer than the one [txn]'s snapshot sees was committed:
   first-updater-wins.  READ COMMITTED retries against a fresh snapshot;
   every other level fails. *)
and newer_committed txn tbl key =
  match txn.iso with
  | Read_committed ->
      refresh_stmt_snapshot txn;
      locate_version txn tbl key
  | Repeatable_read | Serializable | Serializable_2pl ->
      Obs.incr txn.db.metrics.m_write_conflicts;
      fail
        (Serialization_failure
           { xid = txn.txn_xid; reason = "could not serialize access due to concurrent update" })

(* [locate_version], then, once per write however many waits it took:
   the recorder notes the index keys of the version replaced, and the SSI
   conflict-in check runs against its readers. *)
let locate_for_write txn tbl key =
  let result = locate_version txn tbl key in
  (match (result, txn.db.recorder) with
  | Some v, Some r ->
      let p = pending_of r txn.txn_xid and rel = Heap.rel_name tbl.heap in
      if not (List.exists (fun (t, k, _) -> t = rel && Value.equal k key) p.p_old) then
        p.p_old <- (rel, key, index_keys tbl v.Heap.row) :: p.p_old
  | _, (Some _ | None) -> ());
  (match (result, tracking txn) with
  | Some v, Sx ((module C), c, node) ->
      let db = txn.db and rel = Heap.rel_name tbl.heap in
      C.conflict_in c node
        (Predlock.readers_for_write db.predlocks ~rel ~key ~page:(Heap.page_of_tid v.Heap.tid));
      (* The transaction's own write lock now protects the tuple, so its
         SIREAD lock can go — except inside a subtransaction, whose
         rollback to a savepoint would release the write lock (§7.3). *)
      if txn.subdepth = 0 then Predlock.unlock_tuple db.predlocks ~owner:txn.txn_xid ~rel ~key
  | _, (Sx _ | Safe_sx | No_sx) -> ());
  result

let update txn ~table ~key ~f =
  start_op txn;
  fault_point txn.db ~op:"update";
  ensure_writable txn;
  let db = txn.db in
  let tbl = table_of db table in
  match locate_for_write txn tbl key with
  | None ->
      finish_op db ~tuples:1 ~locks:1 ~pages:2;
      false
  | Some v ->
      let schema = Heap.schema tbl.heap in
      let row' = f (Array.copy v.row) in
      Schema.check_row schema row';
      if not (Value.equal (Schema.key_of_row schema row') key) then
        fail (Invalid_request "Engine.update: primary key must not change");
      Heap.set_xmax v txn.txn_xid;
      txn.undo <- U_set_xmax v :: txn.undo;
      let tuple = Heap.insert_version tbl.heap ~key ~row:row' ~xmin:txn.txn_xid in
      txn.undo <- U_new_version (tbl, key) :: txn.undo;
      List.iter (fun idx -> index_insert txn idx ~ikey:row'.(idx.col) ~pk:key) (all_indexes tbl);
      ignore tuple;
      txn.wal <- Wal.Update { table; key; row = row' } :: txn.wal;
      finish_op db ~tuples:2
        ~locks:(if is_tracked txn || is_2pl txn then 3 + List.length tbl.secondary else 0)
        ~pages:(2 + List.length tbl.secondary);
      true

let delete txn ~table ~key =
  start_op txn;
  fault_point txn.db ~op:"delete";
  ensure_writable txn;
  let db = txn.db in
  let tbl = table_of db table in
  match locate_for_write txn tbl key with
  | None ->
      finish_op db ~tuples:1 ~locks:1 ~pages:2;
      false
  | Some v ->
      Heap.set_xmax v txn.txn_xid;
      txn.undo <- U_set_xmax v :: txn.undo;
      txn.wal <- Wal.Delete { table; key } :: txn.wal;
      finish_op db ~tuples:1
        ~locks:(if is_tracked txn || is_2pl txn then 2 else 0)
        ~pages:1;
      true

(* ---- Per-operation latency ------------------------------------------------------------- *)

(* Every data operation is a child span of the transaction's span, so
   lock waits and I/O stalls show up as gaps inside the right interval,
   and its [engine.latency.<op>] observation is that span's duration —
   including lock waits, cost charges and I/O stalls, and also on the
   failure path (a faulted or conflicted operation still occupied the
   session).  Spelled out per operation: a wrapper taking the operation
   as a closure would allocate that closure on every call. *)
let op_start txn name = Obs.Span.child txn.db.obs txn.span_ctx name
let op_done txn sp h = Obs.Span.finish_observe txn.db.obs sp h

let op_failed txn sp h e =
  Obs.Span.add sp "error" (Obs.B true);
  op_done txn sp h;
  raise e

let read txn ~table ~key =
  let sp = op_start txn "op.read" and h = txn.db.metrics.h_read in
  match read txn ~table ~key with r -> op_done txn sp h; r | exception e -> op_failed txn sp h e

let index_scan txn ~table ~index ~lo ~hi =
  let sp = op_start txn "op.index_scan" and h = txn.db.metrics.h_index_scan in
  match index_scan txn ~table ~index ~lo ~hi with
  | r -> op_done txn sp h; r
  | exception e -> op_failed txn sp h e

let seq_scan txn ~table ?filter () =
  let sp = op_start txn "op.seq_scan" and h = txn.db.metrics.h_seq_scan in
  match seq_scan txn ~table ?filter () with
  | r -> op_done txn sp h; r
  | exception e -> op_failed txn sp h e

let insert txn ~table row =
  let sp = op_start txn "op.insert" and h = txn.db.metrics.h_insert in
  match insert txn ~table row with r -> op_done txn sp h; r | exception e -> op_failed txn sp h e

let update txn ~table ~key ~f =
  let sp = op_start txn "op.update" and h = txn.db.metrics.h_update in
  match update txn ~table ~key ~f with r -> op_done txn sp h; r | exception e -> op_failed txn sp h e

let delete txn ~table ~key =
  let sp = op_start txn "op.delete" and h = txn.db.metrics.h_delete in
  match delete txn ~table ~key with r -> op_done txn sp h; r | exception e -> op_failed txn sp h e

(* ---- Commit / abort -------------------------------------------------------------------- *)

(* Shared by the commit and [retry_with], which mark the same attempt
   span: the second mark is then a no-op ({!Obs.Span.add}). *)
let committed_attr = Obs.S "committed"

let finish_txn txn =
  txn.finished <- true;
  txn.prepared_gid <- None;
  Hashtbl.remove txn.db.active txn.txn_xid;
  Obs.set_gauge txn.db.metrics.g_active (float_of_int (Hashtbl.length txn.db.active));
  Lockmgr.release_all txn.db.locks ~owner:txn.txn_xid;
  (* Drop the xid->span rendezvous (only if it is still ours: engines
     sharing a registry can reuse xids) and close an engine-opened span. *)
  (match Obs.owner_span txn.db.obs txn.txn_xid with
  | Some s when s == txn.span -> Obs.clear_owner_span txn.db.obs txn.txn_xid
  | _ -> ());
  if txn.span_owned then Obs.Span.finish txn.db.obs txn.span;
  Waitq.wake_all txn.commit_wq

let serializable_rw_active db =
  Hashtbl.fold
    (fun _ t acc -> acc || (t.iso = Serializable && (not t.ro) && not t.finished))
    db.active false

let prepared_image_of db txn gid =
  {
    Wal.p_xid = txn.txn_xid;
    p_gid = gid;
    p_snap_cseq = txn.snapshot.Snapshot.horizon;
    p_ops = List.rev txn.wal;
    (* The SIREAD locks straight from the predicate-lock table — what
       PostgreSQL persists in the 2PC state file (§5.7). *)
    p_sireads = Predlock.held_by db.predlocks txn.txn_xid;
  }

let abort txn =
  if not txn.finished then begin
    let db = txn.db in
    discard txn;
    (match txn.sxact with
    | Sx ((module C), c, node) -> C.aborted c node
    | Safe_sx -> end_safe txn
    | No_sx -> ());
    (match txn.prepared_gid with
    | Some gid -> Hashtbl.remove db.prepared_by_gid gid
    | None -> ());
    Obs.Span.add txn.span "outcome" (Obs.S "aborted");
    finish_txn txn;
    Obs.incr db.metrics.m_aborts;
    Obs.trace db.obs "txn.abort" ~fields:[ ("xid", Obs.I txn.txn_xid) ]
  end

(* Hand the commit at [cseq] to the durable log and the log hooks, then
   hold the acknowledgment until it is durable and replicated.  Called with
   no suspension point since [Clog.commit], so the log's append order IS
   cseq order — the foundation of the recovery prefix invariant.  Every
   commit is logged, including read-only/empty ones: replicas and recovery
   both rely on a dense cseq sequence. *)
let publish_commit db txn cseq ~cspan ~gid =
  let device = db.wal_device and hooks = db.on_log in
  let safe =
    match (device, hooks) with
    | None, [] -> false
    | Some _, _ | None, _ :: _ -> not (serializable_rw_active db)
  in
  (* The log encodes the ops from the transaction's newest-first list as
     they are; only the hooks' record needs them in execution order. *)
  let lsn =
    match device with
    | None -> 0
    | Some w -> Wal.append_commit w ~xid:txn.txn_xid ~cseq ~gid ~rev_ops:txn.wal ~safe
  in
  (match hooks with
  | [] -> ()
  | hooks ->
      let r =
        Wal.Commit
          { c_xid = txn.txn_xid; c_cseq = cseq; c_gid = gid; c_ops = List.rev txn.wal; c_safe = safe }
      in
      let ctx = Some (Obs.Span.ctx cspan) in
      List.iter (fun hook -> hook r ctx) hooks);
  charge_io db db.cfg.costs.io_commit;
  (* Group commit: the record is staged; the acknowledgment waits for the
     flush that makes it durable. *)
  (match device with Some w -> Wal.wait_durable w db.sched lsn | None -> ());
  (* Quorum-synchronous replication: the commit is locally durable and
     visible; the acknowledgment to the client may still be held until
     enough replicas confirm (or the hold deadline passes). *)
  match (db.commit_wait, hooks) with Some wait, _ :: _ -> wait cseq | _ -> ()

(* Hand the recorder the committed transaction: its reads as issued, and
   one write per row it left changed, from its redo ops (which a rollback
   to a savepoint has already trimmed). *)
let record_commit r db txn ~cseq ~gid =
  let p = Hashtbl.find_opt r.pending txn.txn_xid in
  Hashtbl.remove r.pending txn.txn_xid;
  let olds = match p with Some p -> p.p_old | None -> [] in
  let write acc op =
    let table, key, row =
      match op with
      | Wal.Insert { table; key; row } | Wal.Update { table; key; row } -> (table, key, Some row)
      | Wal.Delete { table; key } -> (table, key, None)
    in
    let same (t, k) = t = table && Value.equal k key in
    let old_keys =
      match List.find_opt (fun (t, k, _) -> same (t, k)) olds with
      | Some (_, _, keys) -> keys
      | None -> []
    in
    let new_keys = match row with Some row -> index_keys (table_of db table) row | None -> [] in
    { Recorded.rel = table; key; old_keys; new_keys }
    :: List.filter (fun (w : Recorded.write) -> not (same (w.rel, w.key))) acc
  in
  r.emit
    {
      Recorded.xid = txn.txn_xid;
      gid = (match (gid, p) with Some _, _ -> gid | None, Some p -> p.p_tag | None, None -> None);
      cseq;
      reads = (match p with Some p -> List.rev p.p_reads | None -> []);
      writes = List.rev (List.fold_left write [] (List.rev txn.wal));
    }

(* Everything from the commit point on, shared by COMMIT and COMMIT
   PREPARED.  The [txn.commit] event names the [gid] only for 2PC. *)
let commit_point db txn ~cspan ~gid =
  let cseq = Clog.commit db.clog txn.txn_xid in
  (match db.recorder with Some r -> record_commit r db txn ~cseq ~gid | None -> ());
  (match txn.sxact with
  | Sx ((module C), c, node) -> C.committed c node ~commit_cseq:cseq
  | Safe_sx -> end_safe txn
  | No_sx -> ());
  Obs.Span.add txn.span "outcome" committed_attr;
  finish_txn txn;
  Obs.incr db.metrics.m_commits;
  let fields = [ ("xid", Obs.I txn.txn_xid); ("cseq", Obs.I cseq) ] in
  Obs.trace db.obs "txn.commit"
    ~fields:(match gid with None -> fields | Some g -> fields @ [ ("gid", Obs.S g) ]);
  publish_commit db txn cseq ~cspan ~gid;
  Obs.Span.add cspan "cseq" (Obs.I cseq);
  Obs.Span.finish db.obs cspan

let commit txn =
  let db = txn.db in
  (* Misuse raises before the commit span opens, which would otherwise
     never be finished. *)
  ensure_usable txn;
  (* The commit span covers precommit through quorum wait; its context is
     stamped into the WAL record so replica apply spans parent to it. *)
  let cspan =
    Obs.Span.start db.obs ~ctx:txn.span_ctx "txn.commit" ~attrs:[ ("xid", Obs.I txn.txn_xid) ]
  in
  (* A transaction doomed by another's conflict resolution fails here — and
     must be rolled back before the failure is surfaced, or its write locks
     would be orphaned. *)
  (try
     ensure_running txn;
     fault_point db ~op:"commit";
     (* The commit gate runs before the commit point: a fenced (deposed)
        primary refuses new commits here, so clients see a retryable
        failure rather than a write the cluster will never accept. *)
     (match db.commit_gate with Some gate -> gate () | None -> ());
     match txn.sxact with Sx ((module C), c, node) -> C.precommit c node | Safe_sx | No_sx -> ()
   with Error _ as e ->
     Obs.Span.add cspan "error" (Obs.B true);
     Obs.Span.finish db.obs cspan;
     abort txn;
     raise e);
  commit_point db txn ~cspan ~gid:None

(* A {!begin_snapshot} read ends without a cseq: its entry carries its
   horizon. *)
let end_snapshot txn =
  ensure_running txn;
  (match txn.db.recorder with
  | Some r -> record_commit r txn.db txn ~cseq:(snapshot_cseq txn) ~gid:None
  | None -> ());
  finish_txn txn

(* Commit latency includes the pre-commit SSI check, the commit-record
   I/O charge, and any WAL-hook work. *)
let commit txn =
  let db = txn.db in
  let t0 = db.sched.now () in
  match if txn.txn_xid < 0 then end_snapshot txn else commit txn with
  | () -> Obs.observe db.metrics.h_commit (db.sched.now () -. t0)
  | exception e ->
      Obs.observe db.metrics.h_commit (db.sched.now () -. t0);
      raise e

(* ---- Two-phase commit (§7.1) -------------------------------------------------------------- *)

let prepare txn ~gid =
  let db = txn.db in
  (try
     ensure_running txn;
     if Hashtbl.mem db.prepared_by_gid gid then
       fail (Duplicate_object ("Engine.prepare: duplicate gid " ^ gid));
     fault_point db ~op:"prepare";
     match txn.sxact with Sx ((module C), c, node) -> C.prepare c node | Safe_sx | No_sx -> ()
   with Error _ as e ->
     abort txn;
     raise e);
  txn.prepared_gid <- Some gid;
  Hashtbl.add db.prepared_by_gid gid txn;
  (* The 2PC state record — redo ops, snapshot and SIREAD locks — must be
     durable before PREPARE is acknowledged to the coordinator (§5.7). *)
  if db.wal_device <> None then log db (Wal.Prepare (prepared_image_of db txn gid)) ~sync:`Wait

let prepared_txn db gid =
  match Hashtbl.find_opt db.prepared_by_gid gid with
  | Some txn -> txn
  | None -> fail (Undefined_object ("Engine: no prepared transaction " ^ gid))

let commit_prepared db ~gid =
  let txn = prepared_txn db gid in
  Hashtbl.remove db.prepared_by_gid gid;
  let cspan =
    Obs.Span.start db.obs ~ctx:txn.span_ctx "txn.commit"
      ~attrs:[ ("xid", Obs.I txn.txn_xid); ("gid", Obs.S gid) ]
  in
  commit_point db txn ~cspan ~gid:(Some gid)

let rollback_prepared db ~gid =
  let txn = prepared_txn db gid in
  txn.prepared_gid <- None;
  Hashtbl.remove db.prepared_by_gid gid;
  let xid = txn.txn_xid in
  abort txn;
  (* Make the abort decision durable so recovery does not resurrect the
     prepared transaction. *)
  log db (Wal.Abort { a_xid = xid; a_gid = gid }) ~sync:`Wait

(* Sorted by gid for the same reason as [table_names]: recovery output and
   coordinator recovery scans iterate this list and must not depend on
   hash-table order. *)
let prepared_gids db =
  List.sort compare (Hashtbl.fold (fun gid _ acc -> gid :: acc) db.prepared_by_gid [])

(* Distributed 2PC: some of the prepared transaction's rw edges live on
   other shards' certifiers.  Closing the local window with the §7.1
   conservative flags makes every transaction that forms a new edge with
   it during the coordinator's decision window give way. *)
let mark_prepared_conservative db ~gid =
  let txn = prepared_txn db gid in
  match txn.sxact with
  | Sx ((module C), c, node) -> C.mark_conservative c node
  | Safe_sx | No_sx -> ()

let conflicts txn =
  match tracking txn with
  | Sx ((module C), _, node) -> C.conflicts node
  | Safe_sx | No_sx -> Certifier.no_conflicts

let simulate_connection_loss db =
  (* In-flight (non-prepared) transactions vanish: their effects are rolled
     back and they are marked aborted.  Prepared transactions survive with
     conservative SSI conflict flags.  This models a backend crash without
     losing the in-memory server state — cold-start recovery from the
     durable log is {!recover}. *)
  let in_flight =
    Hashtbl.fold
      (fun _ txn acc -> if txn.prepared_gid = None then txn :: acc else acc)
      db.active []
  in
  List.iter
    (fun txn ->
      discard txn;
      txn.crashed <- true;
      Obs.Span.add txn.span "outcome" (Obs.S "crashed");
      finish_txn txn)
    in_flight;
  let (Certifier.Cert ((module C), c)) = db.cert in
  C.recover c;
  (* Recovery dropped every safe-at-BEGIN horizon; a prepared survivor
     must not release its own again. *)
  Hashtbl.iter (fun _ txn -> if txn.sxact == Safe_sx then txn.sxact <- No_sx) db.active;
  Obs.incr ~by:(List.length in_flight) db.metrics.m_aborts;
  Obs.trace db.obs "crash" ~fields:[ ("in_flight", Obs.I (List.length in_flight)) ]

(* ---- Durability: epochs, checkpoints, cold-start recovery ------------------------- *)

let note_epoch db epoch = log db (Wal.Epoch epoch) ~sync:`Flush

(* An atomic, consistent checkpoint: the image is captured with no
   suspension point, so its position in the log corresponds exactly to its
   cseq horizon — every commit record after it has a higher cseq, and
   replay needs only the records after it.  The image holds each table's
   rows visible at the horizon plus the prepared-transaction state. *)
let image db ~prepared =
  let horizon = Clog.next_cseq db.clog in
  let snap = { Snapshot.owner = 0; horizon } in
  (* Both folds below run over hash tables; sort the images (tables by
     name, prepared transactions by gid) so the checkpoint bytes are a
     deterministic function of the database state. *)
  let tables =
    Hashtbl.fold
      (fun name tbl acc ->
        let schema = Heap.schema tbl.heap in
        let cols = Array.to_list (Schema.columns schema) in
        let key = (Schema.columns schema).(Schema.key_index schema) in
        let ki = Schema.key_index schema in
        let rows =
          Heap.fold_heads tbl.heap ~init:[] ~f:(fun acc head ->
              let v = Visibility.find_visible db.clog snap ~skipped:ignore head in
              if Heap.is_absent v then acc else Array.copy v.Heap.row :: acc)
          |> List.sort (fun a b -> compare a.(ki) b.(ki))
        in
        let indexes =
          List.rev_map
            (fun i ->
              {
                Wal.i_name = i.idx_name;
                i_column = (Schema.columns schema).(i.col);
                i_pred_locks = i.pred_locks;
                i_next_key = i.next_key;
              })
            tbl.secondary
        in
        {
          Wal.s_def = { Wal.d_name = name; d_cols = cols; d_key = key };
          s_indexes = indexes;
          s_rows = rows;
        }
        :: acc)
      db.tables []
    |> List.sort (fun a b -> compare a.Wal.s_def.Wal.d_name b.Wal.s_def.Wal.d_name)
  in
  let prepared =
    if not prepared then []
    else
      Hashtbl.fold (fun gid txn acc -> prepared_image_of db txn gid :: acc) db.prepared_by_gid []
      |> List.sort (fun a b -> compare a.Wal.p_gid b.Wal.p_gid)
  in
  Wal.Checkpoint { k_cseq = horizon - 1; k_tables = tables; k_prepared = prepared }

let checkpoint db =
  match db.wal_device with
  | None -> ()
  | Some _ ->
      log db (image db ~prepared:true) ~sync:`Flush;
      charge_io db db.cfg.costs.io_commit

(* A prepared transaction reaches a standby as its COMMIT PREPARED record,
   which carries every op: the base backup leaves it out. *)
let backup db = image db ~prepared:false

(* ---- Cold-start recovery (redo replay) -------------------------------------------- *)

type recovery_report = {
  rr_records : int;
  rr_truncated : int;
  rr_prepared : int;
  rr_checkpoint_cseq : int option;
  rr_last_cseq : int;
  rr_epoch : int;
}

(* Redo one logged operation.  [track] (used when reinstating prepared
   transactions) accumulates undo entries newest-first so a later ROLLBACK
   PREPARED can still revert the redone writes. *)
let replay_op db ~xid ~track op =
  let push e = match track with Some r -> r := e :: !r | None -> () in
  let supersede tbl key =
    let h = Heap.head tbl.heap key in
    if (not (Heap.is_absent h)) && h.Heap.xmax = Heap.invalid_xid then begin
      Heap.set_xmax h xid;
      push (U_set_xmax h)
    end
  in
  let apply_write tbl key row =
    supersede tbl key;
    ignore (Heap.insert_version tbl.heap ~key ~row:(Array.copy row) ~xmin:xid);
    push (U_new_version (tbl, key));
    List.iter
      (fun idx ->
        let _, added = Btree.insert idx.tree ~key:row.(idx.col) ~pk:key in
        if added then begin
          push (U_index_entry (idx, row.(idx.col), key));
          (* Replay order can interleave with reinstated prepared
             transactions' SIREAD locks: keep gap coverage intact here
             exactly as on the live insert path. *)
          if idx.next_key then
            Predlock.on_index_key_insert db.predlocks
              ~index:idx.idx_name ~key:row.(idx.col)
              ~succ:(Btree.next_key_after idx.tree row.(idx.col))
        end)
      (all_indexes tbl)
  in
  match op with
  | Wal.Insert { table; key; row } | Wal.Update { table; key; row } ->
      apply_write (table_of db table) key row
  | Wal.Delete { table; key } -> supersede (table_of db table) key

(* DDL replay is idempotent: a definition already present (e.g. from the
   checkpoint image) is skipped. *)
let replay_table_def db (d : Wal.table_def) =
  if not (Hashtbl.mem db.tables d.Wal.d_name) then
    create_table db ~name:d.Wal.d_name ~cols:d.Wal.d_cols ~key:d.Wal.d_key

let replay_index_def db ~table (i : Wal.index_def) =
  if not (Hashtbl.mem db.idx_by_name i.Wal.i_name) then
    create_index db ~table ~name:i.Wal.i_name ~column:i.Wal.i_column
      ~predicate_locks:i.Wal.i_pred_locks ~next_key_gaps:i.Wal.i_next_key ()

(* Reinstate a prepared transaction from its durable 2PC image (§5.7,
   §7.1): redo its writes under its original xid, re-register it with the
   SSI manager, reinstall its persisted SIREAD locks, and mark it with the
   conservative both-ways conflict flags. *)
let reinstate_prepared db (img : Wal.prepared_image) =
  let xid = img.Wal.p_xid in
  Clog.install db.clog xid Clog.In_progress;
  let undo = ref [] in
  List.iter (replay_op db ~xid ~track:(Some undo)) img.Wal.p_ops;
  let (Certifier.Cert (((module C) as m), c)) = db.cert in
  let node = C.register c ~xid ~snap_cseq:img.Wal.p_snap_cseq ~read_only:false ~deferrable:false in
  let locks = db.predlocks in
  List.iter
    (fun (target : Predlock.target) ->
      match target with
      | Predlock.Relation rel -> Predlock.lock_relation locks ~owner:xid ~rel
      | Predlock.Page (rel, page) -> Predlock.lock_page locks ~owner:xid ~rel ~page
      | Predlock.Tuple (rel, key) ->
          (* Physical locations were rebuilt: recompute the page from the
             recovered heap (tuple locks are promoted per-page, so the page
             must match what writers will probe). *)
          let page =
            match Hashtbl.find_opt db.tables rel with
            | Some tbl -> (
                match Heap.head tbl.heap key with
                | h when Heap.is_absent h -> 0
                | h -> Heap.page_of_tid h.Heap.tid)
            | None -> 0
          in
          Predlock.lock_tuple locks ~owner:xid ~rel ~key ~page
      | Predlock.Index_page (index, page) ->
          Predlock.lock_index_page locks ~owner:xid ~index ~page
      | Predlock.Index_key (index, key) -> Predlock.lock_index_key locks ~owner:xid ~index ~key
      | Predlock.Index_inf index -> Predlock.lock_index_inf locks ~owner:xid ~index
      | Predlock.Index_rel index -> Predlock.lock_index_rel locks ~owner:xid ~index)
    img.Wal.p_sireads;
  C.restore_prepared c node;
  let snapshot = { Snapshot.owner = xid; horizon = img.Wal.p_snap_cseq } in
  let txn =
    make_txn db ~iso:Serializable ~ro:false ~xid ~snapshot ~sxact:(Sx (m, c, node)) ~span:None
  in
  txn.prepared_gid <- Some img.Wal.p_gid;
  txn.undo <- !undo;
  txn.wal <- List.rev img.Wal.p_ops;
  Hashtbl.add db.prepared_by_gid img.Wal.p_gid txn

(* Install a checkpoint image: every row becomes a single base version
   created by a synthetic transaction committed at the checkpoint horizon,
   so later snapshots see exactly the checkpointed state. *)
let install_checkpoint db ~base_xid ~k_cseq ~k_tables ~k_prepared =
  Clog.install db.clog base_xid (Clog.Committed k_cseq);
  List.iter
    (fun (img : Wal.table_image) ->
      replay_table_def db img.Wal.s_def;
      List.iter (replay_index_def db ~table:img.Wal.s_def.Wal.d_name) img.Wal.s_indexes;
      let tbl = table_of db img.Wal.s_def.Wal.d_name in
      let schema = Heap.schema tbl.heap in
      List.iter
        (fun row ->
          let key = Schema.key_of_row schema row in
          ignore (Heap.insert_version tbl.heap ~key ~row:(Array.copy row) ~xmin:base_xid);
          List.iter
            (fun idx -> ignore (Btree.insert idx.tree ~key:row.(idx.col) ~pk:key))
            (all_indexes tbl))
        img.Wal.s_rows)
    k_tables;
  List.iter (reinstate_prepared db) k_prepared

(* Redo one log record: recovery's replay step, and how a standby applies
   its primary's stream.  [base_xid] creates a checkpoint image's rows.
   Plain commits keep their undo entries until a safe-point commit
   arrives, so {!rollback_unsafe} can take back the tail past it. *)
let redo db ~base_xid = function
  | Wal.Schema d -> replay_table_def db d
  | Wal.Index { table; def } -> replay_index_def db ~table def
  | Wal.Drop_index name -> if Hashtbl.mem db.idx_by_name name then drop_index db ~name
  | Wal.Prepare img -> reinstate_prepared db img
  | Wal.Abort { a_gid; a_xid = _ } -> (
      (* ROLLBACK PREPARED reached the log: the reinstated transaction
         is rolled back again. *)
      match Hashtbl.find_opt db.prepared_by_gid a_gid with
      | Some txn ->
          txn.prepared_gid <- None;
          Hashtbl.remove db.prepared_by_gid a_gid;
          abort txn
      | None -> ())
  | Wal.Commit { c_xid; c_cseq; c_gid = Some gid; _ } when Hashtbl.mem db.prepared_by_gid gid ->
      (* COMMIT PREPARED: the writes were already redone when the
         Prepare record was reinstated; committing is a status flip. *)
      let txn = Hashtbl.find db.prepared_by_gid gid in
      txn.prepared_gid <- None;
      Hashtbl.remove db.prepared_by_gid gid;
      Clog.install db.clog c_xid (Clog.Committed c_cseq);
      (match txn.sxact with
      | Sx ((module C), c, node) -> C.committed c node ~commit_cseq:c_cseq
      | Safe_sx | No_sx -> ());
      finish_txn txn
  | Wal.Commit { c_xid; c_cseq; c_ops; c_safe; _ } ->
      let undo = ref [] in
      List.iter (replay_op db ~xid:c_xid ~track:(Some undo)) c_ops;
      Clog.install db.clog c_xid (Clog.Committed c_cseq);
      db.unsafe_tail <- (if c_safe then [] else (c_xid, !undo) :: db.unsafe_tail)
  | Wal.Checkpoint { k_cseq; k_tables; k_prepared } ->
      install_checkpoint db ~base_xid ~k_cseq ~k_tables ~k_prepared
  | Wal.Epoch _ -> ()

let rollback_unsafe db =
  let tail = db.unsafe_tail in
  db.unsafe_tail <- [];
  List.iter
    (fun (xid, undo) ->
      List.iter (apply_undo_entry db) undo;
      Clog.install db.clog xid Clog.Aborted)
    tail;
  List.length tail

let max_xid_of_record = function
  | Wal.Commit { c_xid; _ } -> c_xid
  | Wal.Prepare p -> p.Wal.p_xid
  | Wal.Abort { a_xid; _ } -> a_xid
  | Wal.Checkpoint { k_prepared; _ } ->
      List.fold_left (fun acc (p : Wal.prepared_image) -> max acc p.Wal.p_xid) 0 k_prepared
  | Wal.Schema _ | Wal.Index _ | Wal.Drop_index _ | Wal.Epoch _ -> 0

let recover ?scheduler ?config ?obs w =
  let db = create ?scheduler ?config ?obs () in
  let c_replayed = Obs.counter db.obs "recovery.records_replayed" in
  let c_truncated = Obs.counter db.obs "recovery.tail_truncated" in
  let c_prepared = Obs.counter db.obs "recovery.prepared_restored" in
  let span = Obs.Span.start db.obs "recovery.replay" in
  (* Truncation rule: everything after the first torn / CRC-failing /
     undecodable frame is discarded, then physically dropped so new appends
     follow the valid prefix. *)
  let records, truncated = Wal.read_all w in
  ignore (Wal.truncate_damaged_tail w);
  (* The latest checkpoint wins: everything before it is summarized in its
     image, so replay starts just after it. *)
  let ck_index = ref (-1) in
  List.iteri (fun i r -> match r with Wal.Checkpoint _ -> ck_index := i | _ -> ()) records;
  (* Checkpoint base rows need a synthetic creator that can never collide
     with a replayed — or future — transaction id. *)
  let base_xid = 1 + List.fold_left (fun acc r -> max acc (max_xid_of_record r)) 0 records in
  let epoch =
    List.fold_left (fun acc r -> match r with Wal.Epoch e -> max acc e | _ -> acc) 0 records
  in
  let ck_cseq = ref None in
  let replayed = ref 0 in
  List.iteri
    (fun i r ->
      if i >= !ck_index then begin
        (match r with Wal.Checkpoint { k_cseq; _ } -> ck_cseq := Some k_cseq | _ -> incr replayed);
        redo db ~base_xid r
      end)
    records;
  db.unsafe_tail <- [];
  Wal.reopen w;
  attach_wal db w;
  let n_prepared = Hashtbl.length db.prepared_by_gid in
  Obs.incr ~by:!replayed c_replayed;
  Obs.incr ~by:truncated c_truncated;
  Obs.incr ~by:n_prepared c_prepared;
  Obs.Span.add span "records" (Obs.I !replayed);
  Obs.Span.add span "truncated" (Obs.I truncated);
  Obs.Span.add span "prepared" (Obs.I n_prepared);
  Obs.Span.finish db.obs span;
  Obs.trace db.obs "recovery"
    ~fields:
      [ ("records", Obs.I !replayed); ("truncated", Obs.I truncated); ("prepared", Obs.I n_prepared) ];
  let report =
    {
      rr_records = !replayed;
      rr_truncated = truncated;
      rr_prepared = n_prepared;
      rr_checkpoint_cseq = !ck_cseq;
      rr_last_cseq = Clog.next_cseq db.clog - 1;
      rr_epoch = epoch;
    }
  in
  (db, report)

(* ---- Helpers -------------------------------------------------------------------------------- *)

let with_txn ?isolation ?read_only ?deferrable ?span db f =
  let txn = begin_txn ?isolation ?read_only ?deferrable ?span db in
  match f txn with
  | result ->
      (* [f] may return without touching the engine again after a crash
         rolled this transaction back (e.g. it was suspended on a charge
         when the crash hit); that must not look like a successful commit. *)
      if txn.crashed then
        fail (Transient_fault { op = "commit"; reason = "connection lost: server crashed" });
      if not txn.finished then commit txn;
      result
  | exception e ->
      abort txn;
      raise e

type retry_policy = {
  max_attempts : int;
  backoff_base : float;
  backoff_multiplier : float;
  backoff_max : float;
  jitter : float;
  deadline : float option;
  retry_if : error -> bool;
}

let default_retry_policy =
  {
    max_attempts = 100;
    backoff_base = 0.;
    backoff_multiplier = 2.;
    backoff_max = 0.1;
    jitter = 0.5;
    deadline = None;
    retry_if = (fun _ -> true);
  }

(* Exponential backoff for the (n+1)-th attempt after [n] failures, with
   seeded jitter spreading retries in [b*(1-jitter), b]. *)
let backoff_after policy rng n =
  if policy.backoff_base <= 0. then 0.
  else begin
    let b =
      Float.min policy.backoff_max
        (policy.backoff_base *. (policy.backoff_multiplier ** float_of_int (n - 1)))
    in
    match rng with
    | Some rng when policy.jitter > 0. -> b *. (1. -. policy.jitter +. Rng.float rng policy.jitter)
    | Some _ | None -> b
  end

let close_attempt db asp outcome =
  match asp with
  | Some s ->
      Obs.Span.add s "outcome" outcome;
      Obs.Span.finish db.obs s
  | None -> ()

let first_attempt = [ ("attempt", Obs.I 1) ]

(* [started], the first attempt's time, is read only under a deadline. *)
let rec attempt ?isolation ?read_only ?deferrable ~policy ~rng ~span ~started db f n =
  (* With a client root span, each attempt is its own child span: a retry
     storm shows up as a fan of failed attempt spans under one root. *)
  let asp =
    match span with
    | Some parent ->
        let attrs = if n = 1 then first_attempt else [ ("attempt", Obs.I n) ] in
        Some (Obs.Span.start db.obs ~parent "txn.attempt" ~attrs)
    | None -> None
  in
  match with_txn ?isolation ?read_only ?deferrable ?span:asp db f with
  | result ->
      close_attempt db asp committed_attr;
      result
  | exception (Error err as e) when retryable err && policy.retry_if err ->
      (match err with
      | Serialization_failure { xid; reason } ->
          close_attempt db asp (Obs.S "serialization_failure");
          Obs.incr db.metrics.m_serialization_failures;
          Obs.trace db.obs "txn.serialization_failure"
            ~fields:[ ("xid", Obs.I xid); ("reason", Obs.S reason) ]
      | _ -> close_attempt db asp (Obs.S "fault"));
      let out_of_time =
        match policy.deadline with Some d -> db.sched.now () -. started >= d | None -> false
      in
      if n >= policy.max_attempts || out_of_time then begin
        Obs.incr db.metrics.m_giveups;
        Obs.trace db.obs "txn.giveup" ~fields:[ ("attempts", Obs.I n) ];
        raise e
      end
      else begin
        Obs.incr db.metrics.m_retries;
        let b = backoff_after policy rng n in
        if b > 0. then db.sched.charge b;
        attempt ?isolation ?read_only ?deferrable ~policy ~rng ~span ~started db f (n + 1)
      end
  | exception e ->
      close_attempt db asp (Obs.S "error");
      raise e

let retry_with ?isolation ?read_only ?deferrable ?(policy = default_retry_policy) ?rng ?span db
    f =
  let started = match policy.deadline with Some _ -> db.sched.now () | None -> 0. in
  attempt ?isolation ?read_only ?deferrable ~policy ~rng ~span ~started db f 1

let retry ?isolation ?read_only ?deferrable ?max_attempts db f =
  let policy =
    match max_attempts with
    | None -> default_retry_policy
    | Some m -> { default_retry_policy with max_attempts = m }
  in
  retry_with ?isolation ?read_only ?deferrable ~policy db f

(* ---- Maintenance ------------------------------------------------------------------------------ *)

let vacuum db =
  let horizon =
    Hashtbl.fold
      (fun _ txn acc -> min acc txn.snapshot.Snapshot.horizon)
      db.active (Clog.next_cseq db.clog)
  in
  Hashtbl.iter
    (fun _ tbl ->
      Heap.prune tbl.heap ~live:(fun (v : Heap.tuple) ->
          match Clog.status db.clog v.xmin with
          | Clog.Aborted -> false
          | Clog.In_progress | Clog.Committed _ -> (
              v.xmax = Heap.invalid_xid
              ||
              match Clog.status db.clog v.xmax with
              | Clog.Committed c -> c >= horizon
              | Clog.In_progress -> true
              | Clog.Aborted -> true)))
    db.tables

(* Last, so that no code above sees these names shadow [error]'s cases. *)
exception Serialization_failure = Error
exception Transient_fault = Error
