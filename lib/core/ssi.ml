open Ssi_storage
open Ssi_util
module Mvcc = Ssi_mvcc.Mvcc
module Obs = Ssi_obs.Obs
open Certifier_intf

let invalid_cseq = Mvcc.invalid_cseq

(* Conflict edges and read-only watch pairs are intrusive doubly-linked
   records (PostgreSQL's RWConflictData on SHM queues, §5): one record per
   rw-antidependency, threaded through both endpoints, so insertion and
   unlink are O(1) from either side — commit, abort, cleanup and
   summarization never sweep a [List.filter] over a node's edges.  New
   records are pushed at the head of each list, so iteration order is
   newest-first, exactly the order of the former [node list]
   representation: victim selection and seed replay are unchanged. *)
type node = {
  xid : Heap.xid;
  snap_cseq : cseq;
  declared_read_only : bool;
  deferrable : bool;
  mutable status : status;
  mutable doomed : bool;
  mutable wrote : bool;
  mutable commit_cseq : cseq;
  mutable in_first : edge option;  (** readers r with r --rw--> me *)
  mutable in_count : int;
  mutable out_first : edge option;  (** writers w with me --rw--> w *)
  mutable out_count : int;
  mutable cached_earliest_out : cseq;
      (** min commit cseq over my committed out-conflict targets, retained
          even after those targets are cleaned up (§6.1) *)
  mutable summarized_in_max : cseq;
      (** max commit cseq over summarized committed readers with an edge
          into me; 0 when none (§6.2) *)
  mutable conservative_in : bool;  (** after crash recovery of 2PC (§7.1) *)
  mutable conservative_out : bool;
  (* Read-only safety (§4.2): *)
  mutable watching_first : watch option;
      (** rw transactions active at my snapshot (me read-only) *)
  mutable watching_count : int;
  mutable unsafe : bool;
  mutable safe : bool;
  mutable safety_known : bool;
  mutable watchers_first : watch option;
      (** read-only transactions watching me (me read-write) *)
  (* Intrusive active-list links (Active and Prepared transactions). *)
  mutable act_prev : node option;
  mutable act_next : node option;
  mutable in_active : bool;
  safety_wq : Waitq.t;
}

and edge = {
  e_reader : node;
  e_writer : node;
  mutable out_prev : edge option;  (** links in [e_reader]'s out-list *)
  mutable out_next : edge option;
  mutable in_prev : edge option;  (** links in [e_writer]'s in-list *)
  mutable in_next : edge option;
  mutable e_dead : bool;
}

and watch = {
  w_ro : node;
  w_rw : node;
  mutable wo_prev : watch option;  (** links in [w_ro]'s watching list *)
  mutable wo_next : watch option;
  mutable wi_prev : watch option;  (** links in [w_rw]'s watchers list *)
  mutable wi_next : watch option;
  mutable w_dead : bool;
}

(* ---- Edge-list primitives ------------------------------------------------- *)

let add_edge ~reader ~writer =
  let e =
    {
      e_reader = reader;
      e_writer = writer;
      out_prev = None;
      out_next = reader.out_first;
      in_prev = None;
      in_next = writer.in_first;
      e_dead = false;
    }
  in
  (match reader.out_first with Some o -> o.out_prev <- Some e | None -> ());
  reader.out_first <- Some e;
  reader.out_count <- reader.out_count + 1;
  (match writer.in_first with Some i -> i.in_prev <- Some e | None -> ());
  writer.in_first <- Some e;
  writer.in_count <- writer.in_count + 1

let unlink_edge e =
  if not e.e_dead then begin
    e.e_dead <- true;
    (match e.out_prev with
    | Some p -> p.out_next <- e.out_next
    | None -> e.e_reader.out_first <- e.out_next);
    (match e.out_next with Some n -> n.out_prev <- e.out_prev | None -> ());
    e.e_reader.out_count <- e.e_reader.out_count - 1;
    (match e.in_prev with
    | Some p -> p.in_next <- e.in_next
    | None -> e.e_writer.in_first <- e.in_next);
    (match e.in_next with Some n -> n.in_prev <- e.in_prev | None -> ());
    e.e_writer.in_count <- e.e_writer.in_count - 1
  end

(* Iteration captures the successor before visiting, so the visitor may
   unlink the current record (but not an arbitrary later one). *)
let rec iter_links next f = function
  | None -> ()
  | Some x ->
      let n = next x in
      f x;
      iter_links next f n

let iter_out n f = iter_links (fun e -> e.out_next) f n.out_first
let iter_in n f = iter_links (fun e -> e.in_next) f n.in_first

let exists_in n p =
  let rec go = function None -> false | Some e -> p e.e_reader || go e.in_next in
  go n.in_first

let find_in_opt n p =
  let rec go = function
    | None -> None
    | Some e -> if p e.e_reader then Some e.e_reader else go e.in_next
  in
  go n.in_first

(* Newest-first list of in-edge readers (matches the old [in_conflicts]
   ordering).  Only materialized on cold paths (prepared-pivot resolution,
   introspection). *)
let in_readers n =
  let acc = ref [] in
  iter_in n (fun e -> acc := e.e_reader :: !acc);
  List.rev !acc

let out_writers n =
  let acc = ref [] in
  iter_out n (fun e -> acc := e.e_writer :: !acc);
  List.rev !acc

(* Membership probe for [flag_conflict]: walk whichever endpoint list is
   shorter (PostgreSQL's RWConflictExists does the same). *)
let edge_exists ~reader ~writer =
  if reader.out_count <= writer.in_count then begin
    let rec go = function
      | None -> false
      | Some e -> e.e_writer == writer || go e.out_next
    in
    go reader.out_first
  end
  else begin
    let rec go = function
      | None -> false
      | Some e -> e.e_reader == reader || go e.in_next
    in
    go writer.in_first
  end

(* ---- Watch-list primitives (read-only safety, §4.2) ----------------------- *)

let add_watch ~ro ~rw =
  let w =
    {
      w_ro = ro;
      w_rw = rw;
      wo_prev = None;
      wo_next = ro.watching_first;
      wi_prev = None;
      wi_next = rw.watchers_first;
      w_dead = false;
    }
  in
  (match ro.watching_first with Some o -> o.wo_prev <- Some w | None -> ());
  ro.watching_first <- Some w;
  ro.watching_count <- ro.watching_count + 1;
  (match rw.watchers_first with Some i -> i.wi_prev <- Some w | None -> ());
  rw.watchers_first <- Some w

let unlink_watch w =
  if not w.w_dead then begin
    w.w_dead <- true;
    (match w.wo_prev with
    | Some p -> p.wo_next <- w.wo_next
    | None -> w.w_ro.watching_first <- w.wo_next);
    (match w.wo_next with Some n -> n.wo_prev <- w.wo_prev | None -> ());
    w.w_ro.watching_count <- w.w_ro.watching_count - 1;
    (match w.wi_prev with
    | Some p -> p.wi_next <- w.wi_next
    | None -> w.w_rw.watchers_first <- w.wi_next);
    (match w.wi_next with Some n -> n.wi_prev <- w.wi_prev | None -> ())
  end

let iter_watchers n f = iter_links (fun w -> w.wi_next) f n.watchers_first
let iter_watching n f = iter_links (fun w -> w.wo_next) f n.watching_first

type t = {
  locks : Predlock.t;
  config : config;
  by_xid : (Heap.xid, node) Hashtbl.t;
  mutable active_first : node option;  (** Active and Prepared, newest first *)
  mutable active_n : int;
  ret : (t, node) Retention.t;
      (** retained committed nodes, and the [oldserxid] entries of
          summarized ones: commit cseq plus the earliest commit cseq among
          their out-conflict targets ([invalid_cseq] when none).  This
          stands in for PostgreSQL's disk-backed oldserxid SLRU. *)
  by_cseq : (cseq, Heap.xid) Hashtbl.t;
      (** commit cseq -> xid for every identity the manager still knows:
          retained committed nodes and summarized (oldserxid) entries —
          the index behind {!resolve_xid_by_cseq} *)
  mutable safe_horizons : int array;
      (** the first [safe_n] hold the snapshots, rising, of the live
          transactions safe at BEGIN, which have no node *)
  mutable safe_n : int;
  obs : Obs.t;
  conflicts : Obs.counter;
  safe_snapshots : Obs.counter;
  victims : Victims.t;
}

let supports_deferrable = true
let locks t = t.locks
let obs t = t.obs

(* ---- Active list ----------------------------------------------------------- *)

let active_push t n =
  n.act_next <- t.active_first;
  (match t.active_first with Some h -> h.act_prev <- Some n | None -> ());
  t.active_first <- Some n;
  n.in_active <- true;
  t.active_n <- t.active_n + 1

let active_remove t n =
  if n.in_active then begin
    n.in_active <- false;
    (match n.act_prev with
    | Some p -> p.act_next <- n.act_next
    | None -> t.active_first <- n.act_next);
    (match n.act_next with Some s -> s.act_prev <- n.act_prev | None -> ());
    n.act_prev <- None;
    n.act_next <- None;
    t.active_n <- t.active_n - 1
  end

let iter_active t f =
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.act_next in
        f n;
        go next
  in
  go t.active_first

(* Whether a node on the active list did not declare READ ONLY: a
   read-only snapshot taken now would have to watch it (§4.2). *)
let rec rw_active = function
  | None -> false
  | Some n -> (not n.declared_read_only) || rw_active n.act_next

(* The active list's least snapshot, from [acc] down. *)
let rec min_snap acc = function
  | None -> acc
  | Some n -> min_snap (if n.snap_cseq < acc then n.snap_cseq else acc) n.act_next

(* A transaction safe at BEGIN has no node, yet its snapshot holds back
   cleanup as a node's would.  Snapshots rise, so each new one goes last. *)
let hold_horizon t c =
  if t.safe_n = Array.length t.safe_horizons then
    t.safe_horizons <- Array.append t.safe_horizons t.safe_horizons;
  t.safe_horizons.(t.safe_n) <- c;
  t.safe_n <- t.safe_n + 1

let release_horizon t c =
  let a = t.safe_horizons and i = ref (t.safe_n - 1) in
  while a.(!i) <> c do
    decr i
  done;
  Array.blit a (!i + 1) a !i (t.safe_n - !i - 1);
  t.safe_n <- t.safe_n - 1

let min_active_snap t =
  min_snap (if t.safe_n > 0 then t.safe_horizons.(0) else invalid_cseq) t.active_first

let max_committed_sxacts t = Retention.max_committed t.ret
let set_max_committed_sxacts t n = Retention.set_max_committed t.ret n

let xid_of n = n.xid
let is_doomed n = n.doomed
let is_safe n = n.safe
let safety_determined n = n.safety_known
let is_unsafe n = n.unsafe
let safety_waitq n = n.safety_wq
let active_count t = t.active_n
let committed_retained t = Retention.retained t.ret
let oldserxid_size t = Retention.oldserxid_size t.ret

let fail t node reason = Victims.fail t.victims ~xid:node.xid reason

let check_doomed node =
  if node.doomed then
    serialization_failure ~xid:node.xid "transaction doomed by a concurrent conflict"

(* "Read-only" in the theorems' sense: declared as such, or known to have
   committed without writing (§4.1). *)
let ro_in_theory n = n.declared_read_only || (n.status = Committed && not n.wrote)

let is_committed n = n.status = Committed
let commit_cseq_or_inf n = if n.status = Committed then n.commit_cseq else invalid_cseq

let effective_earliest_out n = if n.conservative_out then 0 else n.cached_earliest_out

(* ---- Structure records for the abort explainer --------------------------- *)

(* A commit cseq's transaction id, when the manager still knows it: a
   retained committed node or a summarized (oldserxid) entry; [-1]
   otherwise.  Commit cseqs are unique, and [by_cseq] holds exactly those
   identities: a node gets its entry when it joins [committed], keeps it
   through summarization, and the entry leaves only together with the node
   or its oldserxid entry (cleanup, purge, recovery). *)
let resolve_xid_by_cseq t c =
  if c <= 0 || c = invalid_cseq then -1
  else Option.value ~default:(-1) (Hashtbl.find_opt t.by_cseq c)

(* Every doom/fail decision leaves one [ssi.dangerous] event carrying the
   whole structure T1 --rw--> T2 --rw--> T3 (xids and commit cseqs, [-1]
   when unknown/uncommitted), which rule fired, and the chosen victim —
   the raw material [pg_ssi explain] reconstructs structures from.
   Attached to the victim's span when one is registered. *)
let record_dangerous t ~victim ~reason ~rule ~t1:(t1_xid, t1_cseq, t1_ro)
    ~t2:(t2_xid, t2_cseq) ~t3:(t3_xid, t3_cseq) =
  Obs.trace t.obs ?span:(Obs.owner_span t.obs victim) "ssi.dangerous"
    ~fields:
      [
        ("victim", Obs.I victim);
        ("reason", Obs.S reason);
        ("rule", Obs.S rule);
        ("t1", Obs.I t1_xid);
        ("t1_cseq", Obs.I t1_cseq);
        ("t1_ro", Obs.B t1_ro);
        ("t2", Obs.I t2_xid);
        ("t2_cseq", Obs.I t2_cseq);
        ("t3", Obs.I t3_xid);
        ("t3_cseq", Obs.I t3_cseq);
      ]

let node_cseq_or_neg n = if n.status = Committed then n.commit_cseq else -1
let t1_fields n = (n.xid, node_cseq_or_neg n, ro_in_theory n)

(* Which refinement made the structure dangerous: the Theorem 3 read-only
   snapshot-ordering rule (§4.1) when T1 is read-only under the
   optimization, the §3.3.1 commit-ordering rule when commit order is
   known, and plain "pivot" for the conservative paths that have lost the
   ordering information. *)
let rule_for t t1 =
  if t.config.read_only_opt && ro_in_theory t1 then "read-only snapshot ordering"
  else "commit-ordering"

(* ---- Dangerous-structure test ------------------------------------------ *)

(* T1 in a structure T1 --rw--> T2 --rw--> T3, where T3 is known only by its
   commit cseq (via the pivot's earliest committed out-conflict, which is
   exact for existence because all the conditions are monotone in T3's
   cseq). *)
type t1_view = T1_node of node | T1_committed_at of cseq

(* The structure is dangerous when T3 committed first (commit-ordering
   optimization, §3.3.1 — uncommitted transactions compare as +inf) and,
   when T1 is read-only, T3 additionally committed before T1's snapshot
   (Theorem 3, §4.1).  T1 and T3 may be the same transaction (a length-2
   cycle, Figure 3a); commit sequence numbers are unique, so equality on
   the T1 side means exactly that case and must count as "T3 first". *)
let dangerous t ~t1 ~t2 ~t3_cseq =
  let c1, ro1, snap1 =
    match t1 with
    | T1_node n -> (commit_cseq_or_inf n, ro_in_theory n, n.snap_cseq)
    | T1_committed_at c -> (c, false, 0)
  in
  let c2 = commit_cseq_or_inf t2 in
  t3_cseq <= c1 && t3_cseq < c2
  && ((not (t.config.read_only_opt && ro1)) || t3_cseq < snap1)

(* ---- Victim selection (§5.4, §7.1) -------------------------------------- *)

let doom ?(reason = "doomed by first committer") t victim =
  if not victim.doomed then begin
    victim.doomed <- true;
    Victims.doomed t.victims ~xid:victim.xid reason
  end

let abortable n = (n.status = Active) && not n.doomed

(* Resolve a dangerous structure: prefer the pivot T2, then T1; never a
   committed or prepared transaction.  If the victim is the acting
   transaction, raise; otherwise doom it and let the actor proceed.
   [t1v]/[t3] are the explainer's views of the endpoints ((xid, cseq[,
   ro]), [-1] for unknown); the structure record is emitted against
   whichever victim is chosen, before the doom/fail event. *)
let victimize t ~actor ~t1 ~t2 ~t1v ~t3 ~rule ~reason =
  let record victim =
    record_dangerous t ~victim ~reason ~rule ~t1:t1v ~t2:(t2.xid, node_cseq_or_neg t2) ~t3
  in
  if abortable t2 && t2.status <> Prepared then
    if t2 == actor then begin
      record actor.xid;
      fail t actor reason
    end
    else begin
      record t2.xid;
      doom ~reason t t2
    end
  else
    match t1 with
    | Some u when abortable u && u.status <> Prepared ->
        if u == actor then begin
          record actor.xid;
          fail t actor reason
        end
        else begin
          record u.xid;
          doom ~reason t u
        end
    | Some _ | None ->
        (* No abortable T1/T2 (e.g. prepared pivot, committed reader): the
           actor must give way (§7.1: safe retry can be lost here). *)
        record actor.xid;
        fail t actor reason

(* ---- Pivot checks -------------------------------------------------------- *)

(* After T2 gained a new in-edge from [r], test whether T2 is now a pivot of
   a dangerous structure r --rw--> t2 --rw--> T3 for some committed T3. *)
let check_pivot_in t ~actor ~r ~t2 =
  let eo = effective_earliest_out t2 in
  if eo <> invalid_cseq && dangerous t ~t1:(T1_node r) ~t2 ~t3_cseq:eo then
    victimize t ~actor ~t1:(Some r) ~t2 ~t1v:(t1_fields r)
      ~t3:(resolve_xid_by_cseq t eo, (if eo = 0 then -1 else eo))
      ~rule:(if eo = 0 then "pivot" else rule_for t r)
      ~reason:"pivot gained rw-antidependency in"

(* After [r] gained a new out-edge to a transaction committed at [t3_cseq],
   test whether r is now a pivot t1 --rw--> r --rw--> T3. *)
let check_pivot_out t ~actor ~r ~t3_cseq =
  if t3_cseq <> invalid_cseq then begin
    (* [t3_cseq = 0] is the conservative sentinel of a recovered prepared
       transaction's unknown out-conflicts: no ordering rule applies. *)
    let t3 = (resolve_xid_by_cseq t t3_cseq, (if t3_cseq = 0 then -1 else t3_cseq)) in
    let ordered_rule t1 = if t3_cseq = 0 then "pivot" else rule_for t t1 in
    if r.summarized_in_max > 0
       && dangerous t ~t1:(T1_committed_at r.summarized_in_max) ~t2:r ~t3_cseq
    then
      victimize t ~actor ~t1:None ~t2:r
        ~t1v:(resolve_xid_by_cseq t r.summarized_in_max, r.summarized_in_max, false)
        ~t3
        ~rule:(if t3_cseq = 0 then "pivot" else "commit-ordering")
        ~reason:"pivot with summarized reader";
    if r.conservative_in && dangerous t ~t1:(T1_committed_at (invalid_cseq - 1)) ~t2:r ~t3_cseq
    then
      victimize t ~actor ~t1:None ~t2:r ~t1v:(-1, -1, false) ~t3 ~rule:"pivot"
        ~reason:"pivot with recovered prepared reader";
    iter_in r (fun e ->
        let t1 = e.e_reader in
        if (not t1.doomed) && t1.status <> Aborted
           && dangerous t ~t1:(T1_node t1) ~t2:r ~t3_cseq
        then
          victimize t ~actor ~t1:(Some t1) ~t2:r ~t1v:(t1_fields t1) ~t3
            ~rule:(ordered_rule t1) ~reason:"pivot gained rw-antidependency out")
  end

(* A prepared T3 (§7.1) has passed its commit-time check and can no
   longer abort, and nothing checks again when it commits, so a structure
   completed while T3 is prepared must be resolved now, as if T3 had just
   committed (PostgreSQL's OnConflict_CheckForSerializationFailure does
   the same).  T3 then commits before every T1 and T2 still uncommitted,
   and after a read-only T1's snapshot (Theorem 3). *)
let follows_prepared n = n.status <> Committed && n.status <> Aborted && not n.doomed
let t1_follows_prepared t n = follows_prepared n && not (t.config.read_only_opt && ro_in_theory n)

let find_out_opt n p =
  let rec go = function
    | None -> None
    | Some e -> if p e.e_writer then Some e.e_writer else go e.out_next
  in
  go n.out_first

let check_prepared_t3 t ~actor ~reader ~writer =
  let prepared n = n.status = Prepared in
  (* writer as pivot: reader --rw--> writer --rw--> prepared T3. *)
  (if t1_follows_prepared t reader && follows_prepared writer then
     match find_out_opt writer prepared with
     | Some t3 ->
         victimize t ~actor ~t1:(Some reader) ~t2:writer ~t1v:(t1_fields reader)
           ~t3:(t3.xid, -1) ~rule:(rule_for t reader)
           ~reason:"pivot gained rw-antidependency in"
     | None -> ());
  (* reader as pivot: T1 --rw--> reader --rw--> prepared writer. *)
  if prepared writer && follows_prepared reader then
    if reader.conservative_in then
      victimize t ~actor ~t1:None ~t2:reader ~t1v:(-1, -1, false) ~t3:(writer.xid, -1)
        ~rule:"pivot" ~reason:"pivot with recovered prepared reader"
    else
      match find_in_opt reader (t1_follows_prepared t) with
      | Some t1 ->
          victimize t ~actor ~t1:(Some t1) ~t2:reader ~t1v:(t1_fields t1)
            ~t3:(writer.xid, -1) ~rule:(rule_for t t1)
            ~reason:"pivot gained rw-antidependency out"
      | None -> ()

(* ---- Conflict recording -------------------------------------------------- *)

let note_out_target_committed r c =
  if c < r.cached_earliest_out then r.cached_earliest_out <- c

(* Record reader --rw--> writer between two known nodes and run the
   detection-time dangerous-structure checks. *)
let flag_conflict t ~actor ~reader ~writer =
  if
    reader != writer
    && (not reader.doomed) && (not writer.doomed)
    && reader.status <> Aborted && writer.status <> Aborted
    && not (edge_exists ~reader ~writer)
  then begin
    add_edge ~reader ~writer;
    Obs.incr t.conflicts;
    (* The conflict-edge event names both pivot candidates: either endpoint
       of a new rw-antidependency may turn out to be the T2 of a dangerous
       structure. *)
    Obs.trace t.obs ?span:(Obs.owner_span t.obs actor.xid) "ssi.rw_edge"
      ~fields:
        [
          ("reader", Obs.I reader.xid);
          ("writer", Obs.I writer.xid);
          ("reader_cseq", Obs.I (node_cseq_or_neg reader));
          ("writer_cseq", Obs.I (node_cseq_or_neg writer));
        ];
    if is_committed writer then note_out_target_committed reader writer.commit_cseq;
    (* writer as pivot: reader --rw--> writer --rw--> T3. *)
    check_pivot_in t ~actor ~r:reader ~t2:writer;
    (* reader as pivot: T1 --rw--> reader --rw--> writer (writer = T3). *)
    if is_committed writer then
      check_pivot_out t ~actor ~r:reader ~t3_cseq:writer.commit_cseq;
    check_prepared_t3 t ~actor ~reader ~writer
  end

let note_write node =
  node.wrote <- true

(* ---- Read-only safety (§4.2) --------------------------------------------- *)

let drop_tracking t r =
  (* A safe transaction can never be part of a dangerous structure: drop
     its SIREAD locks and its conflict edges. *)
  Predlock.release_owner t.locks r.xid;
  iter_out r unlink_edge

let count_safe t xid =
  Obs.incr t.safe_snapshots;
  Obs.trace t.obs "ssi.safe_snapshot" ~fields:[ ("xid", Obs.I xid) ]

let finalize_safety t r =
  if not r.safety_known then begin
    r.safety_known <- true;
    if not r.unsafe then begin
      r.safe <- true;
      count_safe t r.xid;
      drop_tracking t r
    end;
    Waitq.wake_all r.safety_wq
  end

(* The watch [wt] between read-only [r] and a potential writer [w] resolved
   (w committed or aborted). *)
let ro_watch_resolved t wt ~committed =
  let r = wt.w_ro and w = wt.w_rw in
  unlink_watch wt;
  if r.safety_known then ()
  else begin
    if committed && w.wrote && effective_earliest_out w < r.snap_cseq then begin
      (* w committed with a rw-antidependency out to a transaction that
         committed before r's snapshot: the snapshot is unsafe. *)
      r.unsafe <- true;
      (* Deferrable transactions retry immediately; plain read-only
         transactions simply keep full SSI tracking. *)
      if r.deferrable then begin
        iter_watching r unlink_watch;
        finalize_safety t r
      end
    end;
    if r.watching_count = 0 then finalize_safety t r
  end

(* ---- Registration -------------------------------------------------------- *)

let register t ~xid ~snap_cseq ~read_only ~deferrable =
  let node =
    {
      xid;
      snap_cseq;
      declared_read_only = read_only;
      deferrable;
      status = Active;
      doomed = false;
      wrote = false;
      commit_cseq = invalid_cseq;
      in_first = None;
      in_count = 0;
      out_first = None;
      out_count = 0;
      cached_earliest_out = invalid_cseq;
      summarized_in_max = 0;
      conservative_in = false;
      conservative_out = false;
      watching_first = None;
      watching_count = 0;
      unsafe = false;
      safe = false;
      safety_known = false;
      watchers_first = None;
      act_prev = None;
      act_next = None;
      in_active = false;
      safety_wq = Waitq.create ();
    }
  in
  Hashtbl.replace t.by_xid xid node;
  if read_only && t.config.read_only_opt then begin
    iter_active t (fun n ->
        if (not n.declared_read_only) && (n.status = Active || n.status = Prepared) then
          add_watch ~ro:node ~rw:n);
    if node.watching_count = 0 then finalize_safety t node
  end;
  active_push t node;
  node

(* ---- Evidence -------------------------------------------------------------- *)

let conflict_out t node ~writer =
  if writer <> node.xid then
    match Hashtbl.find_opt t.by_xid writer with
    | Some w -> flag_conflict t ~actor:node ~reader:node ~writer:w
    | None -> (
        match Retention.find_old t.ret writer with
        | None -> () (* writer was not serializable *)
        | Some { Retention.old_commit; old_out = old_earliest_out } ->
            Obs.incr t.conflicts;
            Obs.trace t.obs ?span:(Obs.owner_span t.obs node.xid) "ssi.rw_edge"
              ~fields:
                [
                  ("reader", Obs.I node.xid);
                  ("writer", Obs.I writer);
                  ("reader_cseq", Obs.I (node_cseq_or_neg node));
                  ("writer_cseq", Obs.I old_commit);
                  ("summarized", Obs.B true);
                ];
            note_out_target_committed node old_commit;
            (* Summarized writer as pivot: node --rw--> W --rw--> T3 with
               T3 at W's recorded earliest out-conflict (§6.2). *)
            if old_earliest_out <> invalid_cseq then begin
              let w_committed_first =
                old_earliest_out < old_commit
                && ((not (t.config.read_only_opt && ro_in_theory node))
                   || old_earliest_out < node.snap_cseq)
              in
              if w_committed_first then begin
                record_dangerous t ~victim:node.xid
                  ~reason:"conflict out to summarized pivot"
                  ~rule:(rule_for t node)
                  ~t1:(t1_fields node) ~t2:(writer, old_commit)
                  ~t3:(resolve_xid_by_cseq t old_earliest_out, old_earliest_out);
                fail t node "conflict out to summarized pivot"
              end
            end;
            (* node as pivot with T3 = summarized writer. *)
            check_pivot_out t ~actor:node ~r:node ~t3_cseq:old_commit)

(* SSI needs no w:r / w:w evidence: every cycle under snapshot isolation
   contains two consecutive rw-antidependencies (Fekete et al.), and
   SIREAD locks plus MVCC visibility find all of those. *)
let read_from _t _node ~creator:_ = ()

(* The write side (§5.3): [readers] hold SIREAD locks on what [node] is
   writing, so each concurrent one gains an edge reader --rw--> node. *)
let conflict_in t node readers =
  note_write node;
  let { Predlock.xids; old_committed } = readers in
  List.iter
    (fun rxid ->
      if rxid <> node.xid then
        match Hashtbl.find_opt t.by_xid rxid with
        | None -> () (* lock of a cleaned-up owner: stale, ignore *)
        | Some r ->
            (* Only concurrent readers matter: a reader that committed
               before the writer's snapshot precedes it outright. *)
            if not (is_committed r && r.commit_cseq < node.snap_cseq) then
              flag_conflict t ~actor:node ~reader:r ~writer:node)
    xids;
  match old_committed with
  | Some c when c >= node.snap_cseq ->
      Obs.incr t.conflicts;
      Obs.trace t.obs ?span:(Obs.owner_span t.obs node.xid) "ssi.rw_edge"
        ~fields:
          [
            ("reader", Obs.I (resolve_xid_by_cseq t c));
            ("writer", Obs.I node.xid);
            ("reader_cseq", Obs.I c);
            ("writer_cseq", Obs.I (node_cseq_or_neg node));
            ("summarized", Obs.B true);
          ];
      if c > node.summarized_in_max then node.summarized_in_max <- c;
      (* Summarized committed reader --rw--> node --rw--> T3? *)
      let eo = effective_earliest_out node in
      if eo <> invalid_cseq && dangerous t ~t1:(T1_committed_at c) ~t2:node ~t3_cseq:eo
      then
        victimize t ~actor:node ~t1:None ~t2:node
          ~t1v:(resolve_xid_by_cseq t c, c, false)
          ~t3:(resolve_xid_by_cseq t eo, (if eo = 0 then -1 else eo))
          ~rule:(if eo = 0 then "pivot" else "commit-ordering")
          ~reason:"pivot with summarized reader"
  | Some _ | None -> ()

(* ---- Cleanup and summarization (§6) ---------------------------------------- *)

let unlink_node n =
  iter_out n unlink_edge;
  iter_in n unlink_edge

let release_retained t c =
  Predlock.release_owner t.locks c.xid;
  iter_in c unlink_edge;
  t

(* Read-only-only optimization (§6.1): when every active transaction is
   read-only, or none is active, committed transactions' SIREAD locks and
   in-conflict lists can go — no future write can create a conflict with
   them. *)
let release_if_read_only_only t =
  if not (rw_active t.active_first) then ignore (Retention.fold t.ret release_retained t)

let retention_hooks =
  {
    Retention.xid = (fun c -> c.xid);
    commit_cseq = (fun c -> c.commit_cseq);
    lock_stamp = (fun _ c -> c.commit_cseq);
    out_stamp = effective_earliest_out;
    drained =
      (fun t c ->
        unlink_node c;
        Hashtbl.remove t.by_xid c.xid;
        Hashtbl.remove t.by_cseq c.commit_cseq);
    (* The [by_cseq] identity survives the move into oldserxid unchanged.
       Writers that summarized committed readers had read from keep a
       conservative record of the conflict (§6.2, first case). *)
    summarized =
      (fun t c ->
        iter_out c (fun e ->
            let w = e.e_writer in
            if c.commit_cseq > w.summarized_in_max then w.summarized_in_max <- c.commit_cseq);
        unlink_node c;
        Hashtbl.remove t.by_xid c.xid);
    purged = (fun t c -> Hashtbl.remove t.by_cseq c);
    before_summarize = release_if_read_only_only;
  }

let create ?(config = default_config) ?(obs = Obs.create ()) _clog =
  let locks = Predlock.create ~config:config.predlock ~obs () in
  {
    locks;
    config;
    by_xid = Hashtbl.create 64;
    active_first = None;
    active_n = 0;
    ret =
      Retention.create ~obs ~prefix:"ssi" ~locks
        ~max_committed:config.max_committed_sxacts retention_hooks;
    by_cseq = Hashtbl.create 64;
    safe_horizons = Array.make 16 0;
    safe_n = 0;
    obs;
    conflicts = Obs.counter obs "ssi.conflicts";
    safe_snapshots = Obs.counter obs "ssi.safe_snapshots";
    victims = Victims.create obs "ssi";
  }

(* Aggressive cleanup (§6.1): a committed transaction's state is dead once
   no active transaction is concurrent with it. *)
let cleanup t =
  let horizon = min_active_snap t in
  Retention.cleanup t.ret t ~nodes:horizon ~locks:horizon

(* Safe at BEGIN exactly when {!register} would finalize safety at once:
   counted the same, but with no node, only a held horizon. *)
let begin_safe t ~xid ~snap_cseq =
  let safe = t.config.read_only_opt && not (rw_active t.active_first) in
  if safe then (count_safe t xid; hold_horizon t snap_cseq);
  safe

let end_safe t ~snap_cseq =
  release_horizon t snap_cseq;
  cleanup t

(* ---- Commit / abort --------------------------------------------------------- *)

(* The §5.4 commit-time check, with the transaction as each of the three
   roles it could play. *)
let precommit t node =
  check_doomed node;
  (* As pivot T2 committing while T3 already committed first. *)
  check_pivot_out t ~actor:node ~r:node ~t3_cseq:(effective_earliest_out node);
  (* As T3, the first committer of a dangerous structure: doom the pivot. *)
  iter_in node (fun e ->
      let t2 = e.e_reader in
      match t2.status with
      | Committed | Aborted -> ()
      | Active | Prepared ->
          if not t2.doomed then begin
            let dangerous_t1 t1 =
              t1 == node
              || (match t1.status with
                 | Committed | Aborted -> false
                 | Active | Prepared ->
                     (not t1.doomed)
                     && not (t.config.read_only_opt && t1.declared_read_only))
            in
            let found = t2.conservative_in || exists_in t2 dangerous_t1 in
            if found then begin
              let t1_pick = find_in_opt t2 dangerous_t1 in
              let record ~victim ~reason ~t1 =
                (* The committer is T3 and wins the race by definition, so
                   the commit-ordering condition holds trivially; only a
                   conservative structure with no identified T1 degrades to
                   the plain pivot rule. *)
                let rule =
                  match t1 with -1, _, _ -> "pivot" | _ -> "commit-ordering"
                in
                record_dangerous t ~victim ~reason ~rule ~t1 ~t2:(t2.xid, -1)
                  ~t3:(node.xid, -1)
              in
              let t1_pick_fields =
                match t1_pick with Some n -> t1_fields n | None -> (-1, -1, false)
              in
              if t2.status = Prepared then begin
                (* Cannot abort a prepared pivot (§7.1): fall back to T1. *)
                let t1s = List.filter dangerous_t1 (in_readers t2) in
                let abortable_t1s =
                  List.filter (fun t1 -> t1 != node && t1.status = Active) t1s
                in
                if t1s = [] || List.length abortable_t1s < List.length t1s then begin
                  (* Conservative flag, the committer itself, or a prepared
                     T1: no way to break the structure by dooming — the
                     committer must give way. *)
                  record ~victim:node.xid
                    ~reason:"dangerous structure with prepared pivot"
                    ~t1:t1_pick_fields;
                  fail t node "dangerous structure with prepared pivot"
                end
                else
                  List.iter
                    (fun t1 ->
                      record ~victim:t1.xid
                        ~reason:"dangerous structure with prepared pivot"
                        ~t1:(t1_fields t1);
                      doom ~reason:"dangerous structure with prepared pivot" t t1)
                    abortable_t1s
              end
              else begin
                record ~victim:t2.xid ~reason:"doomed by first committer"
                  ~t1:t1_pick_fields;
                doom t t2
              end
            end
          end)

let prepare t node =
  check_doomed node;
  precommit t node;
  node.status <- Prepared

let mark_conservative _t node =
  (* A live prepared transaction whose conflict state is split across
     certifier instances (distributed 2PC): while the coordinator
     deliberates, edges can keep forming here against remote edges this
     instance cannot see.  Setting the §7.1 flags makes every such new
     edge conservatively dangerous, so the edge-former gives way — the
     same degradation crash recovery applies, but during the live decision
     window. *)
  node.conservative_in <- true;
  node.conservative_out <- true

let restore_prepared _t node =
  (* Cold-start recovery of a prepared 2PC transaction (§7.1): the
     dependency graph did not survive the crash, so the freshly registered
     node is marked prepared with conflicts assumed both in and out.  Its
     SIREAD locks are reinstalled separately from the persisted 2PC state. *)
  node.status <- Prepared;
  node.wrote <- true;
  node.conservative_in <- true;
  node.conservative_out <- true

let committed t node ~commit_cseq =
  node.status <- Committed;
  node.commit_cseq <- commit_cseq;
  (* My readers' earliest committed out-conflict may now be me. *)
  iter_in node (fun e -> note_out_target_committed e.e_reader commit_cseq);
  (* Read-only safety propagation. *)
  iter_watchers node (fun wt -> ro_watch_resolved t wt ~committed:true);
  (* If this transaction was itself read-only and still watching others,
     detach. *)
  iter_watching node unlink_watch;
  active_remove t node;
  if node.safe then begin
    (* Never tracked; nothing to retain. *)
    Hashtbl.remove t.by_xid node.xid;
    cleanup t
  end
  else begin
    Retention.retain t.ret node;
    Hashtbl.replace t.by_cseq commit_cseq node.xid;
    cleanup t
  end

let aborted t node =
  node.status <- Aborted;
  unlink_node node;
  Predlock.release_owner t.locks node.xid;
  iter_watchers node (fun wt -> ro_watch_resolved t wt ~committed:false);
  iter_watching node unlink_watch;
  active_remove t node;
  Hashtbl.remove t.by_xid node.xid;
  cleanup t

(* ---- Introspection -------------------------------------------------------------- *)

let node_info n =
  {
    info_xid = n.xid;
    info_status = status_name n.status;
    info_doomed = n.doomed;
    info_read_only = n.declared_read_only;
    info_safe = n.safe;
    info_commit_cseq = (if n.status = Committed then Some n.commit_cseq else None);
    info_in = List.map (fun x -> x.xid) (in_readers n);
    info_out = List.map (fun x -> x.xid) (out_writers n);
    info_conservative_in = n.conservative_in;
    info_conservative_out = n.conservative_out;
  }

(* A summarized partner keeps its edge here: a summarized reader leaves
   [summarized_in_max], a summarized writer [cached_earliest_out] (§6.2). *)
let conflicts n =
  {
    rw_in = n.in_count > 0 || n.summarized_in_max > 0;
    rw_out = n.out_count > 0 || n.cached_earliest_out <> invalid_cseq;
    conservative = n.conservative_in || n.conservative_out;
  }

let rec active_nodes = function None -> [] | Some n -> n :: active_nodes n.act_next
let dump_graph t = List.map node_info (active_nodes t.active_first @ Retention.to_list t.ret)

(* [by_xid] holds exactly the nodes [dump_graph] lists: the active list
   (active and prepared) and the retained committed queue. *)
let info t xid = Option.map node_info (Hashtbl.find_opt t.by_xid xid)

(* ---- Recovery ---------------------------------------------------------------- *)

let recover t =
  (* Non-prepared active transactions disappear, safe-at-BEGIN ones too. *)
  t.safe_n <- 0;
  iter_active t (fun n ->
      if n.status <> Prepared then begin
        n.status <- Aborted;
        Predlock.release_owner t.locks n.xid;
        Hashtbl.remove t.by_xid n.xid;
        active_remove t n
      end);
  Retention.reset t.ret t;
  (* Prepared transactions survive with their SIREAD locks, but the
     dependency graph is gone: assume conflicts both in and out (§7.1). *)
  iter_active t (fun p ->
      iter_in p unlink_edge;
      iter_out p unlink_edge;
      p.conservative_in <- true;
      p.conservative_out <- true;
      iter_watchers p unlink_watch;
      iter_watching p unlink_watch)
