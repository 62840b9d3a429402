open Ssi_storage

type xid = Heap.xid
type cseq = int

let invalid_cseq = max_int

module Clog = struct
  type status = In_progress | Committed of cseq | Aborted

  (* One word per xid: a commit cseq (>= 0) or a negative code.  Xids from
     1 index a dense array; standby reads' negative owners a side table. *)
  let in_progress, aborted, unknown = (-1, -2, -3)

  type t = {
    mutable codes : int array;
    others : (xid, int) Hashtbl.t;
    mutable next_xid : xid;
    mutable next_cseq : cseq;
  }

  let create () =
    { codes = Array.make 256 unknown; others = Hashtbl.create 8; next_xid = 1; next_cseq = 1 }

  let set t xid code =
    let n = Array.length t.codes in
    if xid < 1 then Hashtbl.replace t.others xid code
    else if xid < n then t.codes.(xid) <- code
    else begin
      t.codes <- Array.append t.codes (Array.make (Stdlib.max (xid + 1 - n) n) unknown);
      t.codes.(xid) <- code
    end

  (* The code of an allocated xid.  Visibility checks call this once per
     version examined, so it allocates nothing. *)
  let code t xid =
    let c =
      if xid >= 1 && xid < Array.length t.codes then t.codes.(xid)
      else match Hashtbl.find t.others xid with c -> c | exception Not_found -> unknown
    in
    if c = unknown then invalid_arg (Printf.sprintf "Clog.status: unknown xid %d" xid) else c

  let new_xid t =
    let xid = t.next_xid in
    t.next_xid <- xid + 1;
    set t xid in_progress;
    xid

  let status t xid =
    let c = code t xid in
    if c = in_progress then In_progress else if c = aborted then Aborted else Committed c

  let resolve t xid c ~what =
    if code t xid <> in_progress then invalid_arg (what ^ ": transaction already resolved");
    set t xid c

  let commit t xid =
    let c = t.next_cseq in
    resolve t xid c ~what:"Clog.commit";
    t.next_cseq <- c + 1;
    c

  let abort t xid = resolve t xid aborted ~what:"Clog.abort"
  let next_cseq t = t.next_cseq

  (* Recovery replay: reinstate a transaction under its ORIGINAL id (and,
     for commits, original cseq), keeping the allocators ahead of
     everything installed so post-recovery transactions never collide. *)
  let install t xid status =
    if xid >= t.next_xid then t.next_xid <- xid + 1;
    match status with
    | Committed c ->
        set t xid c;
        if c >= t.next_cseq then t.next_cseq <- c + 1
    | In_progress -> set t xid in_progress
    | Aborted -> set t xid aborted

  let commit_cseq t xid =
    let c = code t xid in
    if c >= 0 then c else invalid_cseq

  let is_committed t xid = code t xid >= 0
end

module Snapshot = struct
  type t = { owner : xid; horizon : cseq }

  let take clog ~owner = { owner; horizon = Clog.next_cseq clog }

  let sees_xid clog t xid =
    xid = t.owner
    ||
    let c = Clog.code clog xid in
    c >= 0 && c < t.horizon
end

module Visibility = struct
  type verdict = Visible of xid option | Invisible of xid option

  (* A write by [w] that the reader "reads around" creates a reader→w
     rw-antidependency, but only when [w] actually is (or may yet be) part
     of the committed history: in progress, or committed after the
     snapshot.  Aborted writers and the reader itself never conflict.
     Returns [Heap.invalid_xid] for "no conflict", so the walk below
     allocates nothing. *)
  let conflict_writer clog snap w =
    if w = Heap.invalid_xid || w = snap.Snapshot.owner then Heap.invalid_xid
    else
      let c = Clog.code clog w in
      if c = Clog.aborted then Heap.invalid_xid
      else if c = Clog.in_progress || c >= snap.Snapshot.horizon then w
      else Heap.invalid_xid

  let writer_opt w = if w = Heap.invalid_xid then None else Some w

  (* Deleted before the snapshot (by a transaction it sees, or by the
     reader itself): cleanly gone.  Otherwise the deleter is in progress,
     committed after the snapshot or aborted, and the version is still
     visible. *)
  let deleted_before clog snap (tuple : Heap.tuple) =
    tuple.xmax <> Heap.invalid_xid
    && (tuple.xmax = snap.Snapshot.owner || Snapshot.sees_xid clog snap tuple.xmax)

  let check clog snap (tuple : Heap.tuple) =
    if Snapshot.sees_xid clog snap tuple.xmin then
      if deleted_before clog snap tuple then Invisible None
      else Visible (writer_opt (conflict_writer clog snap tuple.xmax))
    else Invisible (writer_opt (conflict_writer clog snap tuple.xmin))

  let deleter clog snap (tuple : Heap.tuple) = conflict_writer clog snap tuple.xmax

  (* An invisible version with no conflicting creator is either aborted
     (skip it) or was deleted before the snapshot — in which case no older
     version can be visible either, but walking on is still correct because
     visibility of older versions is checked independently.  The result is
     a version the chain already holds, or [Heap.absent], so the walk
     allocates nothing. *)
  let rec find_visible clog snap ~skipped (tuple : Heap.tuple) =
    if Heap.is_absent tuple then tuple
    else if Snapshot.sees_xid clog snap tuple.xmin then
      if deleted_before clog snap tuple then older clog snap ~skipped tuple
      else tuple
    else begin
      let w = conflict_writer clog snap tuple.xmin in
      if w <> Heap.invalid_xid then skipped w;
      older clog snap ~skipped tuple
    end

  and older clog snap ~skipped (tuple : Heap.tuple) =
    match tuple.prev with
    | None -> Heap.absent
    | Some v -> find_visible clog snap ~skipped v

  let latest_visible clog snap head =
    let conflicts = ref [] in
    let skipped w = conflicts := w :: !conflicts in
    let v = find_visible clog snap ~skipped head in
    if Heap.is_absent v then (None, List.rev !conflicts)
    else (Some (v, writer_opt (deleter clog snap v)), List.rev !conflicts)
end
