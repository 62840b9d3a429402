open Ssi_storage

type xid = Heap.xid
type cseq = int

let invalid_cseq = max_int

module Clog = struct
  type status = In_progress | Committed of cseq | Aborted

  type t = {
    statuses : (xid, status) Hashtbl.t;
    mutable next_xid : xid;
    mutable next_cseq : cseq;
  }

  let create () = { statuses = Hashtbl.create 256; next_xid = 1; next_cseq = 1 }

  let new_xid t =
    let xid = t.next_xid in
    t.next_xid <- xid + 1;
    Hashtbl.replace t.statuses xid In_progress;
    xid

  (* [find], not [find_opt]: visibility checks call this once per version
     examined, and the option would be their only allocation. *)
  let status t xid =
    match Hashtbl.find t.statuses xid with
    | s -> s
    | exception Not_found -> invalid_arg (Printf.sprintf "Clog.status: unknown xid %d" xid)

  let commit t xid =
    (match status t xid with
    | In_progress -> ()
    | Committed _ | Aborted -> invalid_arg "Clog.commit: transaction already resolved");
    let c = t.next_cseq in
    t.next_cseq <- c + 1;
    Hashtbl.replace t.statuses xid (Committed c);
    c

  let abort t xid =
    (match status t xid with
    | In_progress -> ()
    | Committed _ | Aborted -> invalid_arg "Clog.abort: transaction already resolved");
    Hashtbl.replace t.statuses xid Aborted

  let next_cseq t = t.next_cseq

  (* Recovery replay: reinstate a transaction under its ORIGINAL id (and,
     for commits, original cseq), keeping the allocators ahead of
     everything installed so post-recovery transactions never collide. *)
  let install t xid status =
    Hashtbl.replace t.statuses xid status;
    if xid >= t.next_xid then t.next_xid <- xid + 1;
    match status with
    | Committed c -> if c >= t.next_cseq then t.next_cseq <- c + 1
    | In_progress | Aborted -> ()

  let commit_cseq t xid =
    match status t xid with Committed c -> c | In_progress | Aborted -> invalid_cseq

  let is_committed t xid =
    match status t xid with Committed _ -> true | In_progress | Aborted -> false
end

module Snapshot = struct
  type t = { owner : xid; horizon : cseq }

  let take clog ~owner = { owner; horizon = Clog.next_cseq clog }

  let sees_xid clog t xid =
    xid = t.owner
    ||
    match Clog.status clog xid with
    | Committed c -> c < t.horizon
    | In_progress | Aborted -> false
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
      match Clog.status clog w with
      | Aborted -> Heap.invalid_xid
      | In_progress -> w
      | Committed c -> if c >= snap.Snapshot.horizon then w else Heap.invalid_xid

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
