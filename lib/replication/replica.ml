open Ssi_storage
open Ssi_util
module E = Ssi_engine.Engine
module Wal = Ssi_wal.Wal
module Obs = Ssi_obs.Obs

module Key_table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Versioned rows: newest first, each tagged with the applying commit's
   cseq.  [None] marks a deletion. *)
type versions = (int * Value.t array option) list ref

type t = {
  rep_name : string;
  rep_obs : Obs.t;
  tables : (string, versions Key_table.t) Hashtbl.t;
  mutable applied : int;
  mutable last_safe : int;
  mutable lag : int;
  (* Bumped by promote/reset: open rtxns from the previous life of the
     replica must fail retryably, not read from a store whose history is
     being replaced underneath them. *)
  mutable generation : int;
  pending : E.commit_record Queue.t;
  safe_arrived : Waitq.t;
  (* Gauges under replica.<name>.*: how far behind the replica is (records
     held back), and the frontiers it has reached. *)
  g_apply_lag : Obs.gauge;
  g_applied : Obs.gauge;
  g_safe : Obs.gauge;
}

let table_store t name =
  match Hashtbl.find_opt t.tables name with
  | Some store -> store
  | None ->
      let store = Key_table.create 64 in
      Hashtbl.add t.tables name store;
      store

let versions_of store key =
  match Key_table.find_opt store key with
  | Some v -> v
  | None ->
      let v = ref [] in
      Key_table.add store key v;
      v

let apply_record t (record : E.commit_record) =
  let cseq = record.E.wal_cseq in
  (* The apply is a span parented under the origin commit's span context
     carried in the WAL record, so a trace tree crosses the network:
     txn.commit on the primary -> replica.apply here. *)
  let sp =
    match record.E.wal_span with
    | Some ctx ->
        Some
          (Obs.Span.start t.rep_obs ~ctx
             ~attrs:
               [
                 ("replica", Obs.S t.rep_name);
                 ("cseq", Obs.I cseq);
                 ("xid", Obs.I record.E.wal_xid);
               ]
             "replica.apply")
    | None -> None
  in
  List.iter
    (fun op ->
      match op with
      | Wal.Insert { table; key; row } | Wal.Update { table; key; row } ->
          let v = versions_of (table_store t table) key in
          v := (cseq, Some row) :: !v
      | Wal.Delete { table; key } ->
          let v = versions_of (table_store t table) key in
          v := (cseq, None) :: !v)
    record.E.wal_ops;
  t.applied <- max t.applied cseq;
  Obs.set_gauge t.g_applied (float_of_int t.applied);
  if record.E.wal_safe_point then begin
    t.last_safe <- max t.last_safe cseq;
    Obs.set_gauge t.g_safe (float_of_int t.last_safe);
    Waitq.wake_all t.safe_arrived
  end;
  match sp with Some s -> Obs.Span.finish t.rep_obs s | None -> ()

let drain t =
  while Queue.length t.pending > t.lag do
    apply_record t (Queue.pop t.pending)
  done;
  Obs.set_gauge t.g_apply_lag (float_of_int (Queue.length t.pending))

let deliver t record =
  Queue.add record t.pending;
  drain t

let create ?obs ?(name = "replica") () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let metric suffix = Printf.sprintf "replica.%s.%s" name suffix in
  {
    rep_name = name;
    rep_obs = obs;
    tables = Hashtbl.create 8;
    applied = 0;
    last_safe = 0;
    lag = 0;
    generation = 0;
    pending = Queue.create ();
    safe_arrived = Waitq.create ();
    g_apply_lag = Obs.gauge obs (metric "apply_lag");
    g_applied = Obs.gauge obs (metric "applied_cseq");
    g_safe = Obs.gauge obs (metric "safe_cseq");
  }

let attach ?name primary =
  let obs = E.obs primary in
  let name =
    match name with
    | Some n -> n
    | None ->
        (* One counter per primary registry numbers its replicas, so
           multi-replica attach never collides on gauge names. *)
        let c = Obs.counter obs "replica.attached" in
        Obs.incr c;
        Printf.sprintf "r%d" (Obs.counter_value c)
  in
  let t = create ~obs ~name () in
  E.set_on_commit primary (deliver t);
  t

let name t = t.rep_name
let obs t = t.rep_obs

let reset t =
  Hashtbl.reset t.tables;
  Queue.clear t.pending;
  t.applied <- 0;
  t.last_safe <- 0;
  t.generation <- t.generation + 1;
  Obs.set_gauge t.g_applied 0.;
  Obs.set_gauge t.g_safe 0.;
  Obs.set_gauge t.g_apply_lag 0.

let applied_cseq t = t.applied
let last_safe_cseq t = t.last_safe
let pending_records t = Queue.length t.pending

let set_apply_lag t n =
  t.lag <- max 0 n;
  drain t

type rtxn = { replica : t; horizon : int; gen : int }

(* Internal, non-raising snapshot: promote uses it to build the new
   primary even when the replica has never seen a safe point (an empty
   history is then the correct promotion snapshot). *)
let begin_read_internal t mode =
  match mode with
  | `Latest_safe -> { replica = t; horizon = t.last_safe; gen = t.generation }
  | `Latest_applied -> { replica = t; horizon = t.applied; gen = t.generation }

let begin_read t mode =
  (match mode with
  | `Latest_safe when t.last_safe = 0 ->
      (* No safe snapshot has arrived yet.  The horizon-0 snapshot reads
         an empty database — silently serving it looks like data loss to
         the client.  Fail retryably so a router can fall back. *)
      raise
        (E.Error (E.Transient_fault
           {
             op = "begin_read";
             reason =
               Printf.sprintf "replica %s has no safe snapshot yet" t.rep_name;
           }))
  | _ -> ());
  begin_read_internal t mode

let snapshot_cseq r = r.horizon

(* An rtxn outlives its snapshot when the replica is promoted or reset:
   the versioned store is being replaced (or already was), so reads must
   fail retryably instead of returning rows from a divergent history. *)
let ensure_live r ~op =
  if r.gen <> r.replica.generation then
    raise
      (E.Error (E.Transient_fault
         {
           op;
           reason =
             Printf.sprintf "replica %s snapshot invalidated by promote/reset"
               r.replica.rep_name;
         }))

let visible_row r versions =
  let rec find = function
    | [] -> None
    | (cseq, row) :: older -> if cseq <= r.horizon then row else find older
  in
  find !versions

let read r ~table ~key =
  ensure_live r ~op:"replica_read";
  match Hashtbl.find_opt r.replica.tables table with
  | None -> None
  | Some store -> (
      match Key_table.find_opt store key with
      | None -> None
      | Some versions -> (
          match visible_row r versions with
          | Some row -> Some (Array.copy row)
          | None -> None))

let scan r ~table ?(filter = fun _ -> true) () =
  ensure_live r ~op:"replica_scan";
  match Hashtbl.find_opt r.replica.tables table with
  | None -> []
  | Some store ->
      Key_table.fold
        (fun _ versions acc ->
          match visible_row r versions with
          | Some row when filter row -> Array.copy row :: acc
          | Some _ | None -> acc)
        store []

let wait_snapshot ?deadline t ~after =
  let timed_out = ref false in
  (match deadline with
  | None -> ()
  | Some d ->
      Ssi_sim.Sim.at ~after:d (fun () ->
          timed_out := true;
          (* Spurious wakeups are fine: other waiters recheck and re-wait. *)
          Waitq.wake_all t.safe_arrived));
  while t.last_safe <= after && not !timed_out do
    Ssi_sim.Sim.wait t.safe_arrived
  done;
  if t.last_safe > after then t.last_safe
  else
    raise
      (E.Error (E.Transient_fault
         {
           op = "wait_snapshot";
           reason = Printf.sprintf "no safe snapshot after cseq %d within the deadline" after;
         }))

type promotion = { engine : E.t; promote_cseq : int; discarded_commits : int }

let promote t ~primary mode =
  (* Drain everything already received, apply lag included: WAL the replica
     holds must not be silently dropped by a failover. *)
  let held = t.lag in
  t.lag <- 0;
  drain t;
  t.lag <- held;
  let engine = E.create () in
  let tables = List.sort compare (E.table_names primary) in
  List.iter
    (fun name ->
      let schema = E.table_schema primary ~table:name in
      let cols = Array.to_list (Schema.columns schema) in
      let key = (Schema.columns schema).(Schema.key_index schema) in
      E.create_table engine ~name ~cols ~key)
    tables;
  let r = begin_read_internal t mode in
  E.with_txn engine (fun txn ->
      List.iter
        (fun name -> List.iter (fun row -> E.insert txn ~table:name row) (scan r ~table:name ()))
        tables);
  (* The replica's history ends here: any rtxn still open on it must not
     keep reading from a store whose lineage the promotion supersedes. *)
  t.generation <- t.generation + 1;
  (* Cseqs are dense over streamed commits, so the commits a `Latest_safe
     promotion gives up are exactly those between the chosen horizon and
     the applied frontier. *)
  let discarded = max 0 (t.applied - r.horizon) in
  Obs.trace t.rep_obs "replica.promote"
    ~fields:
      [
        ("replica", Obs.S t.rep_name);
        ("cseq", Obs.I r.horizon);
        ("discarded", Obs.I discarded);
      ];
  { engine; promote_cseq = r.horizon; discarded_commits = discarded }
