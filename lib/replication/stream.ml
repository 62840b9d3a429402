open Ssi_storage
module E = Ssi_engine.Engine
module Wal = Ssi_wal.Wal
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module Waitq = Ssi_util.Waitq

type msg =
  | Wal of { epoch : int; record : E.commit_record }
  | Base of { epoch : int; record : E.commit_record }
  | Ack of { epoch : int; cseq : int }
  | Nack of { epoch : int; from_cseq : int }
  | Subscribe of { epoch : int; from_cseq : int }
  | Reject of { epoch : int }

type net = msg Net.t
type quorum = { k : int; deadline : float }

type primary = {
  p_net : net;
  p_node : string;
  p_epoch : int;
  p_engine : E.t;
  p_quorum : quorum option;
  mutable p_deposed : bool;
  p_log : (int, E.commit_record) Hashtbl.t;
  mutable p_base : E.commit_record;
  mutable p_last : int;
  (* Subscription order, kept as a list: iteration must be deterministic. *)
  mutable p_subs : (string * int ref) list;
  p_acks : Waitq.t;
  c_wal_sent : Obs.counter;
  c_retransmits : Obs.counter;
  c_quorum_waits : Obs.counter;
  c_quorum_timeouts : Obs.counter;
  h_quorum_wait : Obs.histogram;
}

type subscription = {
  s_net : net;
  s_node : string;
  s_core : Replica.t;
  s_nack_timeout : float;
  s_nack_retries : int;
  mutable s_primary : string;
  mutable s_epoch : int;
  (* Next cseq to apply; 0 = not yet bootstrapped (awaiting a base
     snapshot), so the dense stream starts at base cseq + 1. *)
  mutable s_next : int;
  s_ooo : (int, E.commit_record) Hashtbl.t;
  mutable s_nack_inflight : bool;
  mutable s_retries_left : int;
  c_dups : Obs.counter;
  c_nacks : Obs.counter;
  c_fenced : Obs.counter;
  c_resyncs : Obs.counter;
}

(* ------------------------------------------------------------------ *)
(* Primary side                                                        *)
(* ------------------------------------------------------------------ *)

(* Synthesize the base-backup record: a snapshot of the whole engine taken
   in one repeatable-read transaction.  The engine's snapshot horizon is
   exclusive (a commit is visible iff cseq < horizon) and every commit —
   the scan's own included — consumes a cseq, so the base is stamped
   [horizon - 1]: the last commit it contains.  The caller installs the
   WAL-shipping hook {e before} computing the base, so the scan's own
   commit and anything racing it land in the retained log and the stream
   [base + (base.cseq+1 ..)] is gap-free. *)
let base_record engine =
  let safe = E.active_transactions engine = 0 in
  let horizon = ref 1 in
  let ops = ref [] in
  E.with_txn ~isolation:E.Repeatable_read ~read_only:true engine (fun txn ->
      horizon := E.snapshot_cseq txn;
      List.iter
        (fun table ->
          let schema = E.table_schema engine ~table in
          let ki = Schema.key_index schema in
          List.iter
            (fun row -> ops := Wal.Insert { table; key = row.(ki); row } :: !ops)
            (E.seq_scan txn ~table ()))
        (List.sort compare (E.table_names engine)));
  {
    E.wal_xid = 0;
    wal_cseq = !horizon - 1;
    wal_ops = List.rev !ops;
    wal_safe_point = safe;
    wal_span = None;
  }

let send_to p ?span_ctx ~dst m = Net.send p.p_net ?span_ctx ~src:p.p_node ~dst m

(* Resend history past [after]: the base snapshot when the subscriber is
   behind it (or was never seeded, [after < 0]), then every logged record. *)
let retransmit p ~dst ~after =
  Obs.incr p.c_retransmits;
  let start =
    if after < p.p_base.E.wal_cseq then begin
      send_to p ~dst (Base { epoch = p.p_epoch; record = p.p_base });
      p.p_base.E.wal_cseq + 1
    end
    else after + 1
  in
  for cseq = start to p.p_last do
    match Hashtbl.find_opt p.p_log cseq with
    | Some record ->
        send_to p ?span_ctx:record.E.wal_span ~dst (Wal { epoch = p.p_epoch; record })
    | None -> ()
  done

let depose p =
  if not p.p_deposed then begin
    p.p_deposed <- true;
    Obs.trace (E.obs p.p_engine) "stream.deposed"
      ~fields:[ ("node", Obs.S p.p_node); ("epoch", Obs.I p.p_epoch) ];
    (* Never leave quorum waiters suspended on a fenced primary. *)
    Waitq.wake_all p.p_acks
  end

let handle_primary p ~src msg =
  match msg with
  | Ack { epoch; cseq } ->
      if epoch > p.p_epoch then depose p
      else if epoch = p.p_epoch then begin
        (match List.assoc_opt src p.p_subs with
        | Some acked -> acked := max !acked cseq
        | None -> p.p_subs <- p.p_subs @ [ (src, ref cseq) ]);
        Waitq.wake_all p.p_acks
      end
  | Nack { epoch; from_cseq } -> if epoch = p.p_epoch then retransmit p ~dst:src ~after:from_cseq
  | Subscribe { epoch; from_cseq } ->
      if epoch > p.p_epoch then depose p
      else begin
        if not (List.mem_assoc src p.p_subs) then p.p_subs <- p.p_subs @ [ (src, ref 0) ];
        retransmit p ~dst:src ~after:from_cseq
      end
  | Reject { epoch } -> if epoch > p.p_epoch then depose p
  | Wal { epoch; _ } | Base { epoch; _ } ->
      (* A primary receiving a stale primary's stream (it used to be that
         primary's replica, before promotion): fence the sender. *)
      if epoch < p.p_epoch then send_to p ~dst:src (Reject { epoch = p.p_epoch })

let ship p record =
  Hashtbl.replace p.p_log record.E.wal_cseq record;
  if record.E.wal_cseq > p.p_last then p.p_last <- record.E.wal_cseq;
  (* Without a simulation there is no network to traverse; the record is
     retained and goes out through retransmission on the next catch-up. *)
  if Sim.running () then
    List.iter
      (fun (node, _) ->
        Obs.incr p.c_wal_sent;
        send_to p ?span_ctx:record.E.wal_span ~dst:node
          (Wal { epoch = p.p_epoch; record }))
      p.p_subs

let quorum_wait p q (record : E.commit_record) =
  (* Outside a simulation there is no scheduler to wait on: stay async. *)
  if Sim.running () && (not p.p_deposed) && q.k > 0 then begin
    let cseq = record.E.wal_cseq in
    let acks () = List.length (List.filter (fun (_, acked) -> !acked >= cseq) p.p_subs) in
    if acks () < q.k then begin
      Obs.incr p.c_quorum_waits;
      let t0 = Sim.now () in
      let timed_out = ref false in
      Sim.at ~after:q.deadline (fun () ->
          timed_out := true;
          Waitq.wake_all p.p_acks);
      while acks () < q.k && (not !timed_out) && not p.p_deposed do
        Sim.wait p.p_acks
      done;
      if acks () >= q.k then Obs.observe p.h_quorum_wait (Sim.now () -. t0)
      else begin
        (* Degrade to asynchronous: the commit is locally durable and
           stands; blocking forever behind a partition would be worse. *)
        Obs.incr p.c_quorum_timeouts;
        Obs.trace (E.obs p.p_engine) "stream.quorum_timeout"
          ~fields:[ ("cseq", Obs.I cseq); ("acks", Obs.I (acks ())); ("need", Obs.I q.k) ]
      end
    end
  end

let make_primary net ~node ~epoch ?quorum engine =
  let obs = E.obs engine in
  let p =
    {
      p_net = net;
      p_node = node;
      p_epoch = epoch;
      p_engine = engine;
      p_quorum = quorum;
      p_deposed = false;
      p_log = Hashtbl.create 1024;
      p_base =
        { E.wal_xid = 0; wal_cseq = 0; wal_ops = []; wal_safe_point = false; wal_span = None };
      p_last = 0;
      p_subs = [];
      p_acks = Waitq.create ();
      c_wal_sent = Obs.counter obs "stream.wal_sent";
      c_retransmits = Obs.counter obs "stream.retransmits";
      c_quorum_waits = Obs.counter obs "stream.quorum_waits";
      c_quorum_timeouts = Obs.counter obs "stream.quorum_timeouts";
      h_quorum_wait = Obs.histogram obs "stream.quorum_wait";
    }
  in
  Obs.set_gauge (Obs.gauge obs "stream.epoch") (float_of_int epoch);
  (* Persist the adopted epoch: a primary recovered from its durable log
     restarts at a higher epoch, so its subscribers resync rather than mix
     histories. *)
  E.note_epoch engine epoch;
  if List.mem node (Net.nodes net) then Net.set_handler net node (handle_primary p)
  else Net.add_node net node ~handler:(handle_primary p);
  (* Hook first, base second: the base scan's own commit (every commit
     consumes a cseq) and any commit racing the scan must reach the log. *)
  E.set_on_commit engine (ship p);
  p.p_base <- base_record engine;
  if p.p_base.E.wal_cseq > p.p_last then p.p_last <- p.p_base.E.wal_cseq;
  E.set_commit_gate engine
    (Some
       (fun () ->
         if p.p_deposed then
           raise
             (E.Transient_fault
                {
                  op = "commit";
                  reason =
                    Printf.sprintf "primary %s fenced: deposed from epoch %d" node epoch;
                })));
  (match quorum with
  | None -> ()
  | Some q -> E.set_commit_wait engine (Some (quorum_wait p q)));
  p

let epoch p = p.p_epoch
let primary_node p = p.p_node
let engine p = p.p_engine
let is_deposed p = p.p_deposed
let last_cseq p = p.p_last
let subscribers p = List.map (fun (node, acked) -> (node, !acked)) p.p_subs

let retransmit_unacked p =
  List.iter (fun (node, acked) -> retransmit p ~dst:node ~after:!acked) p.p_subs

(* ------------------------------------------------------------------ *)
(* Subscriber side                                                     *)
(* ------------------------------------------------------------------ *)

let sub_send s m = Net.send s.s_net ~src:s.s_node ~dst:s.s_primary m
let ack s = sub_send s (Ack { epoch = s.s_epoch; cseq = s.s_next - 1 })

(* Renew the NACK after a timeout if the gap is still open, a bounded
   number of times: under a permanent partition the requests themselves are
   lost, and an unbounded timer chain would keep the simulation alive
   forever.  [retransmit_unacked] / [sync] cover catch-up after a heal. *)
let rec request_retransmit s =
  if (not s.s_nack_inflight) && s.s_retries_left > 0 then begin
    s.s_nack_inflight <- true;
    s.s_retries_left <- s.s_retries_left - 1;
    Obs.incr s.c_nacks;
    sub_send s (Nack { epoch = s.s_epoch; from_cseq = s.s_next - 1 });
    let expected = s.s_next in
    Sim.at ~after:s.s_nack_timeout (fun () ->
        if s.s_next = expected then begin
          s.s_nack_inflight <- false;
          if Hashtbl.length s.s_ooo > 0 then request_retransmit s
        end)
  end

let bootstrap s ~src ~epoch (record : E.commit_record) =
  if epoch > s.s_epoch then begin
    s.s_epoch <- epoch;
    s.s_primary <- src
  end;
  Replica.reset s.s_core;
  Hashtbl.reset s.s_ooo;
  s.s_nack_inflight <- false;
  s.s_retries_left <- s.s_nack_retries;
  Replica.deliver s.s_core record;
  s.s_next <- record.E.wal_cseq + 1;
  ack s

(* A record from a higher epoch: a failover happened while we were cut
   off.  Our state may extend past the new primary's chosen snapshot, so
   re-seed from its base rather than guessing a common prefix. *)
let adopt s ~src ~epoch =
  Obs.incr s.c_resyncs;
  s.s_epoch <- epoch;
  s.s_primary <- src;
  s.s_next <- 0;
  Hashtbl.reset s.s_ooo;
  s.s_nack_inflight <- false;
  s.s_retries_left <- s.s_nack_retries;
  Obs.trace (Replica.obs s.s_core) "stream.resync"
    ~fields:[ ("node", Obs.S s.s_node); ("epoch", Obs.I epoch) ];
  sub_send s (Subscribe { epoch; from_cseq = -1 })

let accept s (record : E.commit_record) =
  let cseq = record.E.wal_cseq in
  if cseq < s.s_next then begin
    (* Duplicate delivery or a retransmission we already have: re-ack so
       the primary's frontier still advances. *)
    Obs.incr s.c_dups;
    ack s
  end
  else if cseq = s.s_next then begin
    Replica.deliver s.s_core record;
    s.s_next <- cseq + 1;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt s.s_ooo s.s_next with
      | Some r ->
          Hashtbl.remove s.s_ooo s.s_next;
          Replica.deliver s.s_core r;
          s.s_next <- s.s_next + 1
      | None -> continue := false
    done;
    s.s_nack_inflight <- false;
    s.s_retries_left <- s.s_nack_retries;
    ack s
  end
  else begin
    (* Gap: park the record and ask for the missing range. *)
    if Hashtbl.mem s.s_ooo cseq then Obs.incr s.c_dups
    else Hashtbl.replace s.s_ooo cseq record;
    request_retransmit s
  end

let handle_sub s ~src msg =
  match msg with
  | Wal { epoch; record } ->
      if epoch < s.s_epoch then begin
        Obs.incr s.c_fenced;
        Net.send s.s_net ~src:s.s_node ~dst:src (Reject { epoch = s.s_epoch })
      end
      else if epoch > s.s_epoch then adopt s ~src ~epoch
      else if s.s_next > 0 then accept s record
      (* else: not yet bootstrapped; the base retransmission will cover
         this record. *)
  | Base { epoch; record } ->
      if epoch < s.s_epoch then begin
        Obs.incr s.c_fenced;
        Net.send s.s_net ~src:s.s_node ~dst:src (Reject { epoch = s.s_epoch })
      end
      else bootstrap s ~src ~epoch record
  | Ack _ | Nack _ | Subscribe _ | Reject _ -> ()

let subscribe net ~node ~primary_node ~epoch ?(nack_timeout = 1e-3) ?(nack_retries = 16) core =
  let obs = Replica.obs core in
  let metric suffix = Printf.sprintf "stream.%s.%s" (Replica.name core) suffix in
  let s =
    {
      s_net = net;
      s_node = node;
      s_core = core;
      s_nack_timeout = nack_timeout;
      s_nack_retries = nack_retries;
      s_primary = primary_node;
      s_epoch = epoch;
      s_next = 0;
      s_ooo = Hashtbl.create 64;
      s_nack_inflight = false;
      s_retries_left = nack_retries;
      c_dups = Obs.counter obs (metric "dups_dropped");
      c_nacks = Obs.counter obs (metric "nacks");
      c_fenced = Obs.counter obs (metric "fenced_rejects");
      c_resyncs = Obs.counter obs (metric "resyncs");
    }
  in
  Net.add_node net node ~handler:(handle_sub s);
  sub_send s (Subscribe { epoch; from_cseq = -1 });
  s

let core s = s.s_core
let sub_epoch s = s.s_epoch
let sub_node s = s.s_node

let sync s =
  s.s_nack_inflight <- false;
  s.s_retries_left <- s.s_nack_retries;
  let from_cseq = if s.s_next = 0 then -1 else s.s_next - 1 in
  sub_send s (Subscribe { epoch = s.s_epoch; from_cseq })

let resubscribe s ~primary_node ~epoch =
  Obs.incr s.c_resyncs;
  s.s_primary <- primary_node;
  s.s_epoch <- epoch;
  s.s_next <- 0;
  Hashtbl.reset s.s_ooo;
  s.s_nack_inflight <- false;
  s.s_retries_left <- s.s_nack_retries;
  Replica.reset s.s_core;
  sub_send s (Subscribe { epoch; from_cseq = -1 })

type failover = { new_primary : primary; promotion : Replica.promotion }

let promote s ~schema_from ?quorum mode =
  let promotion = Replica.promote s.s_core ~primary:schema_from mode in
  let new_primary =
    make_primary s.s_net ~node:s.s_node ~epoch:(s.s_epoch + 1) ?quorum promotion.Replica.engine
  in
  { new_primary; promotion }
