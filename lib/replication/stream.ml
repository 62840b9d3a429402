module E = Ssi_engine.Engine
module Wal = Ssi_wal.Wal
module Net = Ssi_net.Net
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module Waitq = Ssi_util.Waitq

(* A shipped log record and the context of the commit span behind it. *)
type entry = Wal.record * Obs.span_ctx option

type msg =
  | Rec of { epoch : int; pos : int; entry : entry }
  | Ack of { epoch : int; pos : int }
  | Nack of { epoch : int; from_pos : int; upto : int }
  | Subscribe of { epoch : int; from_pos : int }
  | Reject of { epoch : int }

type net = msg Net.t
type quorum = { k : int; deadline : float }

type primary = {
  p_net : net;
  p_node : string;
  p_epoch : int;
  p_engine : E.t;
  mutable p_deposed : bool;
  (* The shipped log by stream position: the base backup at 0. *)
  p_log : (int, entry) Hashtbl.t;
  mutable p_next : int;
  p_pos_of_cseq : (int, int) Hashtbl.t;
  mutable p_last_cseq : int;
  (* Subscription order, kept as a list: iteration must be deterministic.
     Each subscriber's acked position; -1 before it holds the base. *)
  mutable p_subs : (string * int ref) list;
  p_acks : Waitq.t;
  c_wal_sent : Obs.counter;
  c_retransmits : Obs.counter;
  c_quorum_waits : Obs.counter;
  c_quorum_timeouts : Obs.counter;
  h_quorum_wait : Obs.histogram;
}

(* A subscriber waits [nack_timeout] virtual seconds for a
   retransmission before renewing its NACK, at most [nack_retries] times
   per gap, so a permanent partition cannot loop forever. *)
let nack_timeout = 1e-3
let nack_retries = 16

type subscription = {
  s_net : net;
  s_node : string;
  s_core : Replica.t;
  mutable s_primary : string;
  mutable s_epoch : int;
  (* Next stream position to apply; 0 = awaiting the base backup. *)
  mutable s_next : int;
  (* Everything applied, by position: what this node ships if promoted. *)
  s_log : (int, entry) Hashtbl.t;
  s_ooo : (int, entry) Hashtbl.t;
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

let send_to p ?span_ctx ~dst m = Net.send p.p_net ?span_ctx ~src:p.p_node ~dst m

let send_entry p ~dst pos ((_, span) as entry) =
  send_to p ?span_ctx:span ~dst (Rec { epoch = p.p_epoch; pos; entry })

(* Resend the log past position [after] ([-1]: the base backup too), up
   to [upto] exclusive. *)
let retransmit ?(upto = max_int) p ~dst ~after =
  Obs.incr p.c_retransmits;
  for pos = after + 1 to min upto p.p_next - 1 do
    send_entry p ~dst pos (Hashtbl.find p.p_log pos)
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
  | Ack { epoch; pos } ->
      if epoch > p.p_epoch then depose p
      else if epoch = p.p_epoch then begin
        (match List.assoc_opt src p.p_subs with
        | Some acked -> acked := max !acked pos
        | None -> p.p_subs <- p.p_subs @ [ (src, ref pos) ]);
        Waitq.wake_all p.p_acks
      end
  | Nack { epoch; from_pos; upto } ->
      if epoch = p.p_epoch then retransmit p ~dst:src ~after:from_pos ~upto
  | Subscribe { epoch; from_pos } ->
      if epoch > p.p_epoch then depose p
      else begin
        if not (List.mem_assoc src p.p_subs) then p.p_subs <- p.p_subs @ [ (src, ref (-1)) ];
        retransmit p ~dst:src ~after:from_pos
      end
  | Reject { epoch } -> if epoch > p.p_epoch then depose p
  | Rec { epoch; _ } ->
      (* A primary receiving a stale primary's stream (it used to be that
         primary's replica, before promotion): fence the sender. *)
      if epoch < p.p_epoch then send_to p ~dst:src (Reject { epoch = p.p_epoch })

let append p ((record, _) as entry) =
  let pos = p.p_next in
  Hashtbl.replace p.p_log pos entry;
  p.p_next <- pos + 1;
  (match record with
  | Wal.Commit { c_cseq = cseq; _ } | Wal.Checkpoint { k_cseq = cseq; _ } ->
      Hashtbl.replace p.p_pos_of_cseq cseq pos;
      p.p_last_cseq <- max p.p_last_cseq cseq
  | _ -> ());
  pos

let ship p record span =
  let pos = append p (record, span) in
  (* Without a simulation there is no network to traverse; the record is
     retained and goes out through retransmission on the next catch-up. *)
  if Sim.running () then
    List.iter
      (fun (node, _) ->
        Obs.incr p.c_wal_sent;
        send_entry p ~dst:node pos (record, span))
      p.p_subs

let quorum_wait p q cseq =
  (* Outside a simulation there is no scheduler to wait on: stay async. *)
  if Sim.running () && (not p.p_deposed) && q.k > 0 then begin
    let pos = Hashtbl.find p.p_pos_of_cseq cseq in
    let acks () = List.length (List.filter (fun (_, acked) -> !acked >= pos) p.p_subs) in
    if acks () < q.k then begin
      Obs.incr p.c_quorum_waits;
      let t0 = Sim.now () in
      let timed_out = ref false in
      (* Halfway, resend the record to whoever has not acked it — a
         subscriber that holds it re-acks, so a lost ack costs no timeout
         — and only then start the second half of the deadline. *)
      let half = q.deadline /. 2. in
      Sim.at ~after:half (fun () ->
          if acks () < q.k && not p.p_deposed then begin
            List.iter
              (fun (node, acked) ->
                if !acked < pos then send_entry p ~dst:node pos (Hashtbl.find p.p_log pos))
              p.p_subs;
            Sim.at ~after:half (fun () ->
                timed_out := true;
                Waitq.wake_all p.p_acks)
          end);
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

(* A primary shipping [log] (base backup first) and every record the
   engine logs from now on. *)
let start net ~node ~epoch ?quorum engine ~log =
  let obs = E.obs engine in
  let p =
    {
      p_net = net;
      p_node = node;
      p_epoch = epoch;
      p_engine = engine;
      p_deposed = false;
      p_log = Hashtbl.create 1024;
      p_next = 0;
      p_pos_of_cseq = Hashtbl.create 1024;
      p_last_cseq = 0;
      p_subs = [];
      p_acks = Waitq.create ();
      c_wal_sent = Obs.counter obs "stream.wal_sent";
      c_retransmits = Obs.counter obs "stream.retransmits";
      c_quorum_waits = Obs.counter obs "stream.quorum_waits";
      c_quorum_timeouts = Obs.counter obs "stream.quorum_timeouts";
      h_quorum_wait = Obs.histogram obs "stream.quorum_wait";
    }
  in
  List.iter (fun entry -> ignore (append p entry)) log;
  Obs.set_gauge (Obs.gauge obs "stream.epoch") (float_of_int epoch);
  (* Persist the adopted epoch: a primary recovered from its durable log
     restarts at a higher epoch, so its subscribers resync rather than mix
     histories. *)
  E.note_epoch engine epoch;
  if List.mem node (Net.nodes net) then Net.set_handler net node (handle_primary p)
  else Net.add_node net node ~handler:(handle_primary p);
  E.set_on_log engine (ship p);
  E.set_commit_gate engine
    (Some
       (fun () ->
         if p.p_deposed then
           raise
             (E.Error (E.Transient_fault
                {
                  op = "commit";
                  reason =
                    Printf.sprintf "primary %s fenced: deposed from epoch %d" node epoch;
                }))));
  (match quorum with
  | None -> ()
  | Some q -> E.set_commit_wait engine (Some (quorum_wait p q)));
  p

(* The backup and the hook are taken with no suspension point between
   them, so the stream [backup; every later record] has no gap. *)
let make_primary net ~node ~epoch ?quorum engine =
  start net ~node ~epoch ?quorum engine ~log:[ (E.backup engine, None) ]

let epoch p = p.p_epoch
let primary_node p = p.p_node
let engine p = p.p_engine
let is_deposed p = p.p_deposed
let last_cseq p = p.p_last_cseq
let subscribers p = List.map (fun (node, acked) -> (node, !acked)) p.p_subs

let retransmit_unacked p =
  List.iter (fun (node, acked) -> retransmit p ~dst:node ~after:!acked) p.p_subs

(* ------------------------------------------------------------------ *)
(* Subscriber side                                                     *)
(* ------------------------------------------------------------------ *)

let sub_send s m = Net.send s.s_net ~src:s.s_node ~dst:s.s_primary m
let ack s = sub_send s (Ack { epoch = s.s_epoch; pos = s.s_next - 1 })

(* Renew the NACK after a timeout if the gap is still open, a bounded
   number of times: under a permanent partition the requests themselves are
   lost, and an unbounded timer chain would keep the simulation alive
   forever.  [retransmit_unacked] / [sync] cover catch-up after a heal. *)
let rec request_retransmit s =
  if (not s.s_nack_inflight) && s.s_retries_left > 0 then begin
    s.s_nack_inflight <- true;
    s.s_retries_left <- s.s_retries_left - 1;
    Obs.incr s.c_nacks;
    (* Only the gap: up to the first record parked past it. *)
    let upto = Hashtbl.fold (fun pos _ acc -> min pos acc) s.s_ooo max_int in
    sub_send s (Nack { epoch = s.s_epoch; from_pos = s.s_next - 1; upto });
    let expected = s.s_next in
    Sim.at ~after:nack_timeout (fun () ->
        if s.s_next = expected then begin
          s.s_nack_inflight <- false;
          if Hashtbl.length s.s_ooo > 0 then request_retransmit s
        end)
  end

(* Forget the stream and the replica's state: the next base backup
   re-seeds it. *)
let restart s =
  s.s_next <- 0;
  Hashtbl.reset s.s_log;
  Hashtbl.reset s.s_ooo;
  s.s_nack_inflight <- false;
  s.s_retries_left <- nack_retries;
  Replica.reset s.s_core

let apply s ((record, span) as entry) =
  Replica.deliver s.s_core ?span record;
  Hashtbl.replace s.s_log s.s_next entry;
  s.s_next <- s.s_next + 1

let accept s pos entry =
  if pos < s.s_next then begin
    (* Duplicate delivery or a retransmission we already have: re-ack so
       the primary's frontier still advances. *)
    Obs.incr s.c_dups;
    ack s
  end
  else if pos = s.s_next then begin
    apply s entry;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt s.s_ooo s.s_next with
      | Some e ->
          Hashtbl.remove s.s_ooo s.s_next;
          apply s e
      | None -> continue := false
    done;
    s.s_nack_inflight <- false;
    s.s_retries_left <- nack_retries;
    ack s;
    (* The next gap, if a later record is already parked. *)
    if Hashtbl.length s.s_ooo > 0 then request_retransmit s
  end
  else if s.s_next > 0 then begin
    (* Gap: park the record and ask for the missing range.  Before the
       base arrives there is nothing to park against: the subscribe
       request's retransmission covers it. *)
    if Hashtbl.mem s.s_ooo pos then Obs.incr s.c_dups else Hashtbl.replace s.s_ooo pos entry;
    request_retransmit s
  end

(* A record from a higher epoch: a failover happened while we were cut
   off.  Our state may extend past the new primary's chosen snapshot, so
   re-seed from its base rather than guessing a common prefix. *)
let adopt s ~src ~epoch =
  Obs.incr s.c_resyncs;
  s.s_epoch <- epoch;
  s.s_primary <- src;
  restart s;
  Obs.trace (Replica.obs s.s_core) "stream.resync"
    ~fields:[ ("node", Obs.S s.s_node); ("epoch", Obs.I epoch) ];
  sub_send s (Subscribe { epoch; from_pos = -1 })

let handle_sub s ~src msg =
  match msg with
  | Rec { epoch; pos; entry } ->
      if epoch < s.s_epoch then begin
        Obs.incr s.c_fenced;
        Net.send s.s_net ~src:s.s_node ~dst:src (Reject { epoch = s.s_epoch })
      end
      else begin
        if epoch > s.s_epoch then adopt s ~src ~epoch;
        accept s pos entry
      end
  | Ack _ | Nack _ | Subscribe _ | Reject _ -> ()

let subscribe net ~node ~primary_node ~epoch core =
  let obs = Replica.obs core in
  let metric suffix = Printf.sprintf "stream.%s.%s" (Replica.name core) suffix in
  let s =
    {
      s_net = net;
      s_node = node;
      s_core = core;
      s_primary = primary_node;
      s_epoch = epoch;
      s_next = 0;
      s_log = Hashtbl.create 1024;
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
  sub_send s (Subscribe { epoch; from_pos = -1 });
  s

let core s = s.s_core
let sub_node s = s.s_node

let sync s =
  s.s_nack_inflight <- false;
  s.s_retries_left <- nack_retries;
  sub_send s (Subscribe { epoch = s.s_epoch; from_pos = s.s_next - 1 })

let resubscribe s ~primary_node ~epoch =
  Obs.incr s.c_resyncs;
  s.s_primary <- primary_node;
  s.s_epoch <- epoch;
  restart s;
  sub_send s (Subscribe { epoch; from_pos = -1 })

type failover = { new_primary : primary; promotion : Replica.promotion }

(* The promoted node ships the log it applied, less the commits the
   promotion rolled back, then its own: one lineage for its subscribers. *)
let promote s ?quorum mode =
  let promotion = Replica.promote s.s_core mode in
  let kept = function
    | Wal.Commit { c_cseq; _ }, _ -> c_cseq <= promotion.Replica.promote_cseq
    | _ -> true
  in
  let log = List.filter kept (List.init s.s_next (Hashtbl.find s.s_log)) in
  let new_primary =
    start s.s_net ~node:s.s_node ~epoch:(s.s_epoch + 1) ?quorum promotion.Replica.engine ~log
  in
  { new_primary; promotion }
