open Ssi_util
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Ssi = Ssi_core.Ssi
module R = Ssi_replication.Replica
module Net = Ssi_net.Net
module Stream = Ssi_replication.Stream

(* ---- Injector ------------------------------------------------------------ *)

type injector = {
  rng : Rng.t;
  mutable rate : float;
  mutable count : int;
}

let injector ~seed = { rng = Rng.make (Hashtbl.hash (seed, "fault-injector")); rate = 0.; count = 0 }

let set_fault_rate inj r = inj.rate <- Float.max 0. (Float.min 1. r)
let fault_rate inj = inj.rate
let injected inj = inj.count

let hook inj ~op =
  (* Draw only while armed: the stream of randomness consumed — and hence
     the whole perturbed schedule — depends only on the seeded burst
     windows, not on traffic outside them. *)
  if inj.rate > 0. && Rng.chance inj.rng inj.rate then begin
    inj.count <- inj.count + 1;
    raise (E.Error (E.Transient_fault { op; reason = "injected I/O fault" }))
  end

(* ---- Plans --------------------------------------------------------------- *)

type kind =
  | Crash
  | Fault_burst of { rate : float; duration : float }
  | Memory_pressure of { cap : int; duration : float }
  | Lag_spike of { lag : int; duration : float }
  | Failover
  | Partition of { victim : int; duration : float }
  | Net_chaos of { drop : float; dup : float; reorder : float; duration : float }

type event = { at : float; kind : kind }
type plan = { seed : int; events : event list }

let kind_name = function
  | Crash -> "crash"
  | Fault_burst _ -> "fault-burst"
  | Memory_pressure _ -> "memory-pressure"
  | Lag_spike _ -> "lag-spike"
  | Failover -> "failover"
  | Partition _ -> "partition"
  | Net_chaos _ -> "net-chaos"

let describe plan =
  List.map
    (fun ev ->
      match ev.kind with
      | Crash -> Printf.sprintf "%.4f crash" ev.at
      | Fault_burst { rate; duration } ->
          Printf.sprintf "%.4f fault-burst rate=%.3f duration=%.4f" ev.at rate duration
      | Memory_pressure { cap; duration } ->
          Printf.sprintf "%.4f memory-pressure cap=%d duration=%.4f" ev.at cap duration
      | Lag_spike { lag; duration } ->
          Printf.sprintf "%.4f lag-spike lag=%d duration=%.4f" ev.at lag duration
      | Failover -> Printf.sprintf "%.4f failover" ev.at
      | Partition { victim; duration } ->
          Printf.sprintf "%.4f partition victim=%d duration=%.4f" ev.at victim duration
      | Net_chaos { drop; dup; reorder; duration } ->
          Printf.sprintf "%.4f net-chaos drop=%.3f dup=%.3f reorder=%.3f duration=%.4f" ev.at
            drop dup reorder duration)
    plan.events

let gen_plan ~seed ~horizon ?(crashes = 1) ?(bursts = 1) ?(pressures = 1) ?(lag_spikes = 1)
    ?(failover = false) ?(partitions = 0) ?(net_chaos = 0) () =
  let rng = Rng.make (Hashtbl.hash (seed, "fault-plan")) in
  let between lo hi = lo +. Rng.float rng (hi -. lo) in
  let events = ref [] in
  let add at kind = events := { at; kind } :: !events in
  for _ = 1 to crashes do
    add (between (0.15 *. horizon) (0.85 *. horizon)) Crash
  done;
  for _ = 1 to bursts do
    add
      (between (0.1 *. horizon) (0.7 *. horizon))
      (Fault_burst
         {
           rate = 0.02 +. Rng.float rng 0.18;
           duration = between (0.05 *. horizon) (0.25 *. horizon);
         })
  done;
  for _ = 1 to pressures do
    add
      (between (0.1 *. horizon) (0.7 *. horizon))
      (Memory_pressure { cap = Rng.int rng 3; duration = between (0.1 *. horizon) (0.3 *. horizon) })
  done;
  for _ = 1 to lag_spikes do
    add
      (between (0.1 *. horizon) (0.7 *. horizon))
      (Lag_spike { lag = 1 + Rng.int rng 8; duration = between (0.1 *. horizon) (0.3 *. horizon) })
  done;
  (* New perturbation classes draw after all the original ones, so plans
     that request none of them are byte-identical to pre-network plans
     from the same seed. *)
  for _ = 1 to partitions do
    add
      (between (0.1 *. horizon) (0.6 *. horizon))
      (Partition { victim = Rng.int rng 4; duration = between (0.1 *. horizon) (0.3 *. horizon) })
  done;
  for _ = 1 to net_chaos do
    add
      (between (0.05 *. horizon) (0.7 *. horizon))
      (Net_chaos
         {
           drop = 0.02 +. Rng.float rng 0.13;
           dup = 0.02 +. Rng.float rng 0.13;
           reorder = 0.05 +. Rng.float rng 0.25;
           duration = between (0.1 *. horizon) (0.3 *. horizon);
         })
  done;
  if failover then add (0.9 *. horizon) Failover;
  { seed; events = List.stable_sort (fun a b -> compare a.at b.at) !events }

(* ---- Execution ------------------------------------------------------------ *)

type target = {
  engine : E.t;
  injector : injector option;
  replica : R.t option;
  fleet : R.t list;
  net : Stream.net option;
  net_ops : Net.ops option;
}

let execute ?(observer = fun _ _ -> ()) target plan ~log =
  let logf fmt = Printf.ksprintf (fun s -> log (Printf.sprintf "%.4f %s" (Sim.now ()) s)) fmt in
  (* Network events drive whichever control surface the harness supplied:
     the replication stream's net directly, or the type-erased [Net.ops]
     of a network whose message type this module cannot know (sharding). *)
  let net_ops =
    match target.net_ops with
    | Some _ as o -> o
    | None -> Option.map Net.ops target.net
  in
  List.iter
    (fun ev ->
      let d = ev.at -. Sim.now () in
      if d > 0. then Sim.delay d;
      observer `Before ev;
      (match ev.kind with
      | Crash ->
          logf "crash";
          E.simulate_connection_loss target.engine
      | Fault_burst { rate; duration } -> (
          match target.injector with
          | None -> logf "fault-burst skipped (no injector)"
          | Some inj ->
              logf "fault-burst begin rate=%.3f" rate;
              set_fault_rate inj rate;
              Sim.spawn (fun () ->
                  Sim.delay duration;
                  set_fault_rate inj 0.;
                  logf "fault-burst end"))
      | Memory_pressure { cap; duration } ->
          let (Ssi_core.Certifier.Cert ((module C), c)) = E.certifier target.engine in
          let before = C.max_committed_sxacts c in
          logf "memory-pressure begin cap=%d (was %d)" cap before;
          C.set_max_committed_sxacts c cap;
          Sim.spawn (fun () ->
              Sim.delay duration;
              C.set_max_committed_sxacts c before;
              logf "memory-pressure end")
      | Lag_spike { lag; duration } -> (
          (* With a fleet configured, the spike hits one member (picked
             deterministically from the event's own parameters); the
             single-replica target keeps its original meaning. *)
          let victim =
            match (target.fleet, target.replica) with
            | [], r -> r
            | fleet, _ -> Some (List.nth fleet (lag mod List.length fleet))
          in
          match victim with
          | None -> logf "lag-spike skipped (no replica)"
          | Some replica ->
              logf "lag-spike begin lag=%d replica=%s" lag (R.name replica);
              R.set_apply_lag replica lag;
              Sim.spawn (fun () ->
                  Sim.delay duration;
                  R.set_apply_lag replica 0;
                  logf "lag-spike end"))
      | Failover -> logf "failover"
      | Partition { victim; duration } -> (
          match net_ops with
          | None -> logf "partition skipped (no net)"
          | Some o -> (
              match o.Net.o_nodes () with
              | [] -> logf "partition skipped (no nodes)"
              | nodes ->
                  let node = List.nth nodes (victim mod List.length nodes) in
                  logf "partition begin node=%s" node;
                  o.Net.o_isolate node;
                  Sim.spawn (fun () ->
                      Sim.delay duration;
                      o.Net.o_rejoin node;
                      logf "partition end node=%s" node)))
      | Net_chaos { drop; dup; reorder; duration } -> (
          match net_ops with
          | None -> logf "net-chaos skipped (no net)"
          | Some o ->
              let was_drop, was_dup, was_reorder = o.Net.o_chaos () in
              logf "net-chaos begin drop=%.3f dup=%.3f reorder=%.3f" drop dup reorder;
              o.Net.o_set_chaos ~drop ~duplicate:dup ~reorder ();
              Sim.spawn (fun () ->
                  Sim.delay duration;
                  o.Net.o_set_chaos ~drop:was_drop ~duplicate:was_dup ~reorder:was_reorder ();
                  logf "net-chaos end")));
      observer `After ev)
    plan.events
