(* The cross-shard summarization sweep: a random two-shard workload run
   with a small retained-transaction budget, so committed conflict
   partners are summarized (§6.2) while distributed transactions that
   reach them are still deciding.  The shards' recorded histories, joined
   on the global transactions' gids, must form one acyclic DSG. *)

module E = Ssi_engine.Engine
module Shard = Ssi_shard.Shard
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng
module Value = Ssi_storage.Value

let shards = 2
let keys = 8
let clients = 6
let gtxns_per_client = 30
let ops_per_gtxn = 3
let update_share = 0.4
let max_delay = 20e-6

let config ~budget =
  let c = E.default_config in
  { c with E.certifier = { c.E.certifier with max_committed_sxacts = budget } }

(* The joined DSG's cycle, if the run at [seed] with [budget] retained
   committed transactions per shard produced one. *)
let cycle ~budget ~seed =
  let recorded = Array.make shards [] in
  ignore
    (Sim.run (fun () ->
         let sys = Shard.create ~config:(config ~budget) ~shards ~seed () in
         Shard.create_table sys ~name:"t" ~cols:[ "k"; "writer" ] ~key:"k";
         Shard.seed_rows sys ~table:"t"
           ~rows:(List.init keys (fun k -> [| Value.Int k; Value.Int 1 |]));
         Array.iteri
           (fun s e -> E.set_recorder e (Some (fun t -> recorded.(s) <- t :: recorded.(s))))
           (Shard.engines sys);
         for c = 0 to clients - 1 do
           Sim.spawn (fun () ->
               let rng = Rng.make (Hashtbl.hash (seed, "client", c)) in
               for _ = 1 to gtxns_per_client do
                 let g = Shard.begin_txn sys in
                 try
                   for _ = 1 to ops_per_gtxn do
                     Sim.delay (Rng.float rng max_delay);
                     let key = Value.Int (Rng.int rng keys) in
                     if Rng.chance rng update_share then
                       ignore
                         (Shard.update g ~table:"t" ~key ~f:(fun row ->
                              [| row.(0); Value.Int (Shard.gxid g) |]))
                     else ignore (Shard.read g ~table:"t" ~key)
                   done;
                   ignore (Shard.commit g)
                 with E.Error e when E.retryable e -> Shard.abort g
               done)
         done));
  match Ssi_check.Dsg.check (Array.to_list (Array.map List.rev recorded)) with
  | Ok () -> None
  | Error cycle -> Some cycle
