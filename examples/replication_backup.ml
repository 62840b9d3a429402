(* Streaming replication and consistent backups (paper §7.2, §4.3).

     dune exec examples/replication_backup.exe

   A primary runs the batch-processing workload while a replica applies
   its WAL stream.  Reading the replica at an arbitrary applied position
   gives only snapshot isolation — the REPORT anomaly of Figure 2 can
   appear.  Reading at the safe-snapshot points marked in the stream is
   serializable.  Finally, a pg_dump-style backup runs on the primary as a
   DEFERRABLE transaction: it waits for a safe snapshot, then scans every
   table with no SSI overhead and no risk of being aborted. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng

let sim_config =
  (* Non-zero per-operation costs make transactions take virtual time, so
     the simulator actually interleaves them. *)
  {
    E.default_config with
    E.costs =
      { E.zero_costs with E.cpu_per_op = 100e-6; cpu_per_tuple = 5e-6; io_commit = 50e-6 };
  }

let vi i = Value.Int i

let setup db =
  E.create_table db ~name:"control" ~cols:[ "id"; "batch" ] ~key:"id";
  E.create_table db ~name:"receipts" ~cols:[ "rid"; "batch"; "amount" ] ~key:"rid";
  E.create_index db ~table:"receipts" ~name:"receipts_batch" ~column:"batch" ();
  E.with_txn db (fun t -> E.insert t ~table:"control" [| vi 0; vi 1 |])

let replica_batch_total rt x =
  List.fold_left
    (fun acc row -> acc + Value.as_int row.(2))
    0
    (R.scan rt ~table:"receipts" ~filter:(fun row -> Value.as_int row.(1) = x) ())

let () =
  let db = E.create ~scheduler:Sim.scheduler ~config:sim_config () in
  let replica = ref None in
  let anomalies_applied = ref 0 and anomalies_safe = ref 0 in
  let reports_applied = ref 0 and reports_safe = ref 0 in
  let backup_rows = ref 0 in
  let seen_applied : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let seen_safe : (int, int) Hashtbl.t = Hashtbl.create 16 in
  ignore
    (Sim.run (fun () ->
         setup db;
         replica := Some (R.attach db);
         let r = Option.get !replica in
         let stop = ref false in
         let rid = ref 0 in
         (* Primary workload: receipts and batch closes. *)
         for i = 1 to 3 do
           let rng = Rng.make (10 + i) in
           Sim.spawn (fun () ->
               while not !stop do
                 (try
                    E.retry db (fun t ->
                        let x =
                          match E.read t ~table:"control" ~key:(vi 0) with
                          | Some row -> Value.as_int row.(1)
                          | None -> assert false
                        in
                        (* Client think time: the anomaly window of Figure 2. *)
                        Sim.delay 0.005;
                        incr rid;
                        E.insert t ~table:"receipts"
                          [| vi ((i * 100000) + !rid); vi x; vi (1 + Rng.int rng 50) |])
                  with E.Error (E.Serialization_failure _) -> ());
                 Sim.delay 0.002
               done)
         done;
         Sim.spawn (fun () ->
             for _ = 1 to 25 do
               (try
                  E.retry db (fun t ->
                      ignore
                        (E.update t ~table:"control" ~key:(vi 0) ~f:(fun row ->
                             [| row.(0); vi (Value.as_int row.(1) + 1) |])))
                with E.Error (E.Serialization_failure _) -> ());
               Sim.delay 0.012
             done;
             stop := true);
         (* Replica REPORT reader, in both modes. *)
         let report mode seen anomalies reports =
           (* Until the first safe snapshot arrives, a [`Latest_safe] read
              fails retryably; the reader just tries again later. *)
           match R.begin_read r mode with
           | exception E.Error (E.Transient_fault _) -> ()
           | rt -> (
               match R.read rt ~table:"control" ~key:(vi 0) with
               | None -> ()
               | Some row ->
                   let x = Value.as_int row.(1) - 1 in
                   let total = replica_batch_total rt x in
                   incr reports;
                   (match Hashtbl.find_opt seen x with
                   | None -> Hashtbl.add seen x total
                   | Some t0 -> if t0 <> total then incr anomalies))
         in
         Sim.spawn (fun () ->
             while not !stop do
               report `Latest_applied seen_applied anomalies_applied reports_applied;
               report `Latest_safe seen_safe anomalies_safe reports_safe;
               Sim.delay 0.003
             done);
         (* pg_dump-style DEFERRABLE backup on the primary. *)
         Sim.spawn (fun () ->
             Sim.delay 0.05;
             E.with_txn ~read_only:true ~deferrable:true db (fun t ->
                 backup_rows :=
                   List.length (E.seq_scan t ~table:"receipts" ())
                   + List.length (E.seq_scan t ~table:"control" ());
                 assert (E.snapshot_is_safe t)))));
  Format.printf "replica REPORT at latest applied position: %d reports, %d totals changed@."
    !reports_applied !anomalies_applied;
  Format.printf "replica REPORT at safe snapshots:          %d reports, %d totals changed@."
    !reports_safe !anomalies_safe;
  Format.printf "deferrable backup captured %d rows on a safe snapshot@." !backup_rows;
  if !anomalies_safe > 0 then exit 1
