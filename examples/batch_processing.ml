(* The paper's Figure 2: the batch-processing anomaly, and how SSI,
   safe snapshots and DEFERRABLE transactions deal with it.

     dune exec examples/batch_processing.exe

   Three transaction types run concurrently:
     NEW-RECEIPT  — insert a receipt tagged with the current batch number
     CLOSE-BATCH  — increment the batch number
     REPORT       — read the batch number, then total the previous batch

   Invariant: once a REPORT has shown a batch's total, that total never
   changes.  Under snapshot isolation the Figure 2 interleaving breaks it;
   under SERIALIZABLE it cannot.  The REPORT is also run as a DEFERRABLE
   transaction, which waits for a safe snapshot and then runs with no SSI
   overhead or abort risk (§4.3). *)

open Ssi_storage
module E = Ssi_engine.Engine
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

let current_batch t =
  match E.read t ~table:"control" ~key:(vi 0) with
  | Some row -> Value.as_int row.(1)
  | None -> assert false

let batch_total t x =
  List.fold_left
    (fun acc row -> acc + Value.as_int row.(2))
    0
    (E.index_scan t ~table:"receipts" ~index:"receipts_batch" ~lo:(vi x) ~hi:(vi x))

let run ~isolation ~deferrable_reports =
  let db = E.create ~scheduler:Sim.scheduler ~config:sim_config () in
  let rid = ref 0 in
  let reported : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let broken = ref 0 in
  let reports = ref 0 in
  ignore
    (Sim.run (fun () ->
         setup db;
         let stop = ref false in
         (* NEW-RECEIPT workers. *)
         for i = 1 to 3 do
           let rng = Rng.make i in
           Sim.spawn (fun () ->
               while not !stop do
                 (try
                    E.retry ~isolation db (fun t ->
                        let x = current_batch t in
                        (* Client think time between reading the batch number
                           and inserting the receipt: the window in which
                           Figure 2's CLOSE-BATCH and REPORT slip in. *)
                        Sim.delay 0.005;
                        incr rid;
                        E.insert t ~table:"receipts"
                          [| vi !rid; vi x; vi (1 + Rng.int rng 100) |])
                  with E.Error (E.Serialization_failure _) -> ());
                 Sim.delay 0.002
               done)
         done;
         (* CLOSE-BATCH, once per tick. *)
         Sim.spawn (fun () ->
             for _ = 1 to 30 do
               (try
                  E.retry ~isolation db (fun t ->
                      ignore
                        (E.update t ~table:"control" ~key:(vi 0) ~f:(fun row ->
                             [| row.(0); vi (Value.as_int row.(1) + 1) |])))
                with E.Error (E.Serialization_failure _) -> ());
               Sim.delay 0.01
             done;
             stop := true);
         (* REPORT: remembers each batch total the first time it is shown
            and flags any batch whose total later changes. *)
         Sim.spawn (fun () ->
             while not !stop do
               (try
                  E.retry ~isolation ~read_only:true
                    ~deferrable:(deferrable_reports && isolation = E.Serializable) db
                    (fun t ->
                      let x = current_batch t in
                      let total = batch_total t (x - 1) in
                      incr reports;
                      match Hashtbl.find_opt reported (x - 1) with
                      | None -> Hashtbl.add reported (x - 1) total
                      | Some seen -> if seen <> total then incr broken)
                  with E.Error (E.Serialization_failure _) -> ());
               Sim.delay 0.004
             done)));
  (!reports, !broken)

let () =
  Format.printf "Batch processing (Figure 2): 3 receipt writers, 30 batch closes@.";
  let reports, broken = run ~isolation:E.Repeatable_read ~deferrable_reports:false in
  Format.printf "snapshot isolation:       %3d reports, %d reported totals changed@."
    reports broken;
  let reports, broken = run ~isolation:E.Serializable ~deferrable_reports:false in
  Format.printf "SSI serializable:         %3d reports, %d reported totals changed@."
    reports broken;
  let reports, broken = run ~isolation:E.Serializable ~deferrable_reports:true in
  Format.printf "SSI + DEFERRABLE reports: %3d reports, %d reported totals changed@."
    reports broken
