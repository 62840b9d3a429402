(* Cross-cutting consistency properties: a model-based property test of
   the engine's single-transaction semantics, primary/replica equivalence
   under random concurrent load, vacuum versus old snapshots, and the
   savepoint/WAL interplay. *)

open Ssi_storage
module E = Ssi_engine.Engine
module R = Ssi_replication.Replica
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng

let vi i = Value.Int i

(* ---- Model-based property: committed sequential semantics ------------------- *)

(* Random sequences of transactions, each a batch of operations, executed
   sequentially (no concurrency): the database must behave exactly like a
   map, including rolled-back transactions leaving no trace. *)

type mop = MIns of int * int | MUp of int * int | MDel of int | MAbort

let mop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> MIns (k, v)) (int_range 0 20) (int_range 0 99));
        (4, map2 (fun k v -> MUp (k, v)) (int_range 0 20) (int_range 0 99));
        (2, map (fun k -> MDel k) (int_range 0 20));
        (1, return MAbort);
      ])

let print_mop = function
  | MIns (k, v) -> Printf.sprintf "Ins(%d,%d)" k v
  | MUp (k, v) -> Printf.sprintf "Up(%d,%d)" k v
  | MDel k -> Printf.sprintf "Del(%d)" k
  | MAbort -> "Abort"

let txns_arb =
  QCheck.make
    ~print:QCheck.Print.(list (list print_mop))
    QCheck.Gen.(list_size (int_range 0 20) (list_size (int_range 0 6) mop_gen))

exception Rollback

let prop_sequential_model isolation =
  QCheck.Test.make
    ~name:
      (Format.asprintf "sequential transactions behave like a map (%a)" E.pp_isolation
         isolation)
    ~count:60 txns_arb
    (fun txns ->
      let db = E.create () in
      E.create_table db ~name:"m" ~cols:[ "k"; "v" ] ~key:"k";
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun ops ->
          let staged = Hashtbl.copy model in
          try
            E.with_txn ~isolation db (fun t ->
                List.iter
                  (fun op ->
                    match op with
                    | MIns (k, v) -> (
                        try
                          E.insert t ~table:"m" [| vi k; vi v |];
                          Hashtbl.replace staged k v
                        with E.Error (E.Unique_violation _) -> assert (Hashtbl.mem staged k))
                    | MUp (k, v) ->
                        let updated =
                          E.update t ~table:"m" ~key:(vi k) ~f:(fun row -> [| row.(0); vi v |])
                        in
                        assert (updated = Hashtbl.mem staged k);
                        if updated then Hashtbl.replace staged k v
                    | MDel k ->
                        let deleted = E.delete t ~table:"m" ~key:(vi k) in
                        assert (deleted = Hashtbl.mem staged k);
                        if deleted then Hashtbl.remove staged k
                    | MAbort -> raise Rollback)
                  ops);
            Hashtbl.reset model;
            Hashtbl.iter (Hashtbl.replace model) staged
          with Rollback -> ())
        txns;
      (* Final state equals the model, via point reads and a scan. *)
      E.with_txn db (fun t ->
          let rows = E.seq_scan t ~table:"m" () in
          List.length rows = Hashtbl.length model
          && List.for_all
               (fun row ->
                 match Hashtbl.find_opt model (Value.as_int row.(0)) with
                 | Some v -> v = Value.as_int row.(1)
                 | None -> false)
               rows
          && Hashtbl.fold
               (fun k v acc ->
                 acc
                 &&
                 match E.read t ~table:"m" ~key:(vi k) with
                 | Some row -> Value.as_int row.(1) = v
                 | None -> false)
               model true))

(* ---- Primary / replica equivalence under concurrent load ---------------------- *)

let test_replica_equivalence () =
  let final_primary = ref [] in
  let final_replica = ref [] in
  ignore
    (Sim.run (fun () ->
         let config =
           {
             E.default_config with
             E.costs = { E.zero_costs with E.cpu_per_op = 50e-6; cpu_per_tuple = 2e-6 };
           }
         in
         let db = E.create ~scheduler:Sim.scheduler ~config () in
         E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
         let replica = R.attach db in
         E.with_txn db (fun t ->
             for k = 0 to 9 do
               E.insert t ~table:"kv" [| vi k; vi 0 |]
             done);
         for w = 1 to 4 do
           let rng = Rng.make w in
           Sim.spawn (fun () ->
               for _ = 1 to 40 do
                 (try
                    E.retry ~max_attempts:5 db (fun t ->
                        let k = Rng.int rng 15 in
                        let p = Rng.float rng 1.0 in
                        if p < 0.5 then
                          ignore
                            (E.update t ~table:"kv" ~key:(vi k) ~f:(fun row ->
                                 [| row.(0); vi (Rng.int rng 1000) |]))
                        else if p < 0.75 then ignore (E.delete t ~table:"kv" ~key:(vi k))
                        else
                          try E.insert t ~table:"kv" [| vi k; vi (Rng.int rng 1000) |]
                          with E.Error (E.Unique_violation _) -> ())
                  with E.Error (E.Serialization_failure _) -> ());
                 Sim.delay 0.001
               done);
           Sim.spawn (fun () ->
               Sim.delay 0.5;
               let rows t =
                 List.sort compare
                   (List.map
                      (fun r -> (Value.as_int r.(0), Value.as_int r.(1)))
                      (E.seq_scan t ~table:"kv" ()))
               in
               final_primary := E.with_txn db (fun t -> rows t);
               final_replica :=
                 List.sort compare
                   (List.map
                      (fun r -> (Value.as_int r.(0), Value.as_int r.(1)))
                      (E.seq_scan (R.begin_read replica `Latest_applied) ~table:"kv" ())))
         done));
  Alcotest.(check bool) "primary and replica converge to the same state" true
    (!final_primary = !final_replica && !final_primary <> [])

(* ---- Vacuum versus old snapshots ------------------------------------------------ *)

let test_vacuum_respects_old_snapshots () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  E.with_txn db (fun t -> E.insert t ~table:"kv" [| vi 1; vi 100 |]);
  let old_reader = E.begin_txn ~isolation:E.Repeatable_read db in
  ignore (E.read old_reader ~table:"kv" ~key:(vi 1));
  for i = 1 to 5 do
    E.with_txn db (fun t ->
        ignore (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vi (100 + i) |])))
  done;
  E.vacuum db;
  (match E.read old_reader ~table:"kv" ~key:(vi 1) with
  | Some row -> Alcotest.(check int) "old snapshot still sees its version" 100
      (Value.as_int row.(1))
  | None -> Alcotest.fail "vacuum removed a version visible to a live snapshot");
  E.commit old_reader;
  E.vacuum db;
  E.with_txn db (fun t ->
      match E.read t ~table:"kv" ~key:(vi 1) with
      | Some row -> Alcotest.(check int) "latest survives full vacuum" 105 (Value.as_int row.(1))
      | None -> Alcotest.fail "latest version lost")

(* ---- Savepoints and the WAL stream ----------------------------------------------- *)

let test_savepoint_rollback_not_replicated () =
  let db = E.create () in
  E.create_table db ~name:"kv" ~cols:[ "k"; "v" ] ~key:"k";
  let replica = R.attach db in
  E.with_txn db (fun t ->
      E.insert t ~table:"kv" [| vi 1; vi 1 |];
      E.savepoint t "sp";
      E.insert t ~table:"kv" [| vi 2; vi 2 |];
      ignore (E.update t ~table:"kv" ~key:(vi 1) ~f:(fun row -> [| row.(0); vi 99 |]));
      E.rollback_to_savepoint t "sp";
      E.insert t ~table:"kv" [| vi 3; vi 3 |]);
  let rt = R.begin_read replica `Latest_applied in
  Alcotest.(check bool) "kept insert shipped" true (E.read rt ~table:"kv" ~key:(vi 1) <> None);
  Alcotest.(check bool) "rolled-back insert not shipped" true
    (E.read rt ~table:"kv" ~key:(vi 2) = None);
  Alcotest.(check bool) "post-savepoint insert shipped" true
    (E.read rt ~table:"kv" ~key:(vi 3) <> None);
  match E.read rt ~table:"kv" ~key:(vi 1) with
  | Some row ->
      Alcotest.(check int) "rolled-back update not shipped" 1 (Value.as_int row.(1))
  | None -> Alcotest.fail "row missing"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "consistency"
    [
      qsuite "model"
        [
          prop_sequential_model E.Serializable;
          prop_sequential_model E.Repeatable_read;
          prop_sequential_model E.Read_committed;
          prop_sequential_model E.Serializable_2pl;
        ];
      ( "integration",
        [
          Alcotest.test_case "primary/replica equivalence" `Quick test_replica_equivalence;
          Alcotest.test_case "vacuum respects old snapshots" `Quick
            test_vacuum_respects_old_snapshots;
          Alcotest.test_case "savepoint rollback not replicated" `Quick
            test_savepoint_rollback_not_replicated;
        ] );
    ]
