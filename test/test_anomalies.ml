(* The paper's two motivating anomalies (§2.1): simple write skew
   (Figure 1) and the three-transaction batch-processing anomaly
   (Figure 2).  Each is shown to occur under snapshot isolation
   (REPEATABLE READ) and to be prevented under SERIALIZABLE. *)

open Ssi_storage
module E = Ssi_engine.Engine

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_bool b = Value.Bool b

(* ---- Example 1: doctors on call (Figure 1) ------------------------------- *)

let setup_doctors () =
  let db = E.create () in
  E.create_table db ~name:"doctors" ~cols:[ "name"; "oncall" ] ~key:"name";
  E.with_txn db (fun t ->
      E.insert t ~table:"doctors" [| v_str "alice"; v_bool true |];
      E.insert t ~table:"doctors" [| v_str "bob"; v_bool true |]);
  db

let oncall_count txn =
  List.length
    (E.seq_scan txn ~table:"doctors" ~filter:(fun row -> Value.as_bool row.(1)) ())

let take_off_call txn name =
  let x = oncall_count txn in
  if x >= 2 then
    ignore (E.update txn ~table:"doctors" ~key:(v_str name) ~f:(fun row ->
        [| row.(0); v_bool false |]))

(* The Figure 1 interleaving: both transactions read, then both write, then
   both try to commit. *)
let run_write_skew isolation =
  let db = setup_doctors () in
  let t1 = E.begin_txn ~isolation db in
  let t2 = E.begin_txn ~isolation db in
  take_off_call t1 "alice";
  take_off_call t2 "bob";
  let outcome1 = (try E.commit t1; `Committed with E.Error (E.Serialization_failure _) -> `Failed) in
  let outcome2 = (try E.commit t2; `Committed with E.Error (E.Serialization_failure _) -> `Failed) in
  let remaining = E.with_txn db (fun t -> oncall_count t) in
  (outcome1, outcome2, remaining)

let test_write_skew_under_si () =
  let o1, o2, remaining = run_write_skew E.Repeatable_read in
  Alcotest.(check bool) "T1 commits" true (o1 = `Committed);
  Alcotest.(check bool) "T2 commits" true (o2 = `Committed);
  Alcotest.(check int) "invariant violated: nobody on call" 0 remaining

let test_write_skew_under_ssi () =
  let o1, o2, remaining = run_write_skew E.Serializable in
  Alcotest.(check bool) "exactly one transaction fails" true
    ((o1 = `Committed) <> (o2 = `Committed));
  Alcotest.(check int) "invariant holds: one doctor on call" 1 remaining

let test_write_skew_retry_succeeds () =
  (* With the middleware retry loop of §5.4, both logical transactions
     eventually complete and the invariant holds. *)
  let db = setup_doctors () in
  let t1 = E.begin_txn ~isolation:E.Serializable db in
  let t2 = E.begin_txn ~isolation:E.Serializable db in
  take_off_call t1 "alice";
  take_off_call t2 "bob";
  let retry_done name t =
    try
      E.commit t;
      true
    with E.Error (E.Serialization_failure _) ->
      E.retry db (fun t -> take_off_call t name);
      true
  in
  ignore (retry_done "alice" t1);
  ignore (retry_done "bob" t2);
  let remaining = E.with_txn db (fun t -> oncall_count t) in
  Alcotest.(check int) "at least one doctor remains on call" 1 remaining

(* ---- Example 2: batch processing (Figure 2) ------------------------------- *)

let setup_batch () =
  let db = E.create () in
  E.create_table db ~name:"control" ~cols:[ "id"; "batch" ] ~key:"id";
  E.create_table db ~name:"receipts" ~cols:[ "rid"; "batch"; "amount" ] ~key:"rid";
  E.create_index db ~table:"receipts" ~name:"receipts_batch" ~column:"batch" ();
  E.with_txn db (fun t ->
      E.insert t ~table:"control" [| v_int 0; v_int 1 |];
      E.insert t ~table:"receipts" [| v_int 100; v_int 1; v_int 10 |]);
  db

let current_batch txn =
  match E.read txn ~table:"control" ~key:(v_int 0) with
  | Some row -> Value.as_int row.(1)
  | None -> failwith "no control row"

let report txn =
  let x = current_batch txn in
  let rows =
    E.index_scan txn ~table:"receipts" ~index:"receipts_batch" ~lo:(v_int (x - 1))
      ~hi:(v_int (x - 1))
  in
  (x, List.fold_left (fun acc row -> acc + Value.as_int row.(2)) 0 rows)

let close_batch txn =
  ignore (E.update txn ~table:"control" ~key:(v_int 0) ~f:(fun row ->
      [| row.(0); v_int (Value.as_int row.(1) + 1) |]))

(* The Figure 2 interleaving: T2 (NEW-RECEIPT) reads the batch number; T3
   (CLOSE-BATCH) increments it and commits; T1 (REPORT) reads the report
   for the closed batch and commits; then T2 commits its receipt into the
   closed batch — invalidating the already-reported total. *)
let run_batch_anomaly isolation =
  let db = setup_batch () in
  let t2 = E.begin_txn ~isolation db in
  let x2 = current_batch t2 in
  let t3 = E.begin_txn ~isolation db in
  close_batch t3;
  E.commit t3;
  let t1 = E.begin_txn ~isolation db in
  let outcome =
    try
      let _, total_before = report t1 in
      E.commit t1;
      E.insert t2 ~table:"receipts" [| v_int 101; v_int x2; v_int 25 |];
      E.commit t2;
      let total_after =
        E.with_txn db (fun t ->
            let rows =
              E.index_scan t ~table:"receipts" ~index:"receipts_batch" ~lo:(v_int x2)
                ~hi:(v_int x2)
            in
            List.fold_left (fun acc row -> acc + Value.as_int row.(2)) 0 rows)
      in
      if total_after <> total_before then `Anomaly else `Serializable
    with E.Error (E.Serialization_failure _) -> `Prevented
  in
  outcome

let test_batch_anomaly_under_si () =
  Alcotest.(check bool) "anomaly occurs under snapshot isolation" true
    (run_batch_anomaly E.Repeatable_read = `Anomaly)

let test_batch_anomaly_under_ssi () =
  Alcotest.(check bool) "anomaly prevented under SSI" true
    (run_batch_anomaly E.Serializable = `Prevented)

(* Without the read-only REPORT transaction the history is serializable
   (order T2, T3) and SSI must allow it (§3.3: S2PL/OCC would not). *)
let test_batch_without_report_allowed () =
  let db = setup_batch () in
  let t2 = E.begin_txn ~isolation:E.Serializable db in
  let x2 = current_batch t2 in
  let t3 = E.begin_txn ~isolation:E.Serializable db in
  close_batch t3;
  E.commit t3;
  E.insert t2 ~table:"receipts" [| v_int 101; v_int x2; v_int 25 |];
  E.commit t2;
  Alcotest.(check pass) "both committed" () ()

let () =
  Alcotest.run "anomalies"
    [
      ( "write-skew (Figure 1)",
        [
          Alcotest.test_case "occurs under snapshot isolation" `Quick test_write_skew_under_si;
          Alcotest.test_case "prevented under SSI" `Quick test_write_skew_under_ssi;
          Alcotest.test_case "safe retry completes" `Quick test_write_skew_retry_succeeds;
        ] );
      ( "batch processing (Figure 2)",
        [
          Alcotest.test_case "occurs under snapshot isolation" `Quick test_batch_anomaly_under_si;
          Alcotest.test_case "prevented under SSI" `Quick test_batch_anomaly_under_ssi;
          Alcotest.test_case "allowed without read-only T1" `Quick
            test_batch_without_report_allowed;
        ] );
    ]
