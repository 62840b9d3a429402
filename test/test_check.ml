(* The DSG checker (Ssi_check.Dsg) on hand-written recorded histories: the
   point-read, predicate-read (including a scan that saw a delete) and
   gid-join edge rules, snapshot exactness,
   and a 20,000-commit history with one planted cycle, which the checker
   must find in bounded time. *)

open Ssi_storage
module Rec = Ssi_engine.Recorded
module Dsg = Ssi_check.Dsg

let rel = "t"
let pkey = "t_pkey"
let by_v = "t_v"
let vi i = Value.Int i

let read ?version ~horizon k = Rec.Point { rel; key = vi k; version; horizon }
let scan ?(index = pkey) ?(own = []) ~horizon lo hi =
  Rec.Scan { rel; range = Some (index, vi lo, vi hi); horizon; own = List.map vi own }

let write ?(old_v = None) ?(new_v = None) k =
  let keys v = (pkey, vi k) :: (match v with Some v -> [ (by_v, vi v) ] | None -> []) in
  {
    Rec.rel;
    key = vi k;
    old_keys = (match old_v with Some _ -> keys old_v | None -> []);
    new_keys = keys new_v;
  }

let txn ?gid ~xid ~cseq ?(reads = []) ?(writes = []) () = { Rec.xid; gid; cseq; reads; writes }

let cyclic h = Result.is_error (Dsg.check [ h ])

let test_write_skew () =
  (* Both read the other's key in the seed version and write their own. *)
  let h =
    [
      txn ~xid:2 ~cseq:1 ~reads:[ read ~version:1 ~horizon:1 20 ] ~writes:[ write 10 ] ();
      txn ~xid:3 ~cseq:2 ~reads:[ read ~version:1 ~horizon:1 10 ] ~writes:[ write 20 ] ();
    ]
  in
  Alcotest.(check bool) "write skew is a cycle" true (cyclic h);
  (* The second reader saw the first's write: serializable. *)
  let h' =
    [
      txn ~xid:2 ~cseq:1 ~reads:[ read ~version:1 ~horizon:1 20 ] ~writes:[ write 10 ] ();
      txn ~xid:3 ~cseq:2 ~reads:[ read ~version:2 ~horizon:2 10 ] ~writes:[ write 20 ] ();
    ]
  in
  Alcotest.(check bool) "wr instead of rw" false (cyclic h')

let test_absent_read () =
  (* An absent read anti-depends on the first insert its snapshot missed. *)
  let h =
    [
      txn ~xid:2 ~cseq:1 ~reads:[ read ~horizon:1 5 ] ~writes:[ write 6 ] ();
      txn ~xid:3 ~cseq:2 ~reads:[ read ~horizon:1 6 ] ~writes:[ write 5 ] ();
    ]
  in
  Alcotest.(check bool) "mutual phantoms are a cycle" true (cyclic h)

let test_predicate_reads () =
  (* Each scans a range the other inserts into: a phantom cycle. *)
  let h ~hi2 =
    [
      txn ~xid:2 ~cseq:1 ~reads:[ scan ~horizon:1 0 9 ] ~writes:[ write 15 ] ();
      txn ~xid:3 ~cseq:2 ~reads:[ scan ~horizon:1 10 hi2 ] ~writes:[ write 5 ] ();
    ]
  in
  Alcotest.(check bool) "phantom inserts are a cycle" true (cyclic (h ~hi2:19));
  Alcotest.(check bool) "disjoint ranges are not" false (cyclic (h ~hi2:14));
  (* Its own writes a scan reads in its own version: no edge. *)
  let own =
    [
      txn ~xid:2 ~cseq:1 ~writes:[ write 5 ] ();
      txn ~xid:3 ~cseq:2 ~reads:[ scan ~own:[ 5 ] ~horizon:1 0 9 ] ~writes:[ write 5 ] ();
    ]
  in
  Alcotest.(check bool) "own version" false (cyclic own)

let test_secondary_index_moves () =
  (* Row 7 moves from v=50 into the scanned v range [0, 9] by the second
     transaction, which also read the first's write as its seed version. *)
  let h =
    [
      txn ~xid:2 ~cseq:1 ~reads:[ scan ~index:by_v ~horizon:1 0 9 ] ~writes:[ write 30 ] ();
      txn ~xid:3 ~cseq:2
        ~reads:[ read ~version:1 ~horizon:1 30 ]
        ~writes:[ write ~old_v:(Some 50) ~new_v:(Some 5) 7 ]
        ();
    ]
  in
  Alcotest.(check bool) "a write moving a row into the range" true (cyclic h);
  let outside =
    [
      txn ~xid:2 ~cseq:1 ~reads:[ scan ~index:by_v ~horizon:1 0 9 ] ~writes:[ write 30 ] ();
      txn ~xid:3 ~cseq:2
        ~reads:[ read ~version:1 ~horizon:1 30 ]
        ~writes:[ write ~old_v:(Some 50) ~new_v:(Some 60) 7 ]
        ();
    ]
  in
  Alcotest.(check bool) "a write outside the range" false (cyclic outside)

(* R reads row 1 and overwrites row 2; D deletes row 1 (whose v was 50)
   and commits before Q starts; Q scans a range that held row 1, finding
   it deleted, and reads row 2's old version.  Q saw D's delete (wr), so
   R -rw-> D -wr-> Q -rw-> R is a cycle whenever the deleted row was in
   Q's range. *)
let test_scan_sees_delete () =
  let delete ~old_v k = { (write ~old_v:(Some old_v) k) with Rec.new_keys = [] } in
  let h q_scan =
    [
      txn ~xid:2 ~cseq:1 ~writes:[ write ~new_v:(Some 50) 1; write 2 ] ();
      txn ~xid:4 ~cseq:2 ~writes:[ delete ~old_v:50 1 ] ();
      txn ~xid:3 ~cseq:3 ~reads:[ read ~version:2 ~horizon:2 1 ] ~writes:[ write 2 ] ();
      txn ~xid:5 ~cseq:4 ~reads:[ q_scan; read ~version:2 ~horizon:3 2 ] ();
    ]
  in
  Alcotest.(check bool) "a key range over the deleted row" true (cyclic (h (scan ~horizon:3 0 1)));
  Alcotest.(check bool) "an index range over its old key" true
    (cyclic (h (scan ~index:by_v ~horizon:3 40 60)));
  Alcotest.(check bool) "a sequential scan" true
    (cyclic (h (Rec.Scan { rel; range = None; horizon = 3; own = [] })));
  Alcotest.(check bool) "a range the row was never in" false
    (cyclic (h (scan ~index:by_v ~horizon:3 0 9)))

let test_stale_read () =
  let h ~version =
    [
      txn ~xid:2 ~cseq:1 ~writes:[ write 1 ] ();
      txn ~xid:3 ~cseq:2 ~reads:[ read ?version ~horizon:2 1 ] ();
    ]
  in
  Alcotest.(check bool) "the committed version" true (Dsg.stale_read [ h ~version:(Some 2) ] = None);
  Alcotest.(check bool) "the seed version" true (Dsg.stale_read [ h ~version:(Some 1) ] <> None);
  Alcotest.(check bool) "absent" true (Dsg.stale_read [ h ~version:None ] <> None)

(* A long serializable history: commit i writes key (i mod 1000) and
   reads the previous commit's key at the latest snapshot; every tenth
   also scans 50 keys.  [plant] adds one write-skew pair in the middle. *)
let synthetic ~commits ~plant =
  let key i = i mod 1000 in
  let body =
    List.init commits (fun i ->
        let cseq = i + 1 and xid = i + 2 in
        let reads =
          (if i > 0 then [ read ~version:(xid - 1) ~horizon:cseq (key (i - 1)) ] else [])
          @ if i mod 10 = 0 then [ scan ~horizon:cseq (key i) (key i + 49) ] else []
        in
        txn ~xid ~cseq ~reads ~writes:[ write (key i) ] ())
  in
  if not plant then body
  else
    body
    @ [
        txn ~xid:(commits + 10) ~cseq:(commits + 1)
          ~reads:[ read ~version:1 ~horizon:(commits + 1) 5000 ]
          ~writes:[ write 5001 ] ();
        txn ~xid:(commits + 11) ~cseq:(commits + 2)
          ~reads:[ read ~version:1 ~horizon:(commits + 1) 5001 ]
          ~writes:[ write 5000 ] ();
      ]

let test_scale () =
  let t0 = Sys.time () in
  Alcotest.(check bool) "20,000 commits, acyclic" false
    (cyclic (synthetic ~commits:20_000 ~plant:false));
  (match Dsg.check [ synthetic ~commits:20_000 ~plant:true ] with
  | Ok () -> Alcotest.fail "the planted cycle was missed"
  | Error c ->
      Alcotest.(check (list string)) "the planted pair" [ "20010"; "20011" ]
        (List.sort compare (Dsg.cycle_nodes c)));
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "bounded time (%.2f s of CPU)" dt) true (dt < 10.)

let () =
  Alcotest.run "check"
    [
      ( "dsg",
        [
          Alcotest.test_case "write skew" `Quick test_write_skew;
          Alcotest.test_case "absent reads" `Quick test_absent_read;
          Alcotest.test_case "predicate reads" `Quick test_predicate_reads;
          Alcotest.test_case "secondary index moves" `Quick test_secondary_index_moves;
          Alcotest.test_case "a scan sees a delete" `Quick test_scan_sees_delete;
          Alcotest.test_case "stale reads" `Quick test_stale_read;
          Alcotest.test_case "20,000 commits, one planted cycle" `Quick test_scale;
        ] );
    ]
