(* The certifier module type admits three serializability certifiers: the
   paper's SSI, and the SSN / ESSN watermark certifiers (pstamp/sstamp
   exclusion windows).  The DSG oracle holds all three to acyclic,
   byte-identically replayed histories in test_serializability; this
   suite holds the other two instances to the rest of SSI's machinery:

   - kill-point recovery torture keeps every durability invariant and the
     combined pre/post-crash history serializable;
   - the Figure 1 write skew is prevented;
   - DEFERRABLE, which depends on SSI's safe-snapshot machinery, is
     cleanly rejected by the watermark certifiers.

   Two checks cover all three certifiers: seeded committed histories are
   pinned to digests recorded before the certifier became a module type,
   so behavior cannot drift across commits; and the per-xid [info]
   lookup agrees with the full [dump_graph] at every engine operation. *)

open Ssi_storage
open Test_oracle
module E = Ssi_engine.Engine
module Certifier = Ssi_core.Certifier
module T = Ssi_fault.Torture

let certifiers = [ (Certifier.SSN, "SSN"); (Certifier.ESSN, "ESSN") ]

(* ---- Kill-point recovery torture ------------------------------------------- *)

let history_of (o : T.outcome) = o.T.o_history

let check_outcome name (o : T.outcome) =
  let tag = Printf.sprintf "%s seed=%d kill=%d: " name o.T.o_seed o.T.o_kill_point in
  Alcotest.(check bool) (tag ^ "durability invariants hold") true (T.invariants_ok o);
  match Ssi_check.Dsg.check [ history_of o ] with
  | Ok () -> ()
  | Error cycle ->
      Alcotest.failf "%scombined history not serializable:\n%s" tag
        (Ssi_check.Dsg.pp_cycle cycle)

let test_torture kind name () =
  let outcomes =
    List.concat_map
      (fun (seed, with_damage) ->
        T.sweep ~certifier:kind ~max_kills:5 ~kill_every:7 ~seed ~with_damage ())
      [ (11, false); (23, true) ]
  in
  List.iter (check_outcome name) outcomes;
  Alcotest.(check bool) (name ^ ": at least one cycle crashed mid-workload") true
    (List.exists (fun o -> o.T.o_crashed) outcomes)

(* ---- Figure 1 write skew ---------------------------------------------------- *)

let db_with kind =
  E.create ~config:{ E.default_config with E.certifier = { Certifier.default_config with kind } } ()

let setup_doctors kind =
  let db = db_with kind in
  E.create_table db ~name:"doctors" ~cols:[ "name"; "oncall" ] ~key:"name";
  E.with_txn db (fun t ->
      E.insert t ~table:"doctors" [| Value.Str "alice"; Value.Bool true |];
      E.insert t ~table:"doctors" [| Value.Str "bob"; Value.Bool true |]);
  db

let oncall_count txn =
  List.length
    (E.seq_scan txn ~table:"doctors" ~filter:(fun row -> Value.as_bool row.(1)) ())

let take_off_call txn name =
  if oncall_count txn >= 2 then
    ignore
      (E.update txn ~table:"doctors" ~key:(Value.Str name) ~f:(fun row ->
           [| row.(0); Value.Bool false |]))

let test_write_skew kind name () =
  let db = setup_doctors kind in
  let t1 = E.begin_txn db in
  let t2 = E.begin_txn db in
  take_off_call t1 "alice";
  take_off_call t2 "bob";
  let o1 = (try E.commit t1; `Committed with E.Error (E.Serialization_failure _) -> `Failed) in
  let o2 = (try E.commit t2; `Committed with E.Error (E.Serialization_failure _) -> `Failed) in
  Alcotest.(check bool) (name ^ ": exactly one transaction fails") true
    ((o1 = `Committed) <> (o2 = `Committed));
  Alcotest.(check int)
    (name ^ ": invariant holds, one doctor on call")
    1
    (E.with_txn db (fun t -> oncall_count t))

(* ---- DEFERRABLE needs SSI's safe snapshots ---------------------------------- *)

let test_deferrable_rejected kind name () =
  let db = db_with kind in
  match E.begin_txn ~read_only:true ~deferrable:true db with
  | exception E.Error (E.Invalid_request _) -> ()
  | _ -> Alcotest.failf "%s: DEFERRABLE accepted without safe-snapshot support" name

let test_kind_reported kind name () =
  let db = db_with kind in
  Alcotest.(check string)
    (name ^ ": engine reports the configured certifier")
    (String.lowercase_ascii name)
    (Certifier.kind_to_string (E.certifier_kind db))

(* ---- Pinned histories ------------------------------------------------------ *)

let render_history (h : Ssi_check.Dsg.history) =
  String.concat "\n"
    (List.map
       (fun (t : Ssi_engine.Recorded.txn) ->
         Format.asprintf "%d@%d r=%a w=%a" t.xid t.cseq
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Ssi_engine.Recorded.pp_read)
           t.reads
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Ssi_engine.Recorded.pp_write)
           t.writes)
       h)

(* Seeds 8 and 14 are ones where ESSN commits a different history from
   SSN under the contended cfgs.  The digests are of the engine-recorded
   histories as [render_history] prints them. *)
let pinned_seeds = [ 1; 8; 14 ]

let pinned =
  [
    (Certifier.SSI, "default", "1fcfe0fc54727845a58c0c3bae5237c5");
    (Certifier.SSI, "contended", "2e72dad9f92738595e5fa0732fd0ca44");
    (Certifier.SSI, "summarizing", "2e72dad9f92738595e5fa0732fd0ca44");
    (Certifier.SSI, "nextkey", "f857040ede48600279450b3bf683fefe");
    (Certifier.SSN, "default", "28f605c99ea978bf65b43278fe0ea5bb");
    (Certifier.SSN, "contended", "508c9063573e733d4fad05f9b6643d07");
    (Certifier.SSN, "summarizing", "508c9063573e733d4fad05f9b6643d07");
    (Certifier.SSN, "nextkey", "04e2d58ddac1dc007843d542c5b15af0");
    (Certifier.ESSN, "default", "28f605c99ea978bf65b43278fe0ea5bb");
    (Certifier.ESSN, "contended", "fd205f64c023f1dd978ecd24039474c0");
    (Certifier.ESSN, "summarizing", "fd205f64c023f1dd978ecd24039474c0");
    (Certifier.ESSN, "nextkey", "6a7f830f976a9bb78d73e3076fc55e2e");
  ]

let test_pinned_histories () =
  List.iter
    (fun (kind, cname, want) ->
      let cfg = List.assoc cname Oracle.cfgs in
      let runs =
        List.map
          (fun seed ->
            render_history
              (Oracle.run_history ~isolation:E.Serializable
                 { cfg with Oracle.seed; certifier = kind }))
          pinned_seeds
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s history digest" (Certifier.kind_to_string kind) cname)
        want
        (Digest.to_hex (Digest.string (String.concat "\n--\n" runs))))
    pinned

(* ---- Per-xid info agrees with the full graph -------------------------------- *)

(* Every xid up to two past the largest tracked one, so untracked xids
   (finished, summarized, or never serializable) are covered too. *)
let check_info db =
  let (Certifier.Cert ((module C), c)) = E.certifier db in
  let graph = C.dump_graph c in
  let top = List.fold_left (fun m i -> max m i.Certifier.info_xid) 0 graph in
  for x = 1 to top + 2 do
    if C.info c x <> List.find_opt (fun i -> i.Certifier.info_xid = x) graph then
      Alcotest.failf "info disagrees with dump_graph for xid %d" x
  done;
  List.length graph

let test_info_matches_graph kind name () =
  List.iter
    (fun (cname, cfg) ->
      let tracked = ref 0 in
      let after_op db = tracked := !tracked + check_info db in
      ignore
        (Oracle.run_history ~after_op ~isolation:E.Serializable
           { cfg with Oracle.seed = 8; certifier = kind });
      Alcotest.(check bool) (Printf.sprintf "%s/%s: graph nonempty" name cname) true (!tracked > 0))
    Oracle.cfgs

let () =
  Alcotest.run "certifier"
    [
      ( "torture",
        List.map
          (fun (k, n) ->
            Alcotest.test_case (n ^ " kill-point sweep") `Quick (test_torture k n))
          certifiers );
      ( "anomalies",
        List.map
          (fun (k, n) ->
            Alcotest.test_case (n ^ " prevents write skew") `Quick (test_write_skew k n))
          ((Certifier.SSI, "SSI") :: certifiers) );
      ( "interface",
        List.map
          (fun (k, n) ->
            Alcotest.test_case (n ^ " rejects DEFERRABLE") `Quick
              (test_deferrable_rejected k n))
          certifiers
        @ List.map
            (fun (k, n) ->
              Alcotest.test_case (n ^ " kind threaded") `Quick (test_kind_reported k n))
            ((Certifier.SSI, "SSI") :: certifiers) );
      ( "pinned",
        Alcotest.test_case "committed histories match recorded digests" `Quick
          test_pinned_histories
        :: List.map
             (fun (k, n) ->
               Alcotest.test_case (n ^ " info equals dump_graph lookup") `Quick
                 (test_info_matches_graph k n))
             ((Certifier.SSI, "SSI") :: certifiers) );
    ]
