(* Quickstart: the engine's public API in five minutes.

     dune exec examples/quickstart.exe

   Creates a small bank database, shows reads/writes/scans, isolation
   levels, serialization failures and the retry helper. *)

open Ssi_storage
module E = Ssi_engine.Engine

let money i = Value.Int i
let name s = Value.Str s

let () =
  (* An engine is an in-memory multiversion database.  The default
     isolation level is SERIALIZABLE (SSI), like PostgreSQL 9.1 with
     default_transaction_isolation = 'serializable'. *)
  let db = E.create () in

  (* ---- Schema ---- *)
  E.create_table db ~name:"accounts" ~cols:[ "owner"; "balance" ] ~key:"owner";
  E.create_index db ~table:"accounts" ~name:"accounts_balance" ~column:"balance" ();

  (* ---- Basic transactions ---- *)
  E.with_txn db (fun t ->
      E.insert t ~table:"accounts" [| name "alice"; money 100 |];
      E.insert t ~table:"accounts" [| name "bob"; money 50 |];
      E.insert t ~table:"accounts" [| name "carol"; money 250 |]);

  E.with_txn db (fun t ->
      match E.read t ~table:"accounts" ~key:(name "alice") with
      | Some row -> Format.printf "alice has %a@." Value.pp row.(1)
      | None -> assert false);

  (* Transfers are read-modify-write transactions; [E.retry] re-runs them
     automatically on serialization failures, the way the paper assumes a
     middleware layer does (§3). *)
  let transfer from_acct to_acct amount =
    E.retry db (fun t ->
        let debit ok acct delta =
          ok
          && E.update t ~table:"accounts" ~key:(name acct) ~f:(fun row ->
                 [| row.(0); money (Value.as_int row.(1) + delta) |])
        in
        if not (debit (debit true from_acct (-amount)) to_acct amount) then
          failwith "missing account")
  in
  transfer "carol" "bob" 75;

  (* ---- Scans ---- *)
  E.with_txn ~read_only:true db (fun t ->
      let rich =
        E.index_scan t ~table:"accounts" ~index:"accounts_balance" ~lo:(money 100)
          ~hi:(money 10_000)
      in
      Format.printf "accounts with at least 100:@.";
      List.iter
        (fun row -> Format.printf "  %a: %a@." Value.pp row.(0) Value.pp row.(1))
        rich);

  (* ---- Serializability in action ---- *)
  (* Two concurrent transactions each check the total and then withdraw:
     under snapshot isolation both would pass the check (write skew);
     under SERIALIZABLE one is aborted with a serialization failure. *)
  let audit_and_withdraw t who =
    let total =
      List.fold_left
        (fun acc row -> acc + Value.as_int row.(1))
        0
        (E.seq_scan t ~table:"accounts" ())
    in
    if total >= 400 then
      ignore
        (E.update t ~table:"accounts" ~key:(name who) ~f:(fun row ->
             [| row.(0); money (Value.as_int row.(1) - 100) |]))
  in
  let t1 = E.begin_txn db in
  let t2 = E.begin_txn db in
  audit_and_withdraw t1 "alice";
  audit_and_withdraw t2 "carol";
  (try
     E.commit t1;
     Format.printf "t1 committed@."
   with E.Error (E.Serialization_failure { reason; _ }) ->
     Format.printf "t1 aborted: %s@." reason);
  (try
     E.commit t2;
     Format.printf "t2 committed@."
   with E.Error (E.Serialization_failure { reason; _ }) ->
     Format.printf "t2 aborted: %s@." reason);

  (* ---- Savepoints ---- *)
  E.with_txn db (fun t ->
      E.savepoint t "before_bonus";
      ignore
        (E.update t ~table:"accounts" ~key:(name "bob") ~f:(fun row ->
             [| row.(0); money 1_000_000 |]));
      E.rollback_to_savepoint t "before_bonus" (* bob's bonus is cancelled *));

  E.with_txn ~read_only:true db (fun t ->
      Format.printf "final balances:@.";
      List.iter
        (fun row -> Format.printf "  %a: %a@." Value.pp row.(0) Value.pp row.(1))
        (List.sort compare (E.seq_scan t ~table:"accounts" ())));

  let obs = E.obs db in
  Format.printf "commits=%d aborts=%d@."
    (Ssi_obs.Obs.get_counter obs "engine.commits")
    (Ssi_obs.Obs.get_counter obs "engine.aborts")
