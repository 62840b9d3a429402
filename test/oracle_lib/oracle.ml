(* Serializability oracle workload: randomly generated concurrent
   histories of point reads, small range scans, updates, inserts and
   deletes on one table.  The engine records each committed transaction
   (Engine.set_recorder) and Ssi_check.Dsg looks for a cycle in the
   history's serialization graph (Adya's DSG, paper §3.1).  SSI, SSN, ESSN
   and S2PL histories must always be acyclic; snapshot-isolation histories
   on this workload almost never are, which validates the checker itself. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng

let table = "oracle"

(* ---- Running random histories --------------------------------------------- *)

type cfg = {
  keys : int;
  workers : int;
  txns_per_worker : int;
  ops_per_txn : int;
  scan_bias : float;  (** probability an op is a small range scan *)
  write_bias : float;  (** probability an op is a write *)
  delete_bias : float;  (** probability an op is a delete *)
  seed : int;
  max_committed_sxacts : int;  (** stress summarization (§6.2) when small *)
  next_key_gaps : bool;  (** next-key index-gap locking (§5.2.1 future work) *)
  certifier : Ssi_core.Certifier.kind;  (** serializability certifier under test *)
  read_only_bias : float;
      (** probability a transaction is declared READ ONLY (then it only
          reads and scans); drawn only when positive, so a cfg with 0
          draws the same stream as before the field existed *)
}

let default_cfg =
  {
    keys = 12;
    workers = 4;
    txns_per_worker = 12;
    ops_per_txn = 4;
    scan_bias = 0.25;
    write_bias = 0.45;
    delete_bias = 0.08;
    seed = 1;
    max_committed_sxacts = 64;
    next_key_gaps = false;
    certifier = Ssi_core.Certifier.SSI;
    read_only_bias = 0.;
  }

let contended_cfg =
  { default_cfg with keys = 5; workers = 6; ops_per_txn = 5; write_bias = 0.55 }

let summarizing_cfg = { contended_cfg with max_committed_sxacts = 1 }
let nextkey_cfg = { contended_cfg with next_key_gaps = true }

(* Declared READ ONLY transactions among contended writers: safe
   snapshots (§4.2), the Theorem 3 read-only rule (§4.1) and ESSN's
   effective stamps only act on these. *)
let readonly_cfg = { contended_cfg with read_only_bias = 0.4; scan_bias = 0.4 }

(* The five configurations every serializable mode is held to, by name. *)
let cfgs =
  [
    ("default", default_cfg);
    ("contended", contended_cfg);
    ("summarizing", summarizing_cfg);
    ("nextkey", nextkey_cfg);
    ("readonly", readonly_cfg);
  ]

(* Every mode whose histories must be acyclic: the three certifiers, and
   strict 2PL as the baseline (which runs no certifier). *)
let serializable_modes =
  Ssi_core.Certifier.
    [
      ("SSI", E.Serializable, SSI);
      ("SSN", E.Serializable, SSN);
      ("ESSN", E.Serializable, ESSN);
      ("S2PL", E.Serializable_2pl, SSI);
    ]

let sim_costs =
  { E.zero_costs with E.cpu_per_op = 80e-6; cpu_per_tuple = 4e-6; io_commit = 40e-6 }

(* One transaction body: random point reads, small scans, updates (an
   insert when the key is not visible) and deletes; a [read_only] one
   scans with [scan_bias] and otherwise reads.  [after_op] runs after
   each engine operation, even one that raised. *)
let txn_body ~after_op ~read_only rng cfg t =
  let op f = Fun.protect ~finally:after_op f in
  for _ = 1 to cfg.ops_per_txn do
    let k = Rng.int rng cfg.keys in
    let key = Value.Int k in
    let p = Rng.float rng 1.0 in
    let scan () =
      let hi = Value.Int (min (cfg.keys - 1) (k + 3)) in
      ignore (op (fun () -> E.index_scan t ~table ~index:(table ^ "_pkey") ~lo:key ~hi))
    and read () = ignore (op (fun () -> E.read t ~table ~key)) in
    if read_only then (if p < cfg.scan_bias then scan () else read ())
    else if p < cfg.delete_bias then ignore (op (fun () -> E.delete t ~table ~key))
    else if p < cfg.delete_bias +. cfg.write_bias then begin
      let bump row = [| row.(0); Value.Int (Value.as_int row.(1) + 1) |] in
      if not (op (fun () -> E.update t ~table ~key ~f:bump)) then
        (* The key may exist in the latest committed state even though our
           snapshot does not see it; such inserts fail and write nothing. *)
        try op (fun () -> E.insert t ~table [| key; Value.Int 0 |])
        with E.Error (E.Unique_violation _) -> ()
    end
    else if p < cfg.delete_bias +. cfg.write_bias +. cfg.scan_bias then scan ()
    else read ()
  done

(* The recorded history of one run, in commit order.  [after_op] runs
   after every operation the oracle issues, commits and aborts included,
   whether or not the operation raised. *)
let run_history ?(after_op = ignore) ~isolation cfg =
  let history = ref [] in
  let config =
    {
      E.default_config with
      E.costs = sim_costs;
      next_key_gaps = cfg.next_key_gaps;
      certifier =
        {
          Ssi_core.Certifier.default_config with
          kind = cfg.certifier;
          max_committed_sxacts = cfg.max_committed_sxacts;
        };
    }
  in
  let db = E.create ~scheduler:Sim.scheduler ~config () in
  let after_op () = after_op db in
  ignore
    (Sim.run (fun () ->
         E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
         (* Seed half the keys so updates and inserts both occur. *)
         E.with_txn db (fun t ->
             for k = 0 to (cfg.keys / 2) - 1 do
               E.insert t ~table [| Value.Int k; Value.Int 0 |]
             done);
         E.set_recorder db (Some (fun entry -> history := entry :: !history));
         for w = 1 to cfg.workers do
           let rng = Rng.make (Hashtbl.hash (cfg.seed, w)) in
           Sim.spawn (fun () ->
               for _ = 1 to cfg.txns_per_worker do
                 let read_only = cfg.read_only_bias > 0. && Rng.float rng 1.0 < cfg.read_only_bias in
                 (try
                    Fun.protect ~finally:after_op (fun () ->
                        E.with_txn ~isolation ~read_only db (fun t ->
                            txn_body ~after_op ~read_only rng cfg t))
                  with E.Error (E.Serialization_failure _) -> ());
                 Sim.delay (Rng.float rng 0.0005)
               done)
         done));
  List.rev !history
