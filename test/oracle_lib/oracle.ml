(* Serializability oracle: runs randomly-generated concurrent histories on
   one table and checks the committed transactions' full multiversion
   serialization graph for cycles (Adya's DSG, paper §3.1).

   Every write stamps the row with the writer's xid, so a reader knows
   exactly which version it saw.  The version order of a key is its
   writers' commit order (write locks guarantee this under snapshot
   isolation).  Edges:

     wr: Ti wrote the version Tj read               -> Ti before Tj
     ww: Ti wrote the version Tj replaced           -> Ti before Tj
     rw: Tj read the version (or absence) that Ti's
         write replaced (or filled)                 -> Tj before Ti

   A cycle means the history is non-serializable.  SSI and S2PL histories
   must always be acyclic; unconstrained snapshot-isolation histories on
   this workload frequently are not, which validates the checker itself. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sim = Ssi_sim.Sim
module Rng = Ssi_util.Rng

let table = "oracle"

type committed = {
  xid : int;
  reads : (int * int) list;  (** key, xid of the version read (0 = absent) *)
  writes : int list;  (** keys written *)
  order : int;  (** commit order index *)
}

type history = { committed : committed list }

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
  }

let contended_cfg =
  { default_cfg with keys = 5; workers = 6; ops_per_txn = 5; write_bias = 0.55 }

let summarizing_cfg = { contended_cfg with max_committed_sxacts = 1 }
let nextkey_cfg = { contended_cfg with next_key_gaps = true }

(* The four configurations every serializable mode is held to, by name. *)
let cfgs =
  [
    ("default", default_cfg);
    ("contended", contended_cfg);
    ("summarizing", summarizing_cfg);
    ("nextkey", nextkey_cfg);
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

(* One transaction body: random point reads, small scans, and writes whose
   stamped value identifies this transaction.  Returns the read/write log.
   [after_op] runs after each engine operation, even one that raised. *)
let txn_body ~after_op rng cfg t =
  let op f = Fun.protect ~finally:after_op f in
  let reads = ref [] and writes = ref [] in
  let me = E.xid t in
  for _ = 1 to cfg.ops_per_txn do
    let k = Rng.int rng cfg.keys in
    let p = Rng.float rng 1.0 in
    if p < cfg.delete_bias then begin
      (* Delete + reinsert a tombstone stamped with this txn: readers can
         always tell which "version" of the key they observed, keeping the
         serialization-graph construction exact. *)
      if op (fun () -> E.delete t ~table ~key:(Value.Int k)) then begin
        (try op (fun () -> E.insert t ~table [| Value.Int k; Value.Int me |])
         with E.Error (E.Unique_violation _) -> ());
        writes := k :: !writes
      end
    end
    else if p < cfg.delete_bias +. cfg.write_bias then begin
      let updated =
        op (fun () ->
            E.update t ~table ~key:(Value.Int k) ~f:(fun row -> [| row.(0); Value.Int me |]))
      in
      let wrote =
        updated
        ||
        (* The key may exist in the latest committed state even though our
           snapshot does not see it; such inserts fail and write nothing. *)
        try
          op (fun () -> E.insert t ~table [| Value.Int k; Value.Int me |]);
          true
        with E.Error (E.Unique_violation _) -> false
      in
      if wrote then writes := k :: !writes
    end
    else if p < cfg.delete_bias +. cfg.write_bias +. cfg.scan_bias then begin
      let hi = min (cfg.keys - 1) (k + 3) in
      let rows =
        op (fun () ->
            E.index_scan t ~table ~index:(table ^ "_pkey") ~lo:(Value.Int k) ~hi:(Value.Int hi))
      in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun row -> Hashtbl.replace seen (Value.as_int row.(0)) (Value.as_int row.(1)))
        rows;
      for key = k to hi do
        let version = match Hashtbl.find_opt seen key with Some w -> w | None -> 0 in
        reads := (key, version) :: !reads
      done
    end
    else begin
      let version =
        match op (fun () -> E.read t ~table ~key:(Value.Int k)) with
        | Some row -> Value.as_int row.(1)
        | None -> 0
      in
      reads := (k, version) :: !reads
    end
  done;
  (List.rev !reads, List.rev !writes)

(* [after_op] runs after every operation the oracle issues, commits and
   aborts included, whether or not the operation raised. *)
let run_history ?(after_op = ignore) ~isolation cfg =
  let log = ref [] in
  let order = ref 0 in
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
         E.create_table db ~name:table ~cols:[ "k"; "writer" ] ~key:"k";
         (* Seed half the keys so updates and inserts both occur. *)
         E.with_txn db (fun t ->
             for k = 0 to (cfg.keys / 2) - 1 do
               E.insert t ~table [| Value.Int k; Value.Int (E.xid t) |]
             done);
         for w = 1 to cfg.workers do
           let rng = Rng.make (Hashtbl.hash (cfg.seed, w)) in
           Sim.spawn (fun () ->
               for _ = 1 to cfg.txns_per_worker do
                 (try
                    let xid = ref 0 and body = ref ([], []) in
                    Fun.protect ~finally:after_op (fun () ->
                        E.with_txn ~isolation db (fun t ->
                            xid := E.xid t;
                            body := txn_body ~after_op rng cfg t));
                    incr order;
                    let reads, writes = !body in
                    log := { xid = !xid; reads; writes; order = !order } :: !log
                  with E.Error (E.Serialization_failure _) -> ());
                 Sim.delay (Rng.float rng 0.0005)
               done)
         done));
  { committed = List.rev !log }

(* ---- Building and checking the serialization graph -------------------------- *)

module Int_map = Map.Make (Int)

type edge_kind = Wr | Ww | Rw

let edge_kind_name = function Wr -> "wr" | Ww -> "ww" | Rw -> "rw"

(* All edges of the DSG, as (from, kind, to). *)
let edges_of { committed } =
  let setup_writer = 1 in
  (* Version order per key: the setup transaction's version (if the key was
     seeded) followed by committed writers in commit order. *)
  let writers_of_key =
    List.fold_left
      (fun acc txn ->
        List.fold_left
          (fun acc k ->
            let existing = try Int_map.find k acc with Not_found -> [] in
            Int_map.add k ((txn.order, txn.xid) :: existing) acc)
          acc
          (List.sort_uniq compare txn.writes))
      Int_map.empty committed
  in
  let version_order k =
    let writers =
      try List.sort compare (Int_map.find k writers_of_key) with Not_found -> []
    in
    List.map snd writers
  in
  let edges = ref [] in
  let add_edge a kind b = if a <> b then edges := (a, kind, b) :: !edges in
  (* ww edges along each key's version order. *)
  Int_map.iter
    (fun _k writers ->
      let ordered = List.map snd (List.sort compare writers) in
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            add_edge a Ww b;
            pairs rest
        | [ _ ] | [] -> ()
      in
      pairs ordered)
    writers_of_key;
  let committed_xids =
    List.fold_left (fun acc t -> Int_map.add t.xid t acc) Int_map.empty committed
  in
  List.iter
    (fun txn ->
      List.iter
        (fun (k, version) ->
          (* wr edge from the writer of the version read (setup and own
             writes excluded). *)
          if version <> 0 && version <> txn.xid && version <> setup_writer
             && Int_map.mem version committed_xids
          then add_edge version Wr txn.xid;
          (* rw edge to the writer of the next version after the one read:
             the first committed writer of [k] whose version the reader did
             not see. *)
          let order = version_order k in
          let rec successor = function
            | [] -> None
            | w :: rest ->
                if version = 0 || version = setup_writer then
                  (* Read absence or the seed version: the first committed
                     writer overwrote what we read. *)
                  Some w
                else if w = version then ( match rest with [] -> None | n :: _ -> Some n)
                else successor rest
          in
          (match successor order with
          | Some w when w <> txn.xid -> add_edge txn.xid Rw w
          | Some _ | None -> ()))
        txn.reads)
    committed;
  List.sort_uniq compare !edges

(* Depth-first cycle search; returns one cycle as a list of nodes. *)
let find_cycle edges =
  let succ = Hashtbl.create 64 in
  List.iter (fun (a, k, b) -> Hashtbl.add succ a (k, b)) edges;
  let color = Hashtbl.create 64 in
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, _, b) -> [ a; b ]) edges) in
  let exception Found of int list in
  let rec dfs path node =
    match Hashtbl.find_opt color node with
    | Some `Done -> ()
    | Some `Active ->
        let rec cut = function
          | [] -> []
          | x :: rest -> if x = node then [ x ] else x :: cut rest
        in
        raise (Found (List.rev (cut path)))
    | None ->
        Hashtbl.replace color node `Active;
        List.iter (fun (_, next) -> dfs (node :: path) next) (Hashtbl.find_all succ node);
        Hashtbl.replace color node `Done
  in
  try
    List.iter (fun n -> dfs [] n) nodes;
    None
  with Found cycle -> Some cycle

let check_serializable history =
  match find_cycle (edges_of history) with
  | None -> Ok ()
  | Some cycle -> Error cycle

(* ---- Replica reads (§7.2) --------------------------------------------------

   A routed read-only transaction served by a replica observes a snapshot
   at some commit-order horizon.  Two checks, both against the primary's
   committed history (whose [order] field must be the commit sequence
   number the horizon counts in):

   - exactness: each key read must return the last committed writer at or
     before the horizon (snapshot semantics of the applied WAL prefix);
   - serializability: the read joins the DSG as a read-only
     pseudo-transaction (negative xid, no writes) and the combined graph
     must stay acyclic — the §7.2 guarantee for safe-snapshot reads. *)

type replica_read = {
  rr_backend : string;  (** routed-to backend name, for diagnostics *)
  rr_horizon : int;  (** snapshot cseq: commits with order <= this are visible *)
  rr_reads : (int * int) list;  (** key, writer xid observed (0 = absent) *)
}

let check_replica_reads ?(initial = []) history rreads =
  let writers_by_key =
    List.fold_left
      (fun acc txn ->
        List.fold_left
          (fun acc k ->
            let existing = try Int_map.find k acc with Not_found -> [] in
            Int_map.add k ((txn.order, txn.xid) :: existing) acc)
          acc
          (List.sort_uniq compare txn.writes))
      Int_map.empty history.committed
  in
  let expected k horizon =
    let writers = try Int_map.find k writers_by_key with Not_found -> [] in
    let visible = List.filter (fun (o, _) -> o <= horizon) writers in
    match List.sort compare visible with
    | [] -> ( match List.assoc_opt k initial with Some w -> w | None -> 0)
    | sorted -> snd (List.nth sorted (List.length sorted - 1))
  in
  let exactness_error =
    List.find_map
      (fun r ->
        List.find_map
          (fun (k, got) ->
            let want = expected k r.rr_horizon in
            if got = want then None
            else
              Some
                (Printf.sprintf
                   "replica read on %s at horizon %d: key %d read version %d, commit order \
                    says %d"
                   r.rr_backend r.rr_horizon k got want))
          r.rr_reads)
      rreads
  in
  match exactness_error with
  | Some e -> Error e
  | None -> (
      (* Negative xids keep pseudo-readers disjoint from real writers;
         [order] does not matter for a transaction with no writes. *)
      let pseudo =
        List.mapi
          (fun i r -> { xid = -(i + 1); reads = r.rr_reads; writes = []; order = r.rr_horizon })
          rreads
      in
      let combined = { committed = history.committed @ pseudo } in
      match find_cycle (edges_of combined) with
      | None -> Ok ()
      | Some cycle ->
          Error
            (Printf.sprintf "combined primary+replica DSG is cyclic: %s"
               (String.concat " -> " (List.map string_of_int cycle))))

let pp_cycle history cycle =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "cycle: %s\n" (String.concat " -> " (List.map string_of_int cycle)));
  let edges = edges_of history in
  List.iter
    (fun (a, k, b) ->
      if List.mem a cycle && List.mem b cycle then
        Buffer.add_string buf (Printf.sprintf "  %d --%s--> %d\n" a (edge_kind_name k) b))
    edges;
  List.iter
    (fun t ->
      if List.mem t.xid cycle then
        Buffer.add_string buf
          (Printf.sprintf "  txn %d (commit #%d) reads=[%s] writes=[%s]\n" t.xid t.order
             (String.concat ";"
                (List.map (fun (k, v) -> Printf.sprintf "%d@%d" k v) t.reads))
             (String.concat ";" (List.map string_of_int t.writes))))
    history.committed;
  Buffer.contents buf

(* ---- Combined multi-shard DSG ---------------------------------------------- *)

(* Splice per-shard commit logs into one global history.  A distributed
   transaction appears once per shard it touched (same global xid, the
   branch's local reads/writes); merging concatenates the footprints and
   keeps the coordinator commit timestamp, which every branch shares and
   which is a linear extension of each shard's per-key write order — so
   the spliced history's version orders are exactly the shards' local
   ones, and [check_serializable] on the result is the combined DSG test
   no single shard could run. *)
let splice_shards shard_histories =
  let merged : (int, committed) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun h ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt merged c.xid with
          | None -> Hashtbl.add merged c.xid c
          | Some prev ->
              Hashtbl.replace merged c.xid
                {
                  xid = c.xid;
                  reads = prev.reads @ c.reads;
                  writes = prev.writes @ c.writes;
                  order = max prev.order c.order;
                })
        h.committed)
    shard_histories;
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) merged [] in
  { committed = List.sort (fun a b -> compare (a.order, a.xid) (b.order, b.xid)) all }
