(* The durable log and cold-start recovery: record framing and CRC
   truncation, group commit under the simulator, and [Engine.recover]
   rebuilding state — including prepared two-phase transactions — from the
   log alone. *)

open Ssi_storage
module Wal = Ssi_wal.Wal
module E = Ssi_engine.Engine
module Predlock = Ssi_core.Predlock
module Sim = Ssi_sim.Sim
module Obs = Ssi_obs.Obs

(* ---- Record framing ------------------------------------------------------ *)

let sample_prepared =
  {
    Wal.p_xid = 7;
    p_gid = "gid-7";
    p_snap_cseq = 3;
    p_ops =
      [
        Wal.Insert { table = "t"; key = Value.Int 1; row = [| Value.Int 1; Value.Str "a" |] };
        Wal.Update { table = "t"; key = Value.Int 1; row = [| Value.Int 1; Value.Null |] };
        Wal.Delete { table = "t"; key = Value.Int 2 };
      ];
    p_sireads =
      [
        Predlock.Relation "t";
        Predlock.Page ("t", 0);
        Predlock.Tuple ("t", Value.Int 1);
        Predlock.Index_page ("t_idx", 2);
        Predlock.Index_key ("t_idx", Value.Str "a");
        Predlock.Index_inf "t_idx";
        Predlock.Index_rel "t_idx";
      ];
  }

let sample_records =
  [
    Wal.Schema { Wal.d_name = "t"; d_cols = [ "k"; "v" ]; d_key = "k" };
    Wal.Index
      {
        table = "t";
        def = { Wal.i_name = "t_idx"; i_column = "v"; i_pred_locks = true; i_next_key = false };
      };
    Wal.Drop_index "t_idx";
    Wal.Commit
      {
        c_xid = 5;
        c_cseq = 1;
        c_gid = None;
        c_ops = [ Wal.Insert { table = "t"; key = Value.Int 1; row = [| Value.Int 1 |] } ];
        c_safe = true;
      };
    Wal.Commit { c_xid = 6; c_cseq = 2; c_gid = Some "g"; c_ops = []; c_safe = false };
    Wal.Prepare sample_prepared;
    Wal.Abort { a_xid = 8; a_gid = "gone" };
    Wal.Checkpoint
      {
        k_cseq = 2;
        k_tables =
          [
            {
              Wal.s_def = { Wal.d_name = "t"; d_cols = [ "k" ]; d_key = "k" };
              s_indexes =
                [ { Wal.i_name = "i"; i_column = "k"; i_pred_locks = false; i_next_key = true } ];
              s_rows = [ [| Value.Int 1 |]; [| Value.Float 2.5; Value.Bool true |] ];
            };
          ];
        k_prepared = [ sample_prepared ];
      };
    Wal.Epoch 4;
  ]

let test_roundtrip () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) sample_records;
  let records, truncated = Wal.read_all w in
  Alcotest.(check int) "no truncation" 0 truncated;
  Alcotest.(check bool) "all record kinds survive framing" true (records = sample_records)

let test_save_load () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) sample_records;
  let path = Filename.temp_file "ssi_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wal.save w path;
      let records, _ = Wal.read_all (Result.get_ok (Wal.load path)) in
      Alcotest.(check bool) "records survive save/load" true (records = sample_records))

let test_load_rejects_non_wal () =
  let path = Filename.temp_file "ssi_wal" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "SSI");
      Alcotest.(check bool) "too short" true (Result.is_error (Wal.load path));
      Out_channel.with_open_bin path (fun oc -> output_string oc "not a write-ahead log");
      Alcotest.(check bool) "wrong magic" true (Result.is_error (Wal.load path)))

(* ---- Decoding arbitrary frames -------------------------------------------- *)

(* The log's CRC-32 (IEEE, reflected), so a test can frame any payload the
   way [Wal.append] frames a record: length, CRC, payload. *)
let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xffffffff

let le64 n =
  let b = Buffer.create 8 in
  Buffer.add_int64_le b (Int64.of_int n);
  Buffer.contents b

let frame payload = le64 (String.length payload) ^ le64 (crc32 payload) ^ payload

(* The durable region of [w], through a saved image. *)
let durable_bytes w =
  let path = Filename.temp_file "ssi_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wal.save w path;
      let image = In_channel.with_open_bin path In_channel.input_all in
      String.sub image 8 (String.length image - 8))

(* A device whose durable region is exactly [bytes], through a saved image. *)
let device_of bytes =
  let path = Filename.temp_file "ssi_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc ("SSIWAL01" ^ bytes));
      Result.get_ok (Wal.load path))

(* The frame [Wal.append] writes for each sample record. *)
let sample_frames =
  List.map
    (fun r ->
      let w = Wal.create () in
      ignore (Wal.append w r);
      durable_bytes w)
    sample_records

(* A CRC-valid Schema record whose table name claims [max_int] bytes: the
   decoder's bounds check must not overflow into reading it. *)
let test_huge_string_length () =
  let payload = "\001" ^ le64 max_int ^ "x" in
  let first = List.hd sample_frames in
  let records, truncated = Wal.read_all (device_of (first ^ frame payload)) in
  Alcotest.(check bool) "valid prefix kept" true (records = [ List.hd sample_records ]);
  Alcotest.(check int) "crafted frame truncated" (16 + String.length payload) truncated

type frame_spec = Real of int | Junk of string

(* Junk payloads lean towards a record tag followed by an extreme length,
   the shape that reaches the decoder's bounds checks. *)
let junk_gen =
  QCheck.Gen.(
    let extreme = oneofl [ 0; 1; 7; 255; 1 lsl 31; max_int; min_int; -1 ] in
    frequency
      [
        (1, string_size ~gen:char (int_range 0 40));
        ( 3,
          map3
            (fun tag n tail -> String.make 1 (Char.chr tag) ^ le64 n ^ tail)
            (int_range 0 8) extreme (string_size ~gen:char (int_range 0 24)) );
      ])

let frames_arb =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 8)
        (frequency
           [
             (2, map (fun i -> Real i) (int_bound (List.length sample_records - 1)));
             (3, map (fun s -> Junk s) junk_gen);
           ]))
  in
  let print = function
    | Real i -> Printf.sprintf "Real %d" i
    | Junk s -> Printf.sprintf "Junk %S" s
  in
  QCheck.make ~print:QCheck.Print.(list print) gen

let prop_frames_decode_to_prefix =
  QCheck.Test.make ~name:"framed payloads decode to a valid prefix, never raise" ~count:300
    frames_arb (fun specs ->
      let bytes =
        List.map (function Real i -> List.nth sample_frames i | Junk s -> frame s) specs
      in
      let records, truncated = Wal.read_all (device_of (String.concat "" bytes)) in
      let k = List.length records in
      let rest = List.filteri (fun i _ -> i >= k) bytes in
      k <= List.length specs
      && truncated = List.fold_left (fun n b -> n + String.length b) 0 rest
      && List.for_all2
           (fun spec r -> match spec with Real i -> r = List.nth sample_records i | Junk _ -> true)
           (List.filteri (fun i _ -> i < k) specs)
           records)

(* ---- The frame layout, pinned by a reference encoder ----------------------- *)

(* The log's payload encoding written out independently of [Wal]: little-
   endian 64-bit integers, one-byte tags, length-prefixed strings and
   lists, each record framed by [frame]. *)
module Ref = struct
  let u8 n = String.make 1 (Char.chr n)
  let int = le64
  let bool b = u8 (if b then 1 else 0)
  let str s = int (String.length s) ^ s
  let list f xs = int (List.length xs) ^ String.concat "" (List.map f xs)

  let value = function
    | Value.Null -> u8 0
    | Value.Bool b -> u8 1 ^ bool b
    | Value.Int n -> u8 2 ^ int n
    | Value.Float f ->
        let b = Buffer.create 8 in
        Buffer.add_int64_le b (Int64.bits_of_float f);
        u8 3 ^ Buffer.contents b
    | Value.Str s -> u8 4 ^ str s

  let row r = int (Array.length r) ^ String.concat "" (List.map value (Array.to_list r))

  let op = function
    | Wal.Insert { table; key; row = r } -> u8 0 ^ str table ^ value key ^ row r
    | Wal.Update { table; key; row = r } -> u8 1 ^ str table ^ value key ^ row r
    | Wal.Delete { table; key } -> u8 2 ^ str table ^ value key

  let target = function
    | Predlock.Relation r -> u8 0 ^ str r
    | Predlock.Page (r, p) -> u8 1 ^ str r ^ int p
    | Predlock.Tuple (r, k) -> u8 2 ^ str r ^ value k
    | Predlock.Index_page (i, p) -> u8 3 ^ str i ^ int p
    | Predlock.Index_key (i, k) -> u8 4 ^ str i ^ value k
    | Predlock.Index_inf i -> u8 5 ^ str i
    | Predlock.Index_rel i -> u8 6 ^ str i

  let prepared (p : Wal.prepared_image) =
    int p.p_xid ^ str p.p_gid ^ int p.p_snap_cseq ^ list op p.p_ops ^ list target p.p_sireads

  let table_image (s : Wal.table_image) =
    str s.s_def.d_name ^ list str s.s_def.d_cols ^ str s.s_def.d_key
    ^ list
        (fun (i : Wal.index_def) ->
          str i.i_name ^ str i.i_column ^ bool i.i_pred_locks ^ bool i.i_next_key)
        s.s_indexes
    ^ list row s.s_rows

  let record = function
    | Wal.Commit { c_xid; c_cseq; c_gid; c_ops; c_safe } ->
        u8 3 ^ int c_xid ^ int c_cseq
        ^ (match c_gid with None -> u8 0 | Some g -> u8 1 ^ str g)
        ^ list op c_ops ^ bool c_safe
    | Wal.Prepare p -> u8 4 ^ prepared p
    | Wal.Checkpoint { k_cseq; k_tables; k_prepared } ->
        u8 6 ^ int k_cseq ^ list table_image k_tables ^ list prepared k_prepared
    | Wal.Schema _ | Wal.Index _ | Wal.Drop_index _ | Wal.Abort _ | Wal.Epoch _ ->
        invalid_arg "Ref.record: not generated"
end

let records_arb =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 0 6) in
  let int = oneof [ small_signed_int; oneofl [ 0; -1; max_int; min_int; 1 lsl 40 ] ] in
  let value =
    frequency
      [
        (1, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (4, map (fun n -> Value.Int n) int);
        (1, map (fun f -> Value.Float f) (oneof [ float; oneofl [ nan; infinity; -0. ] ]));
        (2, map (fun s -> Value.Str s) (string_size (int_range 0 12)));
      ]
  in
  let row = array_size (int_range 0 5) value in
  let op =
    oneof
      [
        map3 (fun table key row -> Wal.Insert { table; key; row }) name value row;
        map3 (fun table key row -> Wal.Update { table; key; row }) name value row;
        map2 (fun table key -> Wal.Delete { table; key }) name value;
      ]
  in
  let ops = list_size (int_range 0 12) op in
  let target =
    oneof
      [
        map (fun r -> Predlock.Relation r) name;
        map2 (fun r p -> Predlock.Page (r, p)) name int;
        map2 (fun r k -> Predlock.Tuple (r, k)) name value;
        map2 (fun i p -> Predlock.Index_page (i, p)) name int;
        map2 (fun i k -> Predlock.Index_key (i, k)) name value;
        map (fun i -> Predlock.Index_inf i) name;
        map (fun i -> Predlock.Index_rel i) name;
      ]
  in
  let prepared =
    map
      (fun ((p_xid, p_gid, p_snap_cseq), (p_ops, p_sireads)) ->
        { Wal.p_xid; p_gid; p_snap_cseq; p_ops; p_sireads })
      (pair (triple int name int) (pair ops (list_size (int_range 0 6) target)))
  in
  let index_def =
    map
      (fun ((i_name, i_column), (i_pred_locks, i_next_key)) ->
        { Wal.i_name; i_column; i_pred_locks; i_next_key })
      (pair (pair name name) (pair bool bool))
  in
  let table_image =
    map
      (fun ((d_name, d_cols, d_key), (s_indexes, s_rows)) ->
        { Wal.s_def = { Wal.d_name; d_cols; d_key }; s_indexes; s_rows })
      (pair
         (triple name (list_size (int_range 0 4) name) name)
         (pair (list_size (int_range 0 3) index_def) (list_size (int_range 0 6) row)))
  in
  let record =
    frequency
      [
        ( 4,
          map
            (fun ((c_xid, c_cseq, c_gid), (c_ops, c_safe)) ->
              Wal.Commit { c_xid; c_cseq; c_gid; c_ops; c_safe })
            (pair (triple int int (option name)) (pair ops bool)) );
        (2, map (fun p -> Wal.Prepare p) prepared);
        ( 1,
          map3
            (fun k_cseq k_tables k_prepared -> Wal.Checkpoint { k_cseq; k_tables; k_prepared })
            int
            (list_size (int_range 0 3) table_image)
            (list_size (int_range 0 2) prepared) );
      ]
  in
  QCheck.make
    ~print:(fun rs ->
      Printf.sprintf "%d records, reference frames %S" (List.length rs)
        (String.concat "" (List.map (fun r -> frame (Ref.record r)) rs)))
    (list_size (int_range 1 6) record)

(* Whether appended one flush at a time or staged and flushed together,
   the device's bytes are the reference frames, back to back, and they
   decode to the records appended.  [append_commit] of a commit's ops,
   newest first, writes the same frame as [append] of the record. *)
let prop_append_writes_reference_frames =
  QCheck.Test.make ~name:"append writes the reference encoder's frames" ~count:300 records_arb
    (fun records ->
      let want = String.concat "" (List.map (fun r -> frame (Ref.record r)) records) in
      let direct = Wal.create () in
      List.iter (fun r -> ignore (Wal.append direct r)) records;
      let staged = Wal.create ~flush_interval:1e9 () in
      ignore
        (Sim.run (fun () ->
             List.iter (fun r -> ignore (Wal.append staged r)) records;
             Wal.flush staged));
      let by_commit = Wal.create () in
      List.iter
        (function
          | Wal.Commit { c_xid; c_cseq; c_gid; c_ops; c_safe } ->
              ignore
                (Wal.append_commit by_commit ~xid:c_xid ~cseq:c_cseq ~gid:c_gid
                   ~rev_ops:(List.rev c_ops) ~safe:c_safe)
          | r -> ignore (Wal.append by_commit r))
        records;
      let decoded, truncated = Wal.read_all direct in
      durable_bytes direct = want
      && durable_bytes staged = want
      && durable_bytes by_commit = want
      && truncated = 0
      && compare decoded records = 0)

(* ---- Crash and damage ---------------------------------------------------- *)

let wal_lost =
  E.Error (E.Transient_fault { op = "wal"; reason = "durable log lost in crash" })

(* Direct mode flushes on every append, so stage records with a sim running
   and a huge flush interval to keep them pending. *)
let with_pending records f =
  let w = Wal.create ~flush_interval:1e9 () in
  ignore
    (Sim.run (fun () ->
         List.iter (fun r -> ignore (Wal.append w r)) records;
         f w))

let test_crash_loses_pending () =
  with_pending sample_records (fun w ->
      Alcotest.(check int) "staged, not durable" 0 (Wal.durable_size w);
      Wal.crash w;
      Alcotest.(check bool) "dead" true (Wal.is_dead w);
      Alcotest.(check (pair (list reject) int)) "empty log" ([], 0) (Wal.read_all w);
      Alcotest.check_raises "append on dead device" wal_lost (fun () ->
          ignore (Wal.append w (Wal.Epoch 1))))

let test_torn_write_truncates () =
  (* Flush the first two records, stage the rest, and tear the in-flight
     flush mid-frame: the durable prefix survives, the tail is dropped. *)
  let durable, lost =
    match sample_records with a :: b :: rest -> ([ a; b ], rest) | _ -> assert false
  in
  let w = Wal.create ~flush_interval:1e9 () in
  ignore
    (Sim.run (fun () ->
         List.iter (fun r -> ignore (Wal.append w r)) durable;
         Wal.flush w;
         List.iter (fun r -> ignore (Wal.append w r)) lost;
         Wal.crash ~damage:(Wal.Torn_write 11) w));
  let records, truncated = Wal.read_all w in
  Alcotest.(check bool) "durable prefix intact" true (records = durable);
  Alcotest.(check bool) "torn tail detected" true (truncated > 0);
  let dropped = Wal.truncate_damaged_tail w in
  Alcotest.(check int) "tail physically dropped" truncated dropped;
  Alcotest.(check int) "clean after truncation" 0 (snd (Wal.read_all w))

let test_bit_flip_truncates () =
  let w2 = Wal.create ~flush_interval:1e9 () in
  ignore
    (Sim.run (fun () ->
         List.iter (fun r -> ignore (Wal.append w2 r)) sample_records;
         Wal.crash ~damage:(Wal.Bit_flip 123) w2));
  let records, truncated = Wal.read_all w2 in
  Alcotest.(check bool) "bit flip ends the valid prefix" true (truncated > 0);
  Alcotest.(check bool) "only a prefix survives" true
    (List.length records < List.length sample_records)

(* ---- Group commit -------------------------------------------------------- *)

let test_group_commit_batches () =
  let obs = Obs.create () in
  let w = Wal.create ~obs ~flush_interval:1e-3 () in
  ignore
    (Sim.run (fun () ->
         for i = 1 to 5 do
           let lsn = Wal.append w (Wal.Epoch i) in
           Sim.spawn (fun () -> Wal.wait_durable w Sim.scheduler lsn)
         done;
         Alcotest.(check int) "nothing flushed inside the window" 0 (Wal.durable_size w);
         Sim.delay 2e-3;
         Alcotest.(check int) "one timer flushed the batch" 1 (Obs.get_counter obs "wal.flushes");
         Alcotest.(check int) "pending drained" 0 (Wal.pending_size w)));
  Alcotest.(check int) "all five records durable" 5 (List.length (fst (Wal.read_all w)))

(* The SLO watchdog's stall rule against a real group-commit WAL: appends
   keep moving while the flush timer (an interval far beyond the scrape
   window) has not fired yet — exactly the wal-flush-stall shape.  The
   whole scenario runs on the virtual clock, so the alert log is a pure
   function of the code and replays byte-identically. *)
let test_watchdog_flush_stall () =
  let module Scrape = Ssi_obs.Scrape in
  let module Watchdog = Ssi_obs.Watchdog in
  let run () =
    let obs = Obs.create () in
    let w = Wal.create ~obs ~flush_interval:8e-3 () in
    let lines = ref [] in
    ignore
      (Sim.run (fun () ->
           Obs.set_clock obs Sim.now;
           let s = Scrape.create ~capacity:32 obs in
           let wd = Watchdog.create s (Watchdog.default_rules ()) in
           Scrape.run s ~interval:1e-3 ~until:12e-3;
           Sim.spawn (fun () ->
               for i = 1 to 10 do
                 ignore (Wal.append w (Wal.Epoch i));
                 Sim.delay 1e-3
               done);
           Sim.at ~after:12.5e-3 (fun () ->
               lines := List.map Watchdog.render_alert (Watchdog.alerts wd))));
    !lines
  in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let a = run () in
  Alcotest.(check bool) "stall fired" true (a <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ ": is a wal-flush-stall") true
        (contains "stall wal-flush-stall" l))
    a;
  Alcotest.(check (list string)) "byte-identical replay" a (run ())

let test_unflushed_commit_not_acked () =
  (* A committer whose flush is destroyed must see Lost, not an ack — even
     when damage deposits its (mangled) bytes on the device. *)
  let acked = ref 0 and lost = ref 0 in
  let w = Wal.create ~flush_interval:1e-3 () in
  ignore
    (Sim.run (fun () ->
         let lsn = Wal.append w (Wal.Epoch 1) in
         Sim.spawn (fun () ->
             match Wal.wait_durable w Sim.scheduler lsn with
             | () -> incr acked
             | exception e when e = wal_lost -> incr lost);
         Sim.at ~after:1e-4 (fun () -> Wal.crash ~damage:(Wal.Bit_flip 9) w)));
  Alcotest.(check (pair int int)) "woken with Lost" (0, 1) (!acked, !lost)

(* ---- Engine recovery ----------------------------------------------------- *)

let costs = { E.zero_costs with E.cpu_per_op = 1e-6 }
let config = { E.default_config with E.costs }

let dump db =
  E.with_txn ~isolation:E.Repeatable_read db (fun t ->
      List.map
        (fun tbl -> (tbl, E.seq_scan t ~table:tbl ()))
        (List.sort compare (E.table_names db)))

let setup_engine ?(flush_interval = 0.) () =
  let db = E.create ~scheduler:Sim.scheduler ~config () in
  let w = Wal.create ~flush_interval () in
  E.attach_wal db w;
  E.create_table db ~name:"acct" ~cols:[ "id"; "bal" ] ~key:"id";
  E.create_index db ~table:"acct" ~name:"acct_bal" ~column:"bal" ();
  (db, w)

let test_recover_rebuilds_state () =
  let snapshot = ref [] in
  let w_out = ref None in
  ignore
    (Sim.run (fun () ->
         let db, w = setup_engine () in
         E.with_txn db (fun t ->
             for i = 1 to 8 do
               E.insert t ~table:"acct" [| Value.Int i; Value.Int (100 * i) |]
             done);
         E.with_txn db (fun t ->
             ignore (E.update t ~table:"acct" ~key:(Value.Int 3) ~f:(fun _ ->
                 [| Value.Int 3; Value.Int 0 |]));
             ignore (E.delete t ~table:"acct" ~key:(Value.Int 7)));
         snapshot := dump db;
         w_out := Some w));
  let w = Option.get !w_out in
  ignore
    (Sim.run (fun () ->
         let db2, report = E.recover ~scheduler:Sim.scheduler ~config w in
         Alcotest.(check bool) "replayed something" true (report.E.rr_records > 0);
         Alcotest.(check int) "no tail damage" 0 report.E.rr_truncated;
         Alcotest.(check bool) "state rebuilt from the log" true (dump db2 = !snapshot);
         (* The rebuilt secondary index answers scans. *)
         E.with_txn ~isolation:E.Repeatable_read db2 (fun t ->
             let rich =
               E.index_scan t ~table:"acct" ~index:"acct_bal" ~lo:(Value.Int 500)
                 ~hi:(Value.Int 10000)
             in
             (* bal >= 500: keys 5, 6, 8 (7 was deleted, 3 was zeroed) *)
             Alcotest.(check int) "index rebuilt" 3 (List.length rich));
         (* And the recovered engine accepts new transactions. *)
         E.with_txn db2 (fun t ->
             E.insert t ~table:"acct" [| Value.Int 99; Value.Int 1 |])))

let test_recover_from_checkpoint () =
  let snapshot = ref [] in
  let w_out = ref None in
  ignore
    (Sim.run (fun () ->
         let db, w = setup_engine () in
         E.with_txn db (fun t ->
             for i = 1 to 4 do
               E.insert t ~table:"acct" [| Value.Int i; Value.Int i |]
             done);
         E.checkpoint db;
         E.with_txn db (fun t ->
             E.insert t ~table:"acct" [| Value.Int 5; Value.Int 5 |]);
         snapshot := dump db;
         w_out := Some w));
  let w = Option.get !w_out in
  ignore
    (Sim.run (fun () ->
         let db2, report = E.recover ~scheduler:Sim.scheduler ~config w in
         Alcotest.(check bool) "resumed from the checkpoint" true
           (report.E.rr_checkpoint_cseq <> None);
         Alcotest.(check bool) "checkpoint + tail = state" true (dump db2 = !snapshot);
         (* Replaying from the checkpoint must not double-apply: exactly one
            version of each checkpointed row is visible. *)
         E.with_txn ~isolation:E.Repeatable_read db2 (fun t ->
             Alcotest.(check int) "row count" 5 (E.row_count t ~table:"acct"))))

let test_recover_mid_2pc () =
  (* Crash with a prepared transaction in the log; drive recovery twice from
     the same image — once resolving COMMIT PREPARED, once ROLLBACK
     PREPARED — and check both end states. *)
  let path = Filename.temp_file "ssi_wal_2pc" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (Sim.run (fun () ->
             let db, w = setup_engine () in
             E.with_txn db (fun t ->
                 E.insert t ~table:"acct" [| Value.Int 1; Value.Int 10 |]);
             let txn = E.begin_txn db in
             ignore (E.read txn ~table:"acct" ~key:(Value.Int 1));
             E.insert txn ~table:"acct" [| Value.Int 2; Value.Int 20 |];
             E.prepare txn ~gid:"doubt";
             (* The crash happens here: the engine dies with "doubt" prepared
                and nothing resolved. *)
             Wal.crash w;
             Wal.save w path));
      let recover_and_resolve resolve =
        let out = ref [] in
        ignore
          (Sim.run (fun () ->
               let w = Result.get_ok (Wal.load path) in
               let db, report = E.recover ~scheduler:Sim.scheduler ~config w in
               Alcotest.(check int) "one prepared restored" 1 report.E.rr_prepared;
               Alcotest.(check (list string)) "in doubt" [ "doubt" ] (E.prepared_gids db);
               (* Conservative flags (§5.7): a concurrent reader overlapping
                  the in-doubt transaction is still serializable — resolution
                  below settles the row's fate. *)
               resolve db;
               Alcotest.(check (list string)) "resolved" [] (E.prepared_gids db);
               out := dump db));
        !out
      in
      let committed = recover_and_resolve (fun db -> E.commit_prepared db ~gid:"doubt") in
      let rolled_back = recover_and_resolve (fun db -> E.rollback_prepared db ~gid:"doubt") in
      Alcotest.(check int) "commit prepared keeps the write" 2
        (List.length (List.assoc "acct" committed));
      Alcotest.(check int) "rollback prepared drops the write" 1
        (List.length (List.assoc "acct" rolled_back)))

let test_recovery_counters () =
  let w_out = ref None in
  ignore
    (Sim.run (fun () ->
         let db, w = setup_engine () in
         E.with_txn db (fun t -> E.insert t ~table:"acct" [| Value.Int 1; Value.Int 1 |]);
         w_out := Some w));
  let w = Option.get !w_out in
  let obs = Obs.create () in
  ignore
    (Sim.run (fun () ->
         let _db, report = E.recover ~scheduler:Sim.scheduler ~config ~obs w in
         Alcotest.(check int) "records_replayed counter" report.E.rr_records
           (Obs.get_counter obs "recovery.records_replayed")));
  Alcotest.(check int) "tail_truncated counter" 0 (Obs.get_counter obs "recovery.tail_truncated");
  Alcotest.(check int) "prepared_restored counter" 0
    (Obs.get_counter obs "recovery.prepared_restored")

let test_checkpoint_determinism () =
  (* Seed matrix: the same seeded run — several tables created in
     non-alphabetical order, prepared transactions with out-of-order gids,
     a checkpoint, then more traffic — must produce byte-identical WAL
     images and the same (sorted) prepared gid list on every execution.
     Guards the fold-order determinism of checkpoint table images,
     checkpoint prepared-image lists and [prepared_gids]. *)
  let run_once seed =
    let path = Filename.temp_file "ssi_wal_det" ".wal" in
    let gids = ref [] in
    ignore
      (Sim.run (fun () ->
           let db = E.create ~scheduler:Sim.scheduler ~config () in
           let w = Wal.create () in
           E.attach_wal db w;
           List.iter
             (fun n -> E.create_table db ~name:n ~cols:[ "k"; "v" ] ~key:"k")
             [ "zeta"; "acct"; "mid" ];
           let rng = Ssi_util.Rng.make seed in
           E.with_txn db (fun t ->
               for i = 1 to 8 do
                 let tbl = [| "zeta"; "acct"; "mid" |].(Ssi_util.Rng.int rng 3) in
                 E.insert t ~table:tbl
                   [| Value.Int i; Value.Int (Ssi_util.Rng.int rng 100) |]
               done);
           List.iter
             (fun (gid, k) ->
               let txn = E.begin_txn db in
               E.insert txn ~table:"acct" [| Value.Int k; Value.Int k |];
               E.prepare txn ~gid)
             [ ("pz", 101); ("pa", 102); ("pm", 103) ];
           E.checkpoint db;
           E.with_txn db (fun t ->
               E.insert t ~table:"mid" [| Value.Int 200; Value.Int 1 |]);
           Wal.flush w;
           Wal.save w path;
           let db2, _report = E.recover ~scheduler:Sim.scheduler ~config w in
           gids := E.prepared_gids db2));
    let ic = open_in_bin path in
    let bytes = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    (bytes, !gids)
  in
  List.iter
    (fun seed ->
      let b1, g1 = run_once seed in
      let b2, g2 = run_once seed in
      Alcotest.(check bool) "byte-identical WAL image" true (b1 = b2);
      Alcotest.(check (list string)) "identical prepared gids" g1 g2;
      Alcotest.(check (list string)) "prepared gids sorted" (List.sort compare g1) g1)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "wal"
    [
      ( "framing",
        [
          Alcotest.test_case "record roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "load rejects a non-WAL file" `Quick test_load_rejects_non_wal;
          Alcotest.test_case "string length near max_int" `Quick test_huge_string_length;
          QCheck_alcotest.to_alcotest prop_frames_decode_to_prefix;
          QCheck_alcotest.to_alcotest prop_append_writes_reference_frames;
        ] );
      ( "crash",
        [
          Alcotest.test_case "pending lost" `Quick test_crash_loses_pending;
          Alcotest.test_case "torn write truncated" `Quick test_torn_write_truncates;
          Alcotest.test_case "bit flip truncated" `Quick test_bit_flip_truncates;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "batched flush" `Quick test_group_commit_batches;
          Alcotest.test_case "lost flush not acked" `Quick test_unflushed_commit_not_acked;
          Alcotest.test_case "watchdog flush-stall alert" `Quick
            test_watchdog_flush_stall;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rebuilds state" `Quick test_recover_rebuilds_state;
          Alcotest.test_case "from checkpoint" `Quick test_recover_from_checkpoint;
          Alcotest.test_case "mid-2PC, both resolutions" `Quick test_recover_mid_2pc;
          Alcotest.test_case "counters" `Quick test_recovery_counters;
          Alcotest.test_case "checkpoint image determinism (seed matrix)" `Quick
            test_checkpoint_determinism;
        ] );
    ]
