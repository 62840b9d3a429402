open Ssi_storage
open Ssi_util
module Obs = Ssi_obs.Obs
module Sim = Ssi_sim.Sim
module Predlock = Ssi_core.Predlock

type op =
  | Insert of { table : string; key : Value.t; row : Value.t array }
  | Update of { table : string; key : Value.t; row : Value.t array }
  | Delete of { table : string; key : Value.t }

type index_def = {
  i_name : string;
  i_column : string;
  i_pred_locks : bool;
  i_next_key : bool;
}

type table_def = { d_name : string; d_cols : string list; d_key : string }

type prepared_image = {
  p_xid : int;
  p_gid : string;
  p_snap_cseq : int;
  p_ops : op list;
  p_sireads : Predlock.target list;
}

type table_image = {
  s_def : table_def;
  s_indexes : index_def list;
  s_rows : Value.t array list;
}

type record =
  | Schema of table_def
  | Index of { table : string; def : index_def }
  | Drop_index of string
  | Commit of {
      c_xid : int;
      c_cseq : int;
      c_gid : string option;
      c_ops : op list;
      c_safe : bool;
    }
  | Prepare of prepared_image
  | Abort of { a_xid : int; a_gid : string }
  | Checkpoint of {
      k_cseq : int;
      k_tables : table_image list;
      k_prepared : prepared_image list;
    }
  | Epoch of int

(* ---- CRC-32 (IEEE 802.3, table-driven) ------------------------------------ *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The CRC of [len] bytes of [buf] from [pos]: a plain loop, so checking a
   frame in place allocates nothing. *)
let crc32 buf pos len =
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* ---- Binary encoding ------------------------------------------------------- *)

exception Corrupt
(* Any decode overrun or unknown tag: the reader treats the rest of the
   log as a damaged tail. *)

(* A growable byte buffer that records are encoded straight into.  Each
   device owns one, its pending bytes: [append] reserves a frame header,
   encodes the payload after it, and patches the header in place. *)
type enc = { mutable buf : Bytes.t; mutable len : int }

let ensure e n =
  let need = e.len + n in
  if need > Bytes.length e.buf then begin
    let cap = ref (max 256 (2 * Bytes.length e.buf)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit e.buf 0 b 0 e.len;
    e.buf <- b
  end

let set_int buf pos n = Bytes.set_int64_le buf pos (Int64.of_int n)

let w_int e n =
  ensure e 8;
  set_int e.buf e.len n;
  e.len <- e.len + 8

let w_u8 e n =
  ensure e 1;
  Bytes.set_uint8 e.buf e.len (n land 0xff);
  e.len <- e.len + 1

let w_bool e v = w_u8 e (if v then 1 else 0)

let w_str e s =
  let n = String.length s in
  w_int e n;
  ensure e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

(* A list's length, then each element: [w_each] is a top-level loop so
   that no closure is built per list. *)
let rec w_each e f = function
  | [] -> ()
  | x :: rest ->
      f e x;
      w_each e f rest

let w_list e f xs =
  w_int e (List.length xs);
  w_each e f xs

let w_value e = function
  | Value.Null -> w_u8 e 0
  | Value.Bool v ->
      w_u8 e 1;
      w_bool e v
  | Value.Int n ->
      w_u8 e 2;
      w_int e n
  | Value.Float f ->
      w_u8 e 3;
      ensure e 8;
      Bytes.set_int64_le e.buf e.len (Int64.bits_of_float f);
      e.len <- e.len + 8
  | Value.Str s ->
      w_u8 e 4;
      w_str e s

let w_row e row =
  w_int e (Array.length row);
  for i = 0 to Array.length row - 1 do
    w_value e row.(i)
  done

let w_op e = function
  | Insert { table; key; row } ->
      w_u8 e 0;
      w_str e table;
      w_value e key;
      w_row e row
  | Update { table; key; row } ->
      w_u8 e 1;
      w_str e table;
      w_value e key;
      w_row e row
  | Delete { table; key } ->
      w_u8 e 2;
      w_str e table;
      w_value e key

(* A commit's ops from the newest-first list the engine keeps, written in
   execution order: the recursion unwinds oldest first. *)
let rec w_ops_rev e = function
  | [] -> ()
  | op :: older ->
      w_ops_rev e older;
      w_op e op

let w_target e = function
  | Predlock.Relation rel ->
      w_u8 e 0;
      w_str e rel
  | Predlock.Page (rel, page) ->
      w_u8 e 1;
      w_str e rel;
      w_int e page
  | Predlock.Tuple (rel, key) ->
      w_u8 e 2;
      w_str e rel;
      w_value e key
  | Predlock.Index_page (index, page) ->
      w_u8 e 3;
      w_str e index;
      w_int e page
  | Predlock.Index_key (index, key) ->
      w_u8 e 4;
      w_str e index;
      w_value e key
  | Predlock.Index_inf index ->
      w_u8 e 5;
      w_str e index
  | Predlock.Index_rel index ->
      w_u8 e 6;
      w_str e index

let w_table_def e d =
  w_str e d.d_name;
  w_list e w_str d.d_cols;
  w_str e d.d_key

let w_index_def e i =
  w_str e i.i_name;
  w_str e i.i_column;
  w_bool e i.i_pred_locks;
  w_bool e i.i_next_key

let w_prepared e p =
  w_int e p.p_xid;
  w_str e p.p_gid;
  w_int e p.p_snap_cseq;
  w_list e w_op p.p_ops;
  w_list e w_target p.p_sireads

let w_table_image e s =
  w_table_def e s.s_def;
  w_list e w_index_def s.s_indexes;
  w_list e w_row s.s_rows

(* A commit record's payload up to its ops. *)
let w_commit_head e ~xid ~cseq ~gid =
  w_u8 e 3;
  w_int e xid;
  w_int e cseq;
  match gid with
  | None -> w_u8 e 0
  | Some g ->
      w_u8 e 1;
      w_str e g

let encode_record e = function
  | Schema d ->
      w_u8 e 1;
      w_table_def e d
  | Index { table; def } ->
      w_u8 e 2;
      w_str e table;
      w_index_def e def
  | Drop_index name ->
      w_u8 e 8;
      w_str e name
  | Commit { c_xid; c_cseq; c_gid; c_ops; c_safe } ->
      w_commit_head e ~xid:c_xid ~cseq:c_cseq ~gid:c_gid;
      w_list e w_op c_ops;
      w_bool e c_safe
  | Prepare p ->
      w_u8 e 4;
      w_prepared e p
  | Abort { a_xid; a_gid } ->
      w_u8 e 5;
      w_int e a_xid;
      w_str e a_gid
  | Checkpoint { k_cseq; k_tables; k_prepared } ->
      w_u8 e 6;
      w_int e k_cseq;
      w_list e w_table_image k_tables;
      w_list e w_prepared k_prepared
  | Epoch n ->
      w_u8 e 7;
      w_int e n

(* ---- Decoding --------------------------------------------------------------- *)

type rd = { buf : Bytes.t; mutable pos : int; limit : int }

(* Written so that no length read from the log can overflow the test. *)
let need rd n = if n > rd.limit - rd.pos then raise Corrupt

let r_int rd =
  need rd 8;
  let n = Int64.to_int (Bytes.get_int64_le rd.buf rd.pos) in
  rd.pos <- rd.pos + 8;
  n

let r_u8 rd =
  need rd 1;
  let n = Bytes.get_uint8 rd.buf rd.pos in
  rd.pos <- rd.pos + 1;
  n

let r_bool rd = match r_u8 rd with 0 -> false | 1 -> true | _ -> raise Corrupt

let r_str rd =
  let n = r_int rd in
  if n < 0 then raise Corrupt;
  need rd n;
  let s = Bytes.sub_string rd.buf rd.pos n in
  rd.pos <- rd.pos + n;
  s

let r_list rd f =
  let n = r_int rd in
  if n < 0 then raise Corrupt;
  List.init n (fun _ -> f rd)

let r_value rd =
  match r_u8 rd with
  | 0 -> Value.Null
  | 1 -> Value.Bool (r_bool rd)
  | 2 -> Value.Int (r_int rd)
  | 3 ->
      need rd 8;
      let f = Int64.float_of_bits (Bytes.get_int64_le rd.buf rd.pos) in
      rd.pos <- rd.pos + 8;
      Value.Float f
  | 4 -> Value.Str (r_str rd)
  | _ -> raise Corrupt

let r_row rd =
  let n = r_int rd in
  if n < 0 || n > 0xffff then raise Corrupt;
  Array.init n (fun _ -> r_value rd)

let r_op rd =
  match r_u8 rd with
  | 0 ->
      let table = r_str rd in
      let key = r_value rd in
      Insert { table; key; row = r_row rd }
  | 1 ->
      let table = r_str rd in
      let key = r_value rd in
      Update { table; key; row = r_row rd }
  | 2 ->
      let table = r_str rd in
      Delete { table; key = r_value rd }
  | _ -> raise Corrupt

let r_target rd =
  match r_u8 rd with
  | 0 -> Predlock.Relation (r_str rd)
  | 1 ->
      let rel = r_str rd in
      Predlock.Page (rel, r_int rd)
  | 2 ->
      let rel = r_str rd in
      Predlock.Tuple (rel, r_value rd)
  | 3 ->
      let index = r_str rd in
      Predlock.Index_page (index, r_int rd)
  | 4 ->
      let index = r_str rd in
      Predlock.Index_key (index, r_value rd)
  | 5 -> Predlock.Index_inf (r_str rd)
  | 6 -> Predlock.Index_rel (r_str rd)
  | _ -> raise Corrupt

let r_table_def rd =
  let d_name = r_str rd in
  let d_cols = r_list rd r_str in
  { d_name; d_cols; d_key = r_str rd }

let r_index_def rd =
  let i_name = r_str rd in
  let i_column = r_str rd in
  let i_pred_locks = r_bool rd in
  { i_name; i_column; i_pred_locks; i_next_key = r_bool rd }

let r_prepared rd =
  let p_xid = r_int rd in
  let p_gid = r_str rd in
  let p_snap_cseq = r_int rd in
  let p_ops = r_list rd r_op in
  { p_xid; p_gid; p_snap_cseq; p_ops; p_sireads = r_list rd r_target }

let r_table_image rd =
  let s_def = r_table_def rd in
  let s_indexes = r_list rd r_index_def in
  { s_def; s_indexes; s_rows = r_list rd r_row }

(* The record in the [len] bytes of [buf] from [pos], decoded where it
   lies. *)
let decode_record buf pos len =
  let rd = { buf; pos; limit = pos + len } in
  let r =
    match r_u8 rd with
    | 1 -> Schema (r_table_def rd)
    | 2 ->
        let table = r_str rd in
        Index { table; def = r_index_def rd }
    | 3 ->
        let c_xid = r_int rd in
        let c_cseq = r_int rd in
        let c_gid = match r_u8 rd with 0 -> None | 1 -> Some (r_str rd) | _ -> raise Corrupt in
        let c_ops = r_list rd r_op in
        Commit { c_xid; c_cseq; c_gid; c_ops; c_safe = r_bool rd }
    | 4 -> Prepare (r_prepared rd)
    | 5 ->
        let a_xid = r_int rd in
        Abort { a_xid; a_gid = r_str rd }
    | 6 ->
        let k_cseq = r_int rd in
        let k_tables = r_list rd r_table_image in
        Checkpoint { k_cseq; k_tables; k_prepared = r_list rd r_prepared }
    | 7 -> Epoch (r_int rd)
    | 8 -> Drop_index (r_str rd)
    | _ -> raise Corrupt
  in
  if rd.pos <> rd.limit then raise Corrupt;
  r

(* ---- The device -------------------------------------------------------------- *)

(* The device died: the record can never become durable, so the caller
   must not acknowledge it; its client retries against whatever recovers. *)
let lost () =
  raise
    Ssi_util.Db_error.(Error (Transient_fault { op = "wal"; reason = "durable log lost in crash" }))

type t = {
  mutable segments : Bytes.t list;
      (** bytes physically on the device, one segment per flush, newest
          first *)
  mutable durable_len : int;  (** total length of [segments] *)
  mutable synced : int;
      (** prefix of the durable bytes a clean fsync confirmed — a crash may
          deposit mangled bytes past this watermark, and only bytes below
          it count as acknowledged to {!wait_durable} *)
  pending : enc;  (** staged appends, lost (or mangled) by a crash *)
  mutable pending_count : int;
  interval : float;
  mutable flush_scheduled : bool;
  mutable dead : bool;
  flush_wq : Waitq.t;
  mutable c_appends : Obs.counter;
  mutable c_flushes : Obs.counter;
  mutable h_group : Obs.histogram;
  mutable g_pending : Obs.gauge;
}

let register obs t =
  t.c_appends <- Obs.counter obs "wal.appends";
  t.c_flushes <- Obs.counter obs "wal.flushes";
  t.h_group <- Obs.histogram obs "wal.group_commit_size";
  t.g_pending <- Obs.gauge obs "wal.pending_records"

let create ?obs ?(flush_interval = 0.) () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    segments = [];
    durable_len = 0;
    synced = 0;
    pending = { buf = Bytes.create 1024; len = 0 };
    pending_count = 0;
    interval = flush_interval;
    flush_scheduled = false;
    dead = false;
    flush_wq = Waitq.create ();
    c_appends = Obs.counter obs "wal.appends";
    c_flushes = Obs.counter obs "wal.flushes";
    h_group = Obs.histogram obs "wal.group_commit_size";
    g_pending = Obs.gauge obs "wal.pending_records";
  }

let set_obs t obs = register obs t
let flush_interval t = t.interval
let is_dead t = t.dead
let durable_size t = t.durable_len
let pending_size t = t.pending.len
let pending_records t = t.pending_count

(* Put [len] bytes of [b] from [pos] on the device as a new segment. *)
let add_segment t b pos len =
  if len > 0 then begin
    t.segments <- Bytes.sub b pos len :: t.segments;
    t.durable_len <- t.durable_len + len
  end

(* The durable bytes as one segment, merging the flushed ones first. *)
let durable_bytes t =
  match t.segments with
  | [] -> Bytes.empty
  | [ b ] -> b
  | segments ->
      let whole = Bytes.create t.durable_len in
      ignore
        (List.fold_right
           (fun b pos ->
             Bytes.blit b 0 whole pos (Bytes.length b);
             pos + Bytes.length b)
           segments 0);
      t.segments <- [ whole ];
      whole

let flush t =
  if (not t.dead) && t.pending.len > 0 then begin
    add_segment t t.pending.buf 0 t.pending.len;
    t.synced <- t.durable_len;
    Obs.incr t.c_flushes;
    Obs.observe t.h_group (float_of_int t.pending_count);
    t.pending.len <- 0;
    t.pending_count <- 0;
    Obs.set_gauge t.g_pending 0.;
    Waitq.wake_all t.flush_wq
  end

(* Open a frame in the pending bytes: its 16-byte header is reserved now
   and patched by [close_frame] once the payload is written after it. *)
let open_frame t =
  if t.dead then lost ();
  let e = t.pending in
  ensure e 16;
  let start = e.len in
  e.len <- start + 16;
  start

(* Patch the payload's length and CRC into the header at [start], then
   count the record and schedule its flush.  The frame is the payload's
   length and CRC as little-endian 64-bit integers, then the payload. *)
let close_frame t start =
  let e = t.pending in
  let len = e.len - start - 16 in
  set_int e.buf start len;
  set_int e.buf (start + 8) (crc32 e.buf (start + 16) len);
  t.pending_count <- t.pending_count + 1;
  Obs.incr t.c_appends;
  Obs.set_gauge t.g_pending (float_of_int t.pending_count);
  let lsn = t.durable_len + e.len in
  if t.interval <= 0. || not (Sim.running ()) then flush t
  else if not t.flush_scheduled then begin
    t.flush_scheduled <- true;
    Sim.at ~after:t.interval (fun () ->
        t.flush_scheduled <- false;
        if not t.dead then flush t)
  end;
  lsn

let append t r =
  let start = open_frame t in
  encode_record t.pending r;
  close_frame t start

let append_commit t ~xid ~cseq ~gid ~rev_ops ~safe =
  let start = open_frame t in
  let e = t.pending in
  w_commit_head e ~xid ~cseq ~gid;
  w_int e (List.length rev_ops);
  w_ops_rev e rev_ops;
  w_bool e safe;
  close_frame t start

let wait_durable t (sched : Waitq.scheduler) lsn =
  while (not t.dead) && t.synced < lsn do
    sched.Waitq.suspend t.flush_wq
  done;
  if t.synced < lsn then lost ()

type damage = Torn_write of int | Short_write of int | Bit_flip of int

let crash ?damage t =
  if not t.dead then begin
    let pend = t.pending.buf and plen = t.pending.len in
    (if plen > 0 then
       match damage with
       | None -> ()
       | Some (Torn_write k) -> add_segment t pend 0 (max 0 (min k plen))
       | Some (Short_write n) -> add_segment t pend 0 (max 0 (plen - n))
       | Some (Bit_flip i) ->
           let bits = plen * 8 in
           let bit = ((i mod bits) + bits) mod bits in
           let byte = bit / 8 in
           Bytes.set pend byte
             (Char.chr (Char.code (Bytes.get pend byte) lxor (1 lsl (bit mod 8))));
           add_segment t pend 0 plen);
    t.pending.len <- 0;
    t.pending_count <- 0;
    t.dead <- true;
    Waitq.wake_all t.flush_wq
  end

let reopen t = t.dead <- false

(* ---- Replay -------------------------------------------------------------------- *)

(* Walk the durable bytes frame by frame, checking and decoding each frame
   where it lies; any incomplete header, oversized length, CRC mismatch or
   decode failure ends the valid prefix. *)
let scan t =
  let data = durable_bytes t in
  let total = Bytes.length data in
  let pos = ref 0 in
  let records = ref [] in
  let stop = ref false in
  while not !stop do
    if total - !pos < 16 then stop := true
    else begin
      let len = Int64.to_int (Bytes.get_int64_le data !pos) in
      let crc = Int64.to_int (Bytes.get_int64_le data (!pos + 8)) in
      if len <= 0 || len > total - !pos - 16 then stop := true
      else if crc32 data (!pos + 16) len <> crc then stop := true
      else
        match decode_record data (!pos + 16) len with
        | r ->
            records := r :: !records;
            pos := !pos + 16 + len
        | exception Corrupt -> stop := true
    end
  done;
  (List.rev !records, !pos, total - !pos)

let read_all t =
  let records, _, truncated = scan t in
  (records, truncated)

let truncate_damaged_tail t =
  let _, valid, truncated = scan t in
  if truncated > 0 then begin
    let whole = durable_bytes t in
    t.segments <- [];
    t.durable_len <- 0;
    add_segment t whole 0 valid
  end;
  t.synced <- t.durable_len;
  truncated

(* ---- Persistence ----------------------------------------------------------------- *)

let file_magic = "SSIWAL01"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc file_magic;
      List.iter (output_bytes oc) (List.rev t.segments))

let load ?obs ?flush_interval path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | image when not (String.starts_with ~prefix:file_magic image) ->
      Error (path ^ ": not a WAL file")
  | image ->
      let t = create ?obs ?flush_interval () in
      let n = String.length file_magic in
      add_segment t (Bytes.unsafe_of_string image) n (String.length image - n);
      t.synced <- t.durable_len;
      Ok t
