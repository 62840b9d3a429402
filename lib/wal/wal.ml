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
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 bytes =
  let tbl = Lazy.force crc_table in
  let c = ref 0xffffffff in
  Bytes.iter (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) bytes;
  !c lxor 0xffffffff

(* ---- Binary encoding ------------------------------------------------------- *)

exception Corrupt
(* Any decode overrun or unknown tag: the reader treats the rest of the
   log as a damaged tail. *)

let w_int b n = Buffer.add_int64_le b (Int64.of_int n)
let w_u8 b n = Buffer.add_uint8 b (n land 0xff)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let w_value b = function
  | Value.Null -> w_u8 b 0
  | Value.Bool v ->
      w_u8 b 1;
      w_bool b v
  | Value.Int n ->
      w_u8 b 2;
      w_int b n
  | Value.Float f ->
      w_u8 b 3;
      Buffer.add_int64_le b (Int64.bits_of_float f)
  | Value.Str s ->
      w_u8 b 4;
      w_str b s

let w_row b row =
  w_int b (Array.length row);
  Array.iter (w_value b) row

let w_op b = function
  | Insert { table; key; row } ->
      w_u8 b 0;
      w_str b table;
      w_value b key;
      w_row b row
  | Update { table; key; row } ->
      w_u8 b 1;
      w_str b table;
      w_value b key;
      w_row b row
  | Delete { table; key } ->
      w_u8 b 2;
      w_str b table;
      w_value b key

let w_target b = function
  | Predlock.Relation rel ->
      w_u8 b 0;
      w_str b rel
  | Predlock.Page (rel, page) ->
      w_u8 b 1;
      w_str b rel;
      w_int b page
  | Predlock.Tuple (rel, key) ->
      w_u8 b 2;
      w_str b rel;
      w_value b key
  | Predlock.Index_page (index, page) ->
      w_u8 b 3;
      w_str b index;
      w_int b page
  | Predlock.Index_key (index, key) ->
      w_u8 b 4;
      w_str b index;
      w_value b key
  | Predlock.Index_inf index ->
      w_u8 b 5;
      w_str b index
  | Predlock.Index_rel index ->
      w_u8 b 6;
      w_str b index

let w_table_def b d =
  w_str b d.d_name;
  w_list b w_str d.d_cols;
  w_str b d.d_key

let w_index_def b i =
  w_str b i.i_name;
  w_str b i.i_column;
  w_bool b i.i_pred_locks;
  w_bool b i.i_next_key

let w_prepared b p =
  w_int b p.p_xid;
  w_str b p.p_gid;
  w_int b p.p_snap_cseq;
  w_list b w_op p.p_ops;
  w_list b w_target p.p_sireads

let w_table_image b s =
  w_table_def b s.s_def;
  w_list b w_index_def s.s_indexes;
  w_list b w_row s.s_rows

let encode_record r =
  let b = Buffer.create 128 in
  (match r with
  | Schema d ->
      w_u8 b 1;
      w_table_def b d
  | Index { table; def } ->
      w_u8 b 2;
      w_str b table;
      w_index_def b def
  | Commit { c_xid; c_cseq; c_gid; c_ops; c_safe } ->
      w_u8 b 3;
      w_int b c_xid;
      w_int b c_cseq;
      (match c_gid with
      | None -> w_u8 b 0
      | Some g ->
          w_u8 b 1;
          w_str b g);
      w_list b w_op c_ops;
      w_bool b c_safe
  | Prepare p ->
      w_u8 b 4;
      w_prepared b p
  | Abort { a_xid; a_gid } ->
      w_u8 b 5;
      w_int b a_xid;
      w_str b a_gid
  | Checkpoint { k_cseq; k_tables; k_prepared } ->
      w_u8 b 6;
      w_int b k_cseq;
      w_list b w_table_image k_tables;
      w_list b w_prepared k_prepared
  | Epoch e ->
      w_u8 b 7;
      w_int b e);
  Buffer.to_bytes b

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

let decode_record payload =
  let rd = { buf = payload; pos = 0; limit = Bytes.length payload } in
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
  mutable durable : Buffer.t;  (** bytes physically on the device *)
  mutable synced : int;
      (** prefix of [durable] a clean fsync confirmed — a crash may deposit
          mangled bytes past this watermark, and only bytes below it count
          as acknowledged to {!wait_durable} *)
  pending : Buffer.t;  (** staged appends, lost (or mangled) by a crash *)
  mutable pending_count : int;
  mutable interval : float;
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
  let t =
    {
      durable = Buffer.create 4096;
      synced = 0;
      pending = Buffer.create 1024;
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
  in
  t

let set_obs t obs = register obs t
let set_flush_interval t i = t.interval <- i
let flush_interval t = t.interval
let is_dead t = t.dead
let durable_size t = Buffer.length t.durable
let pending_size t = Buffer.length t.pending
let pending_records t = t.pending_count

let flush t =
  if (not t.dead) && Buffer.length t.pending > 0 then begin
    Buffer.add_buffer t.durable t.pending;
    t.synced <- Buffer.length t.durable;
    Obs.incr t.c_flushes;
    Obs.observe t.h_group (float_of_int t.pending_count);
    Buffer.clear t.pending;
    t.pending_count <- 0;
    Obs.set_gauge t.g_pending 0.;
    Waitq.wake_all t.flush_wq
  end

let frame payload =
  let b = Buffer.create (Bytes.length payload + 16) in
  w_int b (Bytes.length payload);
  w_int b (crc32 payload);
  Buffer.add_bytes b payload;
  b

let append t r =
  if t.dead then lost ();
  Buffer.add_buffer t.pending (frame (encode_record r));
  t.pending_count <- t.pending_count + 1;
  Obs.incr t.c_appends;
  Obs.set_gauge t.g_pending (float_of_int t.pending_count);
  let lsn = Buffer.length t.durable + Buffer.length t.pending in
  if t.interval <= 0. || not (Sim.running ()) then flush t
  else if not t.flush_scheduled then begin
    t.flush_scheduled <- true;
    Sim.at ~after:t.interval (fun () ->
        t.flush_scheduled <- false;
        if not t.dead then flush t)
  end;
  lsn

let wait_durable t (sched : Waitq.scheduler) lsn =
  while (not t.dead) && t.synced < lsn do
    sched.Waitq.suspend t.flush_wq
  done;
  if t.synced < lsn then lost ()

type damage = Torn_write of int | Short_write of int | Bit_flip of int

let crash ?damage t =
  if not t.dead then begin
    let pend = Buffer.to_bytes t.pending in
    let plen = Bytes.length pend in
    (if plen > 0 then
       match damage with
       | None -> ()
       | Some (Torn_write k) -> Buffer.add_subbytes t.durable pend 0 (max 0 (min k plen))
       | Some (Short_write n) -> Buffer.add_subbytes t.durable pend 0 (max 0 (plen - n))
       | Some (Bit_flip i) ->
           let bits = plen * 8 in
           let bit = ((i mod bits) + bits) mod bits in
           let byte = bit / 8 in
           Bytes.set pend byte
             (Char.chr (Char.code (Bytes.get pend byte) lxor (1 lsl (bit mod 8))));
           Buffer.add_bytes t.durable pend);
    Buffer.clear t.pending;
    t.pending_count <- 0;
    t.dead <- true;
    Waitq.wake_all t.flush_wq
  end

let reopen t = t.dead <- false

(* ---- Replay -------------------------------------------------------------------- *)

(* Walk the durable region frame by frame; any incomplete header, oversized
   length, CRC mismatch or decode failure ends the valid prefix. *)
let scan t =
  let data = Buffer.to_bytes t.durable in
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
      else begin
        let payload = Bytes.sub data (!pos + 16) len in
        if crc32 payload <> crc then stop := true
        else
          match decode_record payload with
          | r ->
              records := r :: !records;
              pos := !pos + 16 + len
          | exception Corrupt -> stop := true
      end
    end
  done;
  (List.rev !records, !pos, total - !pos)

let read_all t =
  let records, _, truncated = scan t in
  (records, truncated)

let truncate_damaged_tail t =
  let _, valid, truncated = scan t in
  if truncated > 0 then begin
    let keep = Buffer.sub t.durable 0 valid in
    let b = Buffer.create (max 4096 valid) in
    Buffer.add_string b keep;
    t.durable <- b
  end;
  t.synced <- Buffer.length t.durable;
  truncated

(* ---- Persistence ----------------------------------------------------------------- *)

let file_magic = "SSIWAL01"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc file_magic;
      Buffer.output_buffer oc t.durable)

let load ?obs ?flush_interval path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | image when not (String.starts_with ~prefix:file_magic image) ->
      Error (path ^ ": not a WAL file")
  | image ->
      let t = create ?obs ?flush_interval () in
      let n = String.length file_magic in
      Buffer.add_substring t.durable image n (String.length image - n);
      t.synced <- Buffer.length t.durable;
      Ok t
