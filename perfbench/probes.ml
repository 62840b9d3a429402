(* Layer probes: each times one public function of a layer at a named
   shape, in wall nanoseconds and allocated words per call.  A probe is a
   batch function run a fixed number of calls at a time; the reported
   figures are medians over several batches after one warm-up batch. *)

module Btree = Ssi_btree.Btree
module Mvcc = Ssi_mvcc.Mvcc
module Heap = Ssi_storage.Heap
module Schema = Ssi_storage.Schema
module Predlock = Ssi_core.Predlock
module Lockmgr = Ssi_lockmgr.Lockmgr
module Net = Ssi_net.Net
open Workloads

let batches = 7

let measure ~calls batch =
  batch calls;
  let samples =
    List.init batches (fun _ ->
        let m0 = mark () in
        batch calls;
        let m1 = mark () in
        let per x = x /. float calls in
        (per ((m1.at -. m0.at) *. 1e9), per (m1.words -. m0.words)))
  in
  (Measure.median (List.map fst samples), Measure.median (List.map snd samples))

(* A cyclic stream of pseudo-random ints in [0, bound): lookups that defeat
   cache locality without paying for the generator inside the timing. *)
let stream ~bound =
  let rng = Rng.make 5 in
  let a = Array.init 4096 (fun _ -> Rng.int rng bound) in
  let i = ref 0 in
  fun () ->
    incr i;
    a.(!i land 4095)

let tree_of n =
  let t = Btree.create ~order:32 ~name:"probe" () in
  for k = 0 to n - 1 do
    ignore (Btree.insert t ~key:(vi (2 * k)) ~pk:(vi k))
  done;
  t

let lookup n calls_per_batch =
  let t = tree_of n and next = stream ~bound:n in
  ( calls_per_batch,
    fun calls ->
      for _ = 1 to calls do
        ignore (Btree.lookup t (vi (2 * next ())) ~pages:(ref []))
      done )

let range50 () =
  let t = tree_of 1000 and next = stream ~bound:950 in
  ( 2000,
    fun calls ->
      for _ = 1 to calls do
        let lo = 2 * next () in
        ignore (Btree.range t ~lo:(vi lo) ~hi:(vi (lo + 98)) ~pages:(ref []))
      done )

(* Fresh odd keys into a tree of 100k even keys, never repeating a key. *)
let insert100k () =
  let t = tree_of 100_000 and fresh = ref 0 in
  let rng = Rng.make 9 in
  let pool = Array.init 100_000 (fun k -> k) in
  for i = Array.length pool - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  ( 2000,
    fun calls ->
      for _ = 1 to calls do
        let k = pool.(!fresh) in
        incr fresh;
        ignore (Btree.insert t ~key:(vi ((2 * k) + 1)) ~pk:(vi k))
      done )

(* A row whose version chain has [len] versions, of which only the oldest
   is visible to the snapshot: the walk passes [len - 1] newer versions. *)
let visible len =
  let clog = Mvcc.Clog.create () in
  let heap = Heap.create (Schema.make ~name:"probe" ~cols:[ "k"; "v" ] ~key:"k") in
  let version prev =
    let x = Mvcc.Clog.new_xid clog in
    Option.iter (fun p -> Heap.set_xmax p x) prev;
    let v = Heap.insert_version heap ~key:(vi 1) ~row:[| vi 1; vi x |] ~xmin:x in
    ignore (Mvcc.Clog.commit clog x);
    v
  in
  let oldest = version None in
  let snapshot = Mvcc.Snapshot.take clog ~owner:0 in
  let head = ref oldest in
  for _ = 2 to len do
    head := version (Some !head)
  done;
  let head = !head in
  ( 20_000,
    fun calls ->
      for _ = 1 to calls do
        ignore (Mvcc.Visibility.latest_visible clog snapshot head)
      done )

(* Lock-then-release for a fresh owner each call, so the table stays small. *)
let predlock_lock keys =
  let pl = Predlock.create () and owner = ref 0 in
  let keys = List.init keys vi in
  ( (if List.length keys = 1 then 20_000 else 500),
    fun calls ->
      for _ = 1 to calls do
        incr owner;
        Predlock.lock_tuples_page pl ~owner:!owner ~rel:"probe" ~page:(!owner land 63) ~keys;
        Predlock.release_owner pl !owner
      done )

(* 64 readers holding 16 tuple locks each over 4096 keys (64 per page). *)
let readers_for_write () =
  let pl = Predlock.create () and rng = Rng.make 3 in
  for owner = 1 to 64 do
    for _ = 1 to 16 do
      let k = Rng.int rng 4096 in
      Predlock.lock_tuple pl ~owner ~rel:"probe" ~key:(vi k) ~page:(k / 64)
    done
  done;
  let next = stream ~bound:4096 in
  ( 20_000,
    fun calls ->
      for _ = 1 to calls do
        let k = next () in
        ignore (Predlock.readers_for_write pl ~rel:"probe" ~key:(vi k) ~page:(k / 64))
      done )

let lockmgr () =
  let lm = Lockmgr.create Waitq.direct and next = stream ~bound:4096 in
  ( 20_000,
    fun calls ->
      for _ = 1 to calls do
        Lockmgr.acquire lm ~owner:1 (Lockmgr.Relation "probe") Lockmgr.IX;
        Lockmgr.acquire lm ~owner:1 (Lockmgr.Tuple ("probe", vi (next ()))) Lockmgr.X;
        Lockmgr.release_all lm ~owner:1
      done )

let commit_record =
  Wal.Commit
    {
      c_xid = 7;
      c_cseq = 7;
      c_gid = None;
      c_ops =
        List.init 10 (fun k ->
            Wal.Update { table = "stock"; key = vi k; row = [| vi k; vi 3; vi 1; vi 50 |] });
      c_safe = true;
    }

(* Outside a simulation every append flushes; a fresh log per batch keeps
   the durable buffer from growing across batches. *)
let wal_append () =
  ( 2000,
    fun calls ->
      let w = Wal.create () in
      for _ = 1 to calls do
        ignore (Wal.append w commit_record)
      done )

let wal_record_bytes () =
  let w = Wal.create () in
  ignore (Wal.append w commit_record);
  float (Wal.durable_size w)

let obs_incr () =
  let c = Obs.counter (Obs.create ()) "probe" in
  ( 100_000,
    fun calls ->
      for _ = 1 to calls do
        Obs.incr c
      done )

let obs_observe () =
  let h = Obs.histogram (Obs.create ()) "probe" in
  ( 100_000,
    fun calls ->
      for i = 1 to calls do
        Obs.observe h (1e-6 *. float (1 + (i land 1023)))
      done )

let obs_span () =
  let obs = Obs.create () in
  ( 20_000,
    fun calls ->
      for _ = 1 to calls do
        Obs.Span.finish obs (Obs.Span.start obs "probe")
      done )

let sim_switch () =
  (20_000, fun calls -> ignore (Sim.run (fun () -> for _ = 1 to calls do Sim.yield () done)))

let sim_spawn () =
  (20_000, fun calls -> ignore (Sim.run (fun () -> for _ = 1 to calls do Sim.spawn ignore done)))

let net_send () =
  ( 5000,
    fun calls ->
      ignore
        (Sim.run (fun () ->
             let net = Net.create ~seed:1 () in
             Net.add_node net "a" ~handler:(fun ~src:_ _ -> ());
             Net.add_node net "b" ~handler:(fun ~src:_ _ -> ());
             for i = 1 to calls do
               Net.send net ~src:"a" ~dst:"b" i
             done)) )

let all =
  [
    ("btree.lookup_1k", fun () -> lookup 1000 20_000);
    ("btree.lookup_100k", fun () -> lookup 100_000 20_000);
    ("btree.range50_1k", range50);
    ("btree.insert_100k", insert100k);
    ("mvcc.visible_chain1", fun () -> visible 1);
    ("mvcc.visible_chain16", fun () -> visible 16);
    ("predlock.lock_page50", fun () -> predlock_lock 50);
    ("predlock.lock_tuple", fun () -> predlock_lock 1);
    ("predlock.readers_for_write", readers_for_write);
    ("lockmgr.acquire_release", lockmgr);
    ("wal.append_flush", wal_append);
    ("obs.incr", obs_incr);
    ("obs.observe", obs_observe);
    ("obs.span", obs_span);
    ("sim.switch", sim_switch);
    ("sim.spawn", sim_spawn);
    ("net.send_deliver", net_send);
  ]

(* [name.ns] and [name.words] for every probe, plus the encoded size of the
   10-op commit record the WAL probe appends. *)
let run () =
  List.concat_map
    (fun (name, make) ->
      let calls, batch = make () in
      let ns, words = measure ~calls batch in
      [ (name ^ ".ns", ns); (name ^ ".words", words) ])
    all
  @ [ ("wal.record_bytes", wal_record_bytes ()) ]
