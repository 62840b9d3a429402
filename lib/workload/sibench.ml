open Ssi_storage
open Ssi_util
module E = Ssi_engine.Engine

let table = "sibench"

let setup ~rows db =
  E.create_table db ~name:table ~cols:[ "k"; "v" ] ~key:"k";
  let rng = Rng.make 7 in
  E.with_txn db (fun t ->
      for k = 0 to rows - 1 do
        E.insert t ~table [| Value.Int k; Value.Int (Rng.int rng 1_000_000) |]
      done)

let query_min ~rows ~chunk txn =
  let best_key = ref (-1) and best = ref max_int in
  let k = ref 0 in
  while !k < rows do
    let hi = min (rows - 1) (!k + chunk - 1) in
    let rows_chunk =
      E.index_scan txn ~table ~index:(table ^ "_pkey") ~lo:(Value.Int !k) ~hi:(Value.Int hi)
    in
    List.iter
      (fun row ->
        let v = Value.as_int row.(1) in
        if v < !best then begin
          best := v;
          best_key := Value.as_int row.(0)
        end)
      rows_chunk;
    k := hi + 1
  done;
  (!best_key, !best)

let update_one rng ~rows txn =
  let k = Rng.int rng rows in
  ignore
    (E.update txn ~table ~key:(Value.Int k) ~f:(fun row ->
         [| row.(0); Value.Int (Rng.int rng 1_000_000) |]))

(* The routed form of the query: same min-of-table aggregate, read
   through whichever backend the fleet router picked. *)
let query_min_routed ro =
  let best = ref max_int in
  List.iter
    (fun row ->
      let v = Value.as_int row.(1) in
      if v < !best then best := v)
    (E.seq_scan (Ssi_replication.Router.txn ro) ~table ());
  !best

let specs ~rows ?(chunk = 50) () =
  [
    {
      Driver.name = "update";
      weight = 1.0;
      read_only = false;
      body = (fun rng txn -> update_one rng ~rows txn);
      routed = None;
    };
    {
      Driver.name = "query";
      weight = 1.0;
      read_only = true;
      body = (fun _rng txn -> ignore (query_min ~rows ~chunk txn));
      routed = Some (fun _rng ro -> ignore (query_min_routed ro));
    };
  ]
