(* Storage substrate: values, schemas, and the versioned heap. *)

open Ssi_storage

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---- Value -------------------------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.);
        map (fun s -> Value.Str s) (string_size (int_range 0 6));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    QCheck.(pair value_arb value_arb)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500
    QCheck.(pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let test_numeric_cross_type () =
  Alcotest.(check bool) "Int = Float" true (Value.equal (Value.Int 3) (Value.Float 3.));
  Alcotest.(check int) "hash compatible" (Value.hash (Value.Int 3))
    (Value.hash (Value.Float 3.));
  Alcotest.(check bool) "Int < Float" true
    (Value.compare (Value.Int 3) (Value.Float 3.5) < 0)

let test_value_rank_order () =
  Alcotest.(check bool) "Null < Bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "Bool < Int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  Alcotest.(check bool) "Int < Str" true (Value.compare (Value.Int 999) (Value.Str "") < 0)

let test_accessors () =
  Alcotest.(check int) "as_int" 5 (Value.as_int (Value.Int 5));
  Alcotest.(check (float 0.)) "as_float of int" 5. (Value.as_float (Value.Int 5));
  Alcotest.check_raises "as_int of Str" (Invalid_argument "Value.as_int: \"x\"") (fun () ->
      ignore (Value.as_int (Value.Str "x")))

(* ---- Schema -------------------------------------------------------------- *)

let test_schema_basics () =
  let s = Schema.make ~name:"t" ~cols:[ "a"; "b"; "c" ] ~key:"b" in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "key index" 1 (Schema.key_index s);
  Alcotest.(check int) "column index" 2 (Schema.column_index s "c");
  Alcotest.(check bool) "key_of_row" true
    (Value.equal (Value.Int 7)
       (Schema.key_of_row s [| Value.Null; Value.Int 7; Value.Null |]))

let test_schema_errors () =
  let open Ssi_util.Db_error in
  Alcotest.check_raises "duplicate column"
    (Error (Duplicate_object "Schema.make: duplicate column a")) (fun () ->
      ignore (Schema.make ~name:"t" ~cols:[ "a"; "a" ] ~key:"a"));
  Alcotest.check_raises "unknown key"
    (Error (Undefined_object "Schema.make: unknown key column z"))
    (fun () -> ignore (Schema.make ~name:"t" ~cols:[ "a" ] ~key:"z"));
  let s = Schema.make ~name:"t" ~cols:[ "a" ] ~key:"a" in
  Alcotest.check_raises "arity mismatch"
    (Error (Invalid_request "Schema.check_row: table t expects 1 columns, got 2")) (fun () ->
      Schema.check_row s [| Value.Null; Value.Null |])

(* ---- Heap ------------------------------------------------------------------ *)

let schema = Schema.make ~name:"h" ~cols:[ "k"; "v" ] ~key:"k"
let row k v = [| Value.Int k; Value.Int v |]

let test_heap_version_chain () =
  let h = Heap.create schema in
  let v1 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 10) ~xmin:5 in
  Heap.set_xmax v1 6;
  let v2 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 20) ~xmin:6 in
  (match Heap.head h (Value.Int 1) with
  | Some head ->
      Alcotest.(check bool) "head is newest" true (head == v2);
      Alcotest.(check int) "chain length" 2 (List.length (List.of_seq (Heap.versions head)))
  | None -> Alcotest.fail "missing head");
  Alcotest.(check int) "cardinal" 1 (Heap.cardinal h)

let test_heap_unlink () =
  let h = Heap.create schema in
  let v1 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 10) ~xmin:5 in
  ignore (Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 20) ~xmin:6);
  Heap.unlink_head h (Value.Int 1);
  (match Heap.head h (Value.Int 1) with
  | Some head -> Alcotest.(check bool) "old version restored" true (head == v1)
  | None -> Alcotest.fail "chain vanished");
  Heap.unlink_head h (Value.Int 1);
  Alcotest.(check bool) "empty" true (Heap.head h (Value.Int 1) = None);
  Alcotest.check_raises "unlink empty" (Invalid_argument "Heap.unlink_head: no versions for key")
    (fun () -> Heap.unlink_head h (Value.Int 1))

let test_heap_pages () =
  let h = Heap.create ~tuples_per_page:4 schema in
  let pages =
    List.init 10 (fun i ->
        let t = Heap.insert_version h ~key:(Value.Int i) ~row:(row i 0) ~xmin:1 in
        Heap.page_of_tid t.Heap.tid)
  in
  Alcotest.(check int) "npages" 3 (Heap.npages h);
  Alcotest.(check (list int))
    "page assignment" [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2 ]
    pages

let test_heap_rewrite () =
  let h = Heap.create ~tuples_per_page:4 schema in
  let t0 = Heap.insert_version h ~key:(Value.Int 0) ~row:(row 0 0) ~xmin:1 in
  for i = 1 to 7 do
    ignore (Heap.insert_version h ~key:(Value.Int i) ~row:(row i 0) ~xmin:1)
  done;
  let gen0 = Heap.generation h in
  let old_tid = t0.Heap.tid in
  Heap.rewrite h;
  Alcotest.(check int) "generation bumped" (gen0 + 1) (Heap.generation h);
  Alcotest.(check bool) "relocated (or at least reassigned)" true
    (Heap.head h (Value.Int 0) <> None);
  ignore old_tid;
  (* All tids must be unique after the rewrite. *)
  let tids = ref [] in
  Heap.iter_heads h (fun t -> tids := t.Heap.tid :: !tids);
  let sorted = List.sort_uniq compare !tids in
  Alcotest.(check int) "unique tids" 8 (List.length sorted)

let test_heap_prune () =
  let h = Heap.create schema in
  let v1 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 10) ~xmin:2 in
  Heap.set_xmax v1 3;
  let v2 = Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 20) ~xmin:3 in
  Heap.set_xmax v2 4;
  ignore (Heap.insert_version h ~key:(Value.Int 1) ~row:(row 1 30) ~xmin:4);
  (* Keep only the newest two versions. *)
  Heap.prune h ~live:(fun v -> v.Heap.xmin >= 3);
  match Heap.head h (Value.Int 1) with
  | None -> Alcotest.fail "chain vanished"
  | Some head ->
      Alcotest.(check int) "pruned chain" 2 (List.length (List.of_seq (Heap.versions head)))

let test_heap_fold_iter () =
  let h = Heap.create schema in
  for i = 0 to 9 do
    ignore (Heap.insert_version h ~key:(Value.Int i) ~row:(row i i) ~xmin:1)
  done;
  let sum = Heap.fold_heads h ~init:0 ~f:(fun acc t -> acc + Value.as_int t.Heap.row.(1)) in
  Alcotest.(check int) "fold over heads" 45 sum;
  let n = ref 0 in
  Heap.iter_heads h (fun _ -> incr n);
  Alcotest.(check int) "iter count" 10 !n

let () =
  Alcotest.run "storage"
    [
      ( "value",
        [
          Alcotest.test_case "numeric cross-type" `Quick test_numeric_cross_type;
          Alcotest.test_case "rank order" `Quick test_value_rank_order;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      qsuite "value-props" [ prop_compare_total_order; prop_equal_hash ];
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "errors" `Quick test_schema_errors;
        ] );
      ( "heap",
        [
          Alcotest.test_case "version chain" `Quick test_heap_version_chain;
          Alcotest.test_case "unlink head" `Quick test_heap_unlink;
          Alcotest.test_case "page assignment" `Quick test_heap_pages;
          Alcotest.test_case "rewrite relocates" `Quick test_heap_rewrite;
          Alcotest.test_case "prune" `Quick test_heap_prune;
          Alcotest.test_case "fold/iter" `Quick test_heap_fold_iter;
        ] );
    ]
