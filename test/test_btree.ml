(* B+-tree: model-based property tests against a sorted association list,
   structural invariants, split hooks and page reporting. *)

open Ssi_storage
module Btree = Ssi_btree.Btree

let vi i = Value.Int i

(* Reference model: sorted list of (key, pk) pairs. *)
module Model = struct
  let insert t k pk = List.sort_uniq compare ((k, pk) :: t)
  let delete t k pk = List.filter (fun e -> e <> (k, pk)) t
  let range t lo hi = List.filter (fun (k, _) -> k >= lo && k <= hi) (List.sort compare t)
end

type op = Ins of int * int | Del of int * int | Range of int * int

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k pk -> Ins (k, pk)) (int_range 0 100) (int_range 0 5);
        map2 (fun k pk -> Del (k, pk)) (int_range 0 100) (int_range 0 5);
        map2 (fun a b -> Range (min a b, max a b)) (int_range 0 100) (int_range 0 100);
      ])

let print_op = function
  | Ins (k, pk) -> Printf.sprintf "Ins(%d,%d)" k pk
  | Del (k, pk) -> Printf.sprintf "Del(%d,%d)" k pk
  | Range (a, b) -> Printf.sprintf "Range(%d,%d)" a b

let ops_arb = QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (int_range 0 400) op_gen)

let prop_model ~order =
  QCheck.Test.make
    ~name:(Printf.sprintf "btree(order=%d) matches model" order)
    ~count:60 ops_arb
    (fun ops ->
      let t = Btree.create ~order ~name:"m" () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Ins (k, pk) ->
              ignore (Btree.insert t ~key:(vi k) ~pk:(vi pk));
              model := Model.insert !model k pk;
              Btree.check_invariants t;
              true
          | Del (k, pk) ->
              let was = List.mem (k, pk) !model in
              let deleted = Btree.delete t ~key:(vi k) ~pk:(vi pk) in
              model := Model.delete !model k pk;
              Btree.check_invariants t;
              was = deleted
          | Range (lo, hi) ->
              let pages = ref [] in
              let entries = Btree.range t ~lo:(vi lo) ~hi:(vi hi) ~pages in
              let got = List.map (fun (k, pk) -> (Value.as_int k, Value.as_int pk)) entries in
              (* The walkers announce the same leaf pages, leftmost first,
                 and [walk] the same entries, each after its page. *)
              let walked_pages = ref [] and walked = ref [] in
              Btree.walk t ~lo:(vi lo) ~hi:(vi hi)
                ~page:(fun p -> walked_pages := p :: !walked_pages)
                ~entry:(fun k pk -> walked := (k, pk, List.hd !walked_pages) :: !walked);
              (* An entry's page is one a point lookup of its key examines. *)
              let on_leaf (k, _, page) =
                let lp = ref [] in
                ignore (Btree.lookup t k ~pages:lp);
                List.mem page !lp
              in
              let page_walk = ref [] in
              Btree.walk_pages t ~lo:(vi lo) ~hi:(vi hi) ~page:(fun p ->
                  page_walk := p :: !page_walk);
              got = Model.range !model lo hi
              && !pages <> []
              && !walked_pages = !pages
              && !page_walk = !pages
              && List.rev_map (fun (k, pk, _) -> (k, pk)) !walked = entries
              && List.for_all on_leaf !walked)
        ops
      && Btree.cardinal t = List.length !model)

let test_idempotent_insert () =
  let t = Btree.create ~name:"i" () in
  let _, added1 = Btree.insert t ~key:(vi 1) ~pk:(vi 1) in
  let _, added2 = Btree.insert t ~key:(vi 1) ~pk:(vi 1) in
  Alcotest.(check bool) "first insert adds" true added1;
  Alcotest.(check bool) "second is a no-op" false added2;
  Alcotest.(check int) "cardinal" 1 (Btree.cardinal t)

let test_duplicate_keys_distinct_pks () =
  let t = Btree.create ~name:"d" () in
  List.iter (fun pk -> ignore (Btree.insert t ~key:(vi 7) ~pk:(vi pk))) [ 1; 2; 3 ];
  let pages = ref [] in
  Alcotest.(check int) "all pks under one key" 3 (List.length (Btree.lookup t (vi 7) ~pages))

let test_split_hook () =
  let t = Btree.create ~order:4 ~name:"s" () in
  let splits = ref [] in
  Btree.set_on_split t (fun ~old_page ~new_page -> splits := (old_page, new_page) :: !splits);
  for i = 1 to 50 do
    ignore (Btree.insert t ~key:(vi i) ~pk:(vi i))
  done;
  Alcotest.(check bool) "splits happened" true (List.length !splits > 5);
  Btree.check_invariants t;
  (* Every leaf page id must have appeared as a new_page (except the
     original page 0). *)
  let leaves = Btree.leaf_pages t in
  List.iter
    (fun lid ->
      if lid <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "page %d announced by split hook" lid)
          true
          (List.exists (fun (_, np) -> np = lid) !splits))
    leaves

let test_empty_range_reports_page () =
  (* Scanning an empty region still examines (and reports) the leaf that
     covers the gap — that page is what the SIREAD lock protects. *)
  let t = Btree.create ~name:"e" () in
  ignore (Btree.insert t ~key:(vi 10) ~pk:(vi 10));
  let pages = ref [] in
  let hits = Btree.range t ~lo:(vi 50) ~hi:(vi 60) ~pages in
  Alcotest.(check int) "no entries" 0 (List.length hits);
  Alcotest.(check bool) "gap page reported" true (!pages <> [])

let test_boundary_page_reported () =
  (* A scan that stops at an entry beyond [hi] reports that entry's page
     too: the gap just past [hi] is covered. *)
  let t = Btree.create ~order:4 ~name:"b" () in
  for i = 0 to 40 do
    ignore (Btree.insert t ~key:(vi i) ~pk:(vi i))
  done;
  let pages = ref [] in
  let hits = Btree.range t ~lo:(vi 5) ~hi:(vi 6) ~pages in
  Alcotest.(check int) "two entries" 2 (List.length hits);
  Alcotest.(check bool) "at least the covering page" true (List.length !pages >= 1)

let test_height_growth () =
  let t = Btree.create ~order:4 ~name:"h" () in
  Alcotest.(check int) "empty height" 1 (Btree.height t);
  for i = 1 to 200 do
    ignore (Btree.insert t ~key:(vi i) ~pk:(vi i))
  done;
  Alcotest.(check bool) "height grew" true (Btree.height t >= 3);
  Btree.check_invariants t

let test_iter_in_order () =
  let t = Btree.create ~order:4 ~name:"o" () in
  let keys = [ 5; 3; 9; 1; 7; 2; 8; 4; 6; 0 ] in
  List.iter (fun k -> ignore (Btree.insert t ~key:(vi k) ~pk:(vi k))) keys;
  let got = ref [] in
  Btree.iter t (fun k _ -> got := Value.as_int k :: !got);
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !got)

let test_mixed_value_types () =
  let t = Btree.create ~name:"v" () in
  ignore (Btree.insert t ~key:(Value.Str "b") ~pk:(vi 1));
  ignore (Btree.insert t ~key:(Value.Str "a") ~pk:(vi 2));
  let pages = ref [] in
  let hits = Btree.range t ~lo:(Value.Str "a") ~hi:(Value.Str "b") ~pages in
  Alcotest.(check int) "string keys" 2 (List.length hits)

let test_next_key_after () =
  let t = Btree.create ~order:4 ~name:"nk" () in
  List.iter (fun k -> ignore (Btree.insert t ~key:(vi k) ~pk:(vi k))) [ 10; 20; 20; 30 ];
  ignore (Btree.insert t ~key:(vi 20) ~pk:(vi 21)) (* duplicate index key *);
  let nk k = Btree.next_key_after t (vi k) in
  Alcotest.(check bool) "below all" true (nk 5 = Some (vi 10));
  Alcotest.(check bool) "skips duplicates" true (nk 20 = Some (vi 30));
  Alcotest.(check bool) "between" true (nk 15 = Some (vi 20));
  Alcotest.(check bool) "at top" true (nk 30 = None);
  Alcotest.(check bool) "above all" true (nk 99 = None)

let prop_next_key_model =
  QCheck.Test.make ~name:"next_key_after matches model" ~count:100
    QCheck.(list (int_range 0 50))
    (fun keys ->
      let t = Btree.create ~order:4 ~name:"nkm" () in
      List.iter (fun k -> ignore (Btree.insert t ~key:(vi k) ~pk:(vi k))) keys;
      let sorted = List.sort_uniq compare keys in
      List.for_all
        (fun probe ->
          let expected = List.find_opt (fun k -> k > probe) sorted in
          Btree.next_key_after t (vi probe) = Option.map vi expected)
        (List.init 52 (fun i -> i - 1)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "btree"
    [
      qsuite "model" [ prop_model ~order:4; prop_model ~order:8; prop_model ~order:32 ];
      ( "structure",
        [
          Alcotest.test_case "idempotent insert" `Quick test_idempotent_insert;
          Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys_distinct_pks;
          Alcotest.test_case "split hook" `Quick test_split_hook;
          Alcotest.test_case "empty range reports page" `Quick test_empty_range_reports_page;
          Alcotest.test_case "boundary page reported" `Quick test_boundary_page_reported;
          Alcotest.test_case "height growth" `Quick test_height_growth;
          Alcotest.test_case "iter in order" `Quick test_iter_in_order;
          Alcotest.test_case "string keys" `Quick test_mixed_value_types;
          Alcotest.test_case "next_key_after" `Quick test_next_key_after;
        ] );
      qsuite "next-key" [ prop_next_key_model ];
    ]
