(* The SSI lock manager: SIREAD lock bookkeeping, granularity promotion,
   conflict lookup order, summarization, DDL transfers (§5.2, §6.2). *)

open Ssi_storage
module Predlock = Ssi_core.Predlock
open Predlock

let vi i = Value.Int i

let small_config =
  { max_tuple_locks_per_page = 2; max_page_locks_per_relation = 2; max_page_locks_per_index = 2 }

let test_tuple_lock_and_lookup () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "reader found" [ 1 ] r.xids;
  let r2 = readers_for_write t ~rel:"r" ~key:(vi 2) ~page:0 in
  Alcotest.(check (list int)) "other key clear" [] r2.xids

let test_page_lock_covers_tuples () =
  let t = create () in
  lock_page t ~owner:1 ~rel:"r" ~page:3;
  let r = readers_for_write t ~rel:"r" ~key:(vi 99) ~page:3 in
  Alcotest.(check (list int)) "page lock covers any tuple on it" [ 1 ] r.xids

let test_relation_lock_covers_all () =
  let t = create () in
  lock_relation t ~owner:1 ~rel:"r";
  let r = readers_for_write t ~rel:"r" ~key:(vi 5) ~page:77 in
  Alcotest.(check (list int)) "relation lock covers everything" [ 1 ] r.xids

let test_promotion_tuple_to_page () =
  let t = create ~config:small_config () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 2) ~page:0;
  Alcotest.(check bool) "no page lock yet" false (holds t ~owner:1 (Page ("r", 0)));
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 3) ~page:0;
  Alcotest.(check bool) "promoted to page" true (holds t ~owner:1 (Page ("r", 0)));
  Alcotest.(check bool) "tuple locks dropped" false (holds t ~owner:1 (Tuple ("r", vi 1)));
  (* Coverage is preserved. *)
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "still covered" [ 1 ] r.xids;
  Alcotest.(check bool) "promotions counted" true (promotions t > 0)

let test_promotion_page_to_relation () =
  let t = create ~config:small_config () in
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  lock_page t ~owner:1 ~rel:"r" ~page:1;
  lock_page t ~owner:1 ~rel:"r" ~page:2;
  Alcotest.(check bool) "promoted to relation" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check bool) "page locks dropped" false (holds t ~owner:1 (Page ("r", 0)));
  Alcotest.(check int) "single lock left" 1 (owner_lock_count t 1)

let test_promotion_index () =
  let t = create ~config:small_config () in
  lock_index_page t ~owner:1 ~index:"i" ~page:0;
  lock_index_page t ~owner:1 ~index:"i" ~page:1;
  lock_index_page t ~owner:1 ~index:"i" ~page:2;
  Alcotest.(check bool) "whole-index lock" true (holds t ~owner:1 (Index_rel "i"));
  let r = readers_for_index_insert t ~index:"i" ~page:9 in
  Alcotest.(check (list int)) "covers all pages" [ 1 ] r.xids

let test_no_finer_lock_under_coarser () =
  let t = create () in
  lock_relation t ~owner:1 ~rel:"r";
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  Alcotest.(check int) "only the relation lock" 1 (owner_lock_count t 1)

let test_unlock_tuple () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  unlock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1);
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "dropped" [] r.xids;
  (* Dropping a promoted-away tuple lock is a no-op, not an error. *)
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  unlock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1);
  Alcotest.(check bool) "page lock untouched" true (holds t ~owner:1 (Page ("r", 0)))

let test_multiple_owners () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_relation t ~owner:3 ~rel:"r";
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  (match r.xids with
  | 3 :: rest ->
      Alcotest.(check (list int)) "tuple readers follow" [ 1; 2 ] (List.sort compare rest)
  | other ->
      Alcotest.failf "expected relation reader first, got [%s]"
        (String.concat ";" (List.map string_of_int other)))

let test_release_owner () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_relation t ~owner:1 ~rel:"s";
  release_owner t 1;
  Alcotest.(check int) "no locks" 0 (total_lock_count t);
  Alcotest.(check int) "owner cleared" 0 (owner_lock_count t 1)

let test_summarize_owner () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  summarize_owner t 1 ~cseq:42;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (list int)) "no named reader" [] r.xids;
  Alcotest.(check (option int)) "dummy owner with cseq" (Some 42) r.old_committed;
  (* A later summarized holder raises the recorded cseq. *)
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 1) ~page:0;
  summarize_owner t 2 ~cseq:50;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "latest cseq" (Some 50) r.old_committed

(* A released or summarized owner's bookkeeping is recycled for the next
   owner: it must come back empty.  Owner 1 ends covering relation [r]
   (the coverage cache) and holding page [r/0] (the page memo), so a
   state that kept either would let owner 2's tuple read on that page
   skip its lock. *)
let check_recycled_state_empty ~finish () =
  let t = create () in
  lock_page t ~owner:1 ~rel:"r" ~page:0;
  lock_relation t ~owner:1 ~rel:"r";
  Alcotest.(check bool) "owner 1 covers r" true (holds t ~owner:1 (Relation "r"));
  finish t 1;
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 7) ~page:0;
  Alcotest.(check bool) "owner 2 holds the tuple lock" true (holds t ~owner:2 (Tuple ("r", vi 7)));
  Alcotest.(check bool) "owner 2 holds no relation lock" false (holds t ~owner:2 (Relation "r"));
  Alcotest.(check bool) "owner 2 holds no page lock" false (holds t ~owner:2 (Page ("r", 0)));
  Alcotest.(check int) "owner 2 holds one lock" 1 (owner_lock_count t 2);
  Alcotest.(check (list (pair string (list int))))
    "owner 2's entries"
    [ ("tuple:r/7", [ 2 ]) ]
    (List.filter_map
       (fun (target, holders, _) ->
         if List.mem 2 holders then Some (target_to_string target, holders) else None)
       (dump t))

let test_released_state_recycled_empty () = check_recycled_state_empty ~finish:release_owner ()

let test_summarized_state_recycled_empty () =
  check_recycled_state_empty ~finish:(fun t owner -> summarize_owner t owner ~cseq:5) ()

let test_cleanup_old_committed () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  summarize_owner t 1 ~cseq:10;
  cleanup_old_committed t ~before:10;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "not yet stale (cseq = horizon)" (Some 10) r.old_committed;
  cleanup_old_committed t ~before:11;
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "cleaned" None r.old_committed;
  Alcotest.(check int) "table empty" 0 (total_lock_count t)

let test_index_page_split_copies () =
  let t = create () in
  lock_index_page t ~owner:1 ~index:"i" ~page:0;
  lock_index_page t ~owner:2 ~index:"i" ~page:0;
  summarize_owner t 2 ~cseq:7;
  on_index_page_split t ~index:"i" ~old_page:0 ~new_page:5;
  let r = readers_for_index_insert t ~index:"i" ~page:5 in
  Alcotest.(check (list int)) "named owner copied" [ 1 ] r.xids;
  Alcotest.(check (option int)) "dummy copied" (Some 7) r.old_committed;
  let r0 = readers_for_index_insert t ~index:"i" ~page:0 in
  Alcotest.(check (list int)) "old page untouched" [ 1 ] r0.xids

let test_ddl_promote_relation () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_page t ~owner:2 ~rel:"r" ~page:1;
  lock_tuple t ~owner:3 ~rel:"s" ~key:(vi 1) ~page:0;
  summarize_owner t 3 ~cseq:5;
  lock_tuple t ~owner:4 ~rel:"r" ~key:(vi 9) ~page:2;
  summarize_owner t 4 ~cseq:6;
  promote_relation t ~rel:"r";
  Alcotest.(check bool) "owner1 promoted" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check bool) "owner2 promoted" true (holds t ~owner:2 (Relation "r"));
  Alcotest.(check bool) "fine locks gone" false (holds t ~owner:1 (Tuple ("r", vi 1)));
  let r = readers_for_write t ~rel:"r" ~key:(vi 1234) ~page:99 in
  Alcotest.(check bool) "everything covered" true
    (List.sort compare r.xids = [ 1; 2 ] && r.old_committed = Some 6);
  (* Other relations untouched. *)
  let s = readers_for_write t ~rel:"s" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "relation s dummy kept" (Some 5) s.old_committed

let test_ddl_drop_index () =
  let t = create () in
  lock_index_page t ~owner:1 ~index:"i" ~page:0;
  lock_index_rel t ~owner:2 ~index:"i";
  lock_index_page t ~owner:3 ~index:"i" ~page:1;
  summarize_owner t 3 ~cseq:9;
  drop_index_to_relation t ~index:"i" ~heap_rel:"r";
  Alcotest.(check bool) "owner1 got relation lock" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check bool) "owner2 got relation lock" true (holds t ~owner:2 (Relation "r"));
  let r = readers_for_write t ~rel:"r" ~key:(vi 1) ~page:0 in
  Alcotest.(check (option int)) "dummy transferred" (Some 9) r.old_committed;
  let idx = readers_for_index_insert t ~index:"i" ~page:0 in
  Alcotest.(check (list int)) "index locks gone" [] idx.xids

let test_counts () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 1) ~page:0;
  lock_tuple t ~owner:2 ~rel:"r" ~key:(vi 1) ~page:0;
  Alcotest.(check int) "two holdings on one target" 2 (total_lock_count t);
  Alcotest.(check int) "owner count" 1 (owner_lock_count t 1)

(* Int 3 and Float 3.0 are equal values, so they name the same SIREAD
   target: every lookup must hash and compare them alike. *)
let test_numerically_equal_keys () =
  let t = create () in
  lock_tuple t ~owner:1 ~rel:"t" ~key:(vi 3) ~page:0;
  lock_index_key t ~owner:2 ~index:"i" ~key:(vi 3);
  let f3 = Value.Float 3.0 in
  Alcotest.(check bool) "holds tuple by float" true (holds t ~owner:1 (Tuple ("t", f3)));
  Alcotest.(check bool) "holds gap by float" true (holds t ~owner:2 (Index_key ("i", f3)));
  Alcotest.(check (list int)) "tuple writer finds reader" [ 1 ]
    (readers_for_write t ~rel:"t" ~key:f3 ~page:0).xids;
  Alcotest.(check (list int)) "gap insert finds reader" [ 2 ]
    (readers_for_index_insert_nextkey t ~index:"i" ~key:f3 ~succ:None).xids;
  Alcotest.(check (list int)) "fractional key is another target" []
    (readers_for_write t ~rel:"t" ~key:(Value.Float 3.5) ~page:1).xids

(* ---- Page batches: the direct page grant ---------------------------------- *)

module Obs = Ssi_obs.Obs

(* Run [setup] on two lock managers under [small_config], then lock the
   [keys] window [pos, len] on [page] of [r] for owner 1: one manager
   takes the keys one {!lock_tuple} at a time, the other takes the window
   as one {!lock_tuples_slice}.  The two must end with the same lock
   table, lock count and promotion count; the batch manager and its
   [predlock.locks.tuple] count come back for the case's own checks. *)
let slice_vs_sequential ?(pos = 0) ?len ~setup ~page keys =
  let len = Option.value len ~default:(List.length keys - pos) in
  let keys = Array.of_list (List.map vi keys) in
  let seq = create ~config:small_config () in
  let obs = Obs.create () in
  let batch = create ~config:small_config ~obs () in
  setup seq;
  setup batch;
  let tuples_before = Obs.counter_value (Obs.counter obs "predlock.locks.tuple") in
  for i = pos to pos + len - 1 do
    lock_tuple seq ~owner:1 ~rel:"r" ~key:keys.(i) ~page
  done;
  lock_tuples_slice batch ~owner:1 ~rel:"r" ~page keys ~pos ~len;
  Alcotest.(check (list string))
    "same lock table as sequential lock_tuple"
    (List.map (fun (tg, _, _) -> target_to_string tg) (dump seq))
    (List.map (fun (tg, _, _) -> target_to_string tg) (dump batch));
  Alcotest.(check int) "same lock count" (total_lock_count seq) (total_lock_count batch);
  Alcotest.(check int) "same promotions" (promotions seq) (promotions batch);
  (batch, Obs.counter_value (Obs.counter obs "predlock.locks.tuple") - tuples_before)

(* Two distinct keys reach the threshold of 2 without crossing it: the
   repeated 8 is one lock, not a second fresh key. *)
let test_slice_duplicate_key () =
  let t, tuples = slice_vs_sequential ~setup:ignore ~page:0 [ 8; 8; 4 ] in
  Alcotest.(check bool) "no page lock" false (holds t ~owner:1 (Page ("r", 0)));
  Alcotest.(check bool) "holds 8" true (holds t ~owner:1 (Tuple ("r", vi 8)));
  Alcotest.(check bool) "holds 4" true (holds t ~owner:1 (Tuple ("r", vi 4)));
  Alcotest.(check int) "no promotion" 0 (promotions t);
  Alcotest.(check int) "two tuple locks granted" 2 tuples

(* Key 5 is already held from heap page 1 (the row moved pages): locking
   it again from page 0 is a no-op, so only 6 and 7 are fresh there. *)
let test_slice_key_held_elsewhere () =
  let t, tuples =
    slice_vs_sequential ~page:0 [ 5; 6; 7 ]
      ~setup:(fun t -> lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 5) ~page:1)
  in
  Alcotest.(check bool) "no page lock" false (holds t ~owner:1 (Page ("r", 0)));
  Alcotest.(check int) "three tuple locks" 3 (owner_lock_count t 1);
  Alcotest.(check int) "two tuple locks granted" 2 tuples;
  (* 5 is still filed under page 1, where [unlock_tuple] finds it. *)
  unlock_tuple t ~owner:1 ~rel:"r" ~key:(vi 5);
  Alcotest.(check bool) "5 released" false (holds t ~owner:1 (Tuple ("r", vi 5)))

(* A window on a page the owner already holds is a no-op. *)
let test_slice_covered_page () =
  let t, tuples =
    slice_vs_sequential ~pos:1 ~len:3 ~page:0 [ 9; 1; 2; 3; 9 ]
      ~setup:(fun t -> lock_page t ~owner:1 ~rel:"r" ~page:0)
  in
  Alcotest.(check int) "only the page lock" 1 (owner_lock_count t 1);
  Alcotest.(check int) "no tuple lock granted" 0 tuples;
  Alcotest.(check int) "no promotion" 0 (promotions t)

(* The window's three fresh keys cross the threshold: the page lock is
   granted directly, and as the owner's third page on [r] it promotes to
   a relation lock, dropping the tuple lock held on page 3. *)
let test_slice_cascade_to_relation () =
  let t, tuples =
    slice_vs_sequential ~page:2 [ 1; 2; 3 ]
      ~setup:(fun t ->
        lock_page t ~owner:1 ~rel:"r" ~page:0;
        lock_page t ~owner:1 ~rel:"r" ~page:1;
        lock_tuple t ~owner:1 ~rel:"r" ~key:(vi 30) ~page:3)
  in
  Alcotest.(check bool) "relation lock" true (holds t ~owner:1 (Relation "r"));
  Alcotest.(check int) "only the relation lock" 1 (owner_lock_count t 1);
  Alcotest.(check int) "page then relation promotion" 2 (promotions t);
  Alcotest.(check int) "no tuple lock granted" 0 tuples

let () =
  Alcotest.run "predlock"
    [
      ( "basics",
        [
          Alcotest.test_case "tuple lock lookup" `Quick test_tuple_lock_and_lookup;
          Alcotest.test_case "page covers tuples" `Quick test_page_lock_covers_tuples;
          Alcotest.test_case "relation covers all" `Quick test_relation_lock_covers_all;
          Alcotest.test_case "multiple owners, coarse first" `Quick test_multiple_owners;
          Alcotest.test_case "unlock tuple" `Quick test_unlock_tuple;
          Alcotest.test_case "release owner" `Quick test_release_owner;
          Alcotest.test_case "released state recycled empty" `Quick
            test_released_state_recycled_empty;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "numerically equal keys" `Quick test_numerically_equal_keys;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "tuple to page" `Quick test_promotion_tuple_to_page;
          Alcotest.test_case "page to relation" `Quick test_promotion_page_to_relation;
          Alcotest.test_case "index pages" `Quick test_promotion_index;
          Alcotest.test_case "coarser subsumes finer" `Quick test_no_finer_lock_under_coarser;
        ] );
      ( "page batch",
        [
          Alcotest.test_case "duplicate key at the threshold" `Quick test_slice_duplicate_key;
          Alcotest.test_case "key held from another page" `Quick test_slice_key_held_elsewhere;
          Alcotest.test_case "covered page is a no-op" `Quick test_slice_covered_page;
          Alcotest.test_case "direct page grant cascades" `Quick test_slice_cascade_to_relation;
        ] );
      ( "summarization",
        [
          Alcotest.test_case "summarize owner" `Quick test_summarize_owner;
          Alcotest.test_case "cleanup" `Quick test_cleanup_old_committed;
          Alcotest.test_case "summarized state recycled empty" `Quick
            test_summarized_state_recycled_empty;
        ] );
      ( "structure",
        [
          Alcotest.test_case "page split copies locks" `Quick test_index_page_split_copies;
          Alcotest.test_case "table rewrite promotes" `Quick test_ddl_promote_relation;
          Alcotest.test_case "index drop transfers" `Quick test_ddl_drop_index;
        ] );
    ]
