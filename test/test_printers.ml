(* The direct string printers used on per-operation paths (event and
   span fields, the 2PC SIREAD digest) against the [Format] printers they
   replaced, kept here verbatim as references: every constructor, with
   the float, int and string edge cases [%g], [%d] and [%S] treat
   specially. *)

open Ssi_storage
module Predlock = Ssi_core.Predlock
module Lockmgr = Ssi_lockmgr.Lockmgr

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---- Reference printers ------------------------------------------------- *)

let ref_value ppf = function
  | Value.Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s

let ref_predlock_target ppf = function
  | Predlock.Relation r -> Format.fprintf ppf "rel:%s" r
  | Page (r, p) -> Format.fprintf ppf "page:%s/%d" r p
  | Tuple (r, k) -> Format.fprintf ppf "tuple:%s/%a" r ref_value k
  | Index_page (i, p) -> Format.fprintf ppf "idxpage:%s/%d" i p
  | Index_key (i, k) -> Format.fprintf ppf "idxkey:%s/%a" i ref_value k
  | Index_inf i -> Format.fprintf ppf "idxinf:%s" i
  | Index_rel i -> Format.fprintf ppf "idx:%s" i

let ref_lockmgr_target ppf = function
  | Lockmgr.Relation r -> Format.fprintf ppf "rel:%s" r
  | Page (r, p) -> Format.fprintf ppf "page:%s/%d" r p
  | Tuple (r, k) -> Format.fprintf ppf "tuple:%s/%a" r ref_value k
  | Index_page (i, p) -> Format.fprintf ppf "idxpage:%s/%d" i p

let ref_mode ppf m =
  Format.pp_print_string ppf
    Lockmgr.(match m with IS -> "IS" | IX -> "IX" | S -> "S" | SIX -> "SIX" | X -> "X")

let render pp x = Format.asprintf "%a" pp x

(* ---- Generators --------------------------------------------------------- *)

let int_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ min_int; max_int; 0; -1; 1 ];
        small_signed_int;
        int;
        map (fun i -> -abs i) int;
      ])

let float_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            nan; -.nan; infinity; neg_infinity; 0.; -0.; 1e21; -1e21; 1e-7; 123456.; 1234567.;
            max_float; min_float; 5e-324; 0.1; 2.5;
          ];
        float;
        map float_of_int int_gen;
      ])

(* Quotes, backslashes, control characters, and bytes >= 0x80. *)
let string_gen =
  QCheck.Gen.(
    string_size ~gen:(oneof [ oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\127' ]; char ])
      (int_range 0 12))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int_gen;
        map (fun f -> Value.Float f) float_gen;
        map (fun s -> Value.Str s) string_gen;
      ])

let predlock_target_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Predlock.Relation r) string_gen;
        map2 (fun r p -> Predlock.Page (r, p)) string_gen int_gen;
        map2 (fun r k -> Predlock.Tuple (r, k)) string_gen value_gen;
        map2 (fun i p -> Predlock.Index_page (i, p)) string_gen int_gen;
        map2 (fun i k -> Predlock.Index_key (i, k)) string_gen value_gen;
        map (fun i -> Predlock.Index_inf i) string_gen;
        map (fun i -> Predlock.Index_rel i) string_gen;
      ])

let lockmgr_target_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Lockmgr.Relation r) string_gen;
        map2 (fun r p -> Lockmgr.Page (r, p)) string_gen int_gen;
        map2 (fun r k -> Lockmgr.Tuple (r, k)) string_gen value_gen;
        map2 (fun i p -> Lockmgr.Index_page (i, p)) string_gen int_gen;
      ])

(* Print with the reference printer, so a counterexample is readable even
   when the printer under test is the broken one. *)
let agrees ~name ~count gen reference direct =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(fun x -> String.escaped (render reference x)) gen)
    (fun x -> String.equal (direct x) (render reference x))

let prop_value =
  agrees ~name:"Value.to_string = %g/%S reference" ~count:2000 value_gen ref_value
    Value.to_string

let prop_predlock =
  agrees ~name:"Predlock.target_to_string = reference" ~count:2000 predlock_target_gen
    ref_predlock_target Predlock.target_to_string

let prop_lockmgr =
  agrees ~name:"Lockmgr.target_to_string = reference" ~count:2000 lockmgr_target_gen
    ref_lockmgr_target Lockmgr.target_to_string

(* The [pp] functions print exactly the direct strings. *)
let prop_pp =
  QCheck.Test.make ~name:"pp = to_string" ~count:500
    (QCheck.make (QCheck.Gen.pair value_gen predlock_target_gen))
    (fun (v, t) ->
      render Value.pp v = Value.to_string v
      && render Predlock.pp_target t = Predlock.target_to_string t)

let test_edge_cases () =
  List.iter
    (fun v ->
      Alcotest.(check string) (render ref_value v) (render ref_value v) (Value.to_string v))
    Value.
      [
        Float nan; Float infinity; Float neg_infinity; Float (-0.); Float 1e21; Int min_int;
        Int (-42); Str "q\"\\\n\xe9\x80\xff"; Null; Bool false;
      ];
  List.iter
    (fun m -> Alcotest.(check string) "mode" (render ref_mode m) (Lockmgr.mode_to_string m))
    Lockmgr.[ IS; IX; S; SIX; X ]

let () =
  Alcotest.run "printers"
    [
      ("edge cases", [ Alcotest.test_case "fixed values and modes" `Quick test_edge_cases ]);
      qsuite "against Format" [ prop_value; prop_predlock; prop_lockmgr; prop_pp ];
    ]
