(* The SQL front end: lexer, parser, expression evaluation, planner
   behaviour, DML/DDL execution, transaction control (including the
   write-skew scenario driven entirely through SQL, §2.2), savepoints and
   two-phase commit. *)

open Ssi_storage
module E = Ssi_engine.Engine
module Sql = Ssi_sql.Session
module Parser = Ssi_sql.Parser
module Lexer = Ssi_sql.Lexer
module Ast = Ssi_sql.Ast

let session () = Sql.create (E.create ())

let exec s sql =
  match Sql.exec_sql s sql with
  | [ r ] -> r
  | rs -> List.nth rs (List.length rs - 1)

let rows_of s sql =
  match exec s sql with
  | Sql.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let ints_of s sql = List.map (fun row -> Value.as_int row.(0)) (rows_of s sql)

let affected s sql =
  match exec s sql with
  | Sql.Affected n -> n
  | _ -> Alcotest.fail "expected affected count"

let seed s =
  ignore (exec s "CREATE TABLE t (k, v, PRIMARY KEY (k))");
  ignore (exec s "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")

(* ---- Lexer ------------------------------------------------------------------ *)

let test_lexer () =
  let toks = Lexer.tokenize "SELECT 'it''s', 3.5, x10 <> -2; -- comment" in
  Alcotest.(check int) "token count" 11 (List.length toks);
  Alcotest.(check bool) "string unescaped" true
    (List.exists (function Lexer.String "it's" -> true | _ -> false) toks);
  Alcotest.(check bool) "keyword lowercased" true
    (List.exists (function Lexer.Ident "select" -> true | _ -> false) toks);
  Alcotest.check_raises "unterminated string" (Lexer.Lex_error "unterminated string literal")
    (fun () -> ignore (Lexer.tokenize "'oops"))

(* ---- Parser ------------------------------------------------------------------ *)

let test_parse_select () =
  match Parser.parse "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 5" with
  | Ast.Select { proj = Ast.Columns [ "a"; "b" ]; table = "t"; where = Some _;
                 order_by = Some ("b", Ast.Desc); limit = Some 5 } ->
      ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_begin_modifiers () =
  match Parser.parse "BEGIN TRANSACTION ISOLATION LEVEL REPEATABLE READ, READ ONLY, DEFERRABLE" with
  | Ast.Begin { isolation = Some Ast.Repeatable_read; read_only = true; deferrable = true } -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_expr_precedence () =
  (* 1 + 2 * 3 = 7 AND NOT FALSE *)
  match Parser.parse_expr "1 + 2 * 3 = 7 and not false" with
  | Ast.And (Ast.Cmp (Ast.Eq, Ast.Arith (Ast.Add, _, Ast.Arith (Ast.Mul, _, _)), _), Ast.Not _)
    ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_errors () =
  Alcotest.(check bool) "garbage rejected" true
    (match Parser.parse "FLY ME TO THE MOON" with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing input rejected" true
    (match Parser.parse "COMMIT COMMIT" with
    | exception Parser.Parse_error _ -> true
    | _ -> false)

let test_parse_script () =
  Alcotest.(check int) "three statements" 3
    (List.length (Parser.parse_script "BEGIN; COMMIT; ROLLBACK;"))

(* ---- Execution ----------------------------------------------------------------- *)

let test_crud_via_sql () =
  let s = session () in
  seed s;
  Alcotest.(check (list int)) "select all" [ 1; 2; 3; 4 ] (ints_of s "SELECT k FROM t ORDER BY k");
  Alcotest.(check int) "update" 2 (affected s "UPDATE t SET v = v + 1 WHERE k <= 2");
  Alcotest.(check (list int)) "updated values" [ 11; 21 ]
    (ints_of s "SELECT v FROM t WHERE k <= 2 ORDER BY k");
  Alcotest.(check int) "delete" 1 (affected s "DELETE FROM t WHERE v = 30");
  Alcotest.(check (list int)) "remaining" [ 1; 2; 4 ] (ints_of s "SELECT k FROM t ORDER BY k")

let test_aggregates () =
  let s = session () in
  seed s;
  Alcotest.(check (list int)) "count" [ 4 ] (ints_of s "SELECT COUNT(*) FROM t");
  Alcotest.(check (list int)) "sum" [ 100 ] (ints_of s "SELECT SUM(v) FROM t");
  Alcotest.(check (list int)) "min" [ 10 ] (ints_of s "SELECT MIN(v) FROM t");
  Alcotest.(check (list int)) "max where" [ 20 ]
    (ints_of s "SELECT MAX(v) FROM t WHERE k < 3")

let test_planner_uses_indexes () =
  (* Not directly observable from results, so observe it through SSI lock
     footprints: a point read must not take a relation-level SIREAD
     lock, while an unindexed predicate scan must. *)
  let s = session () in
  seed s;
  ignore (exec s "BEGIN");
  ignore (rows_of s "SELECT * FROM t WHERE k = 2");
  let db = Sql.db s in
  let locks = E.predicate_locks db in
  let total_before = Ssi_core.Predlock.total_lock_count locks in
  ignore (rows_of s "SELECT * FROM t WHERE v = 20") (* unindexed: seq scan *);
  Alcotest.(check bool) "seq scan added a relation lock" true
    (Ssi_core.Predlock.total_lock_count locks > total_before);
  ignore (exec s "COMMIT")

let test_index_scan_path () =
  let s = session () in
  ignore (exec s "CREATE TABLE items (id, cat, PRIMARY KEY (id))");
  ignore (exec s "CREATE INDEX items_cat ON items (cat)");
  ignore (exec s "INSERT INTO items VALUES (1, 5), (2, 5), (3, 7)");
  Alcotest.(check (list int)) "by category" [ 1; 2 ]
    (ints_of s "SELECT id FROM items WHERE cat = 5 ORDER BY id");
  Alcotest.(check (list int)) "range" [ 3 ]
    (ints_of s "SELECT id FROM items WHERE cat > 5 AND cat < 9")

let test_errors () =
  let s = session () in
  seed s;
  Alcotest.(check bool) "unknown table" true
    (match exec s "SELECT * FROM nope" with
    | exception Sql.Sql_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "unknown column" true
    (match exec s "SELECT zz FROM t" with
    | exception Sql.Sql_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate key" true
    (match exec s "INSERT INTO t VALUES (1, 1)" with
    | exception Sql.Sql_error _ -> true
    | _ -> false)

(* ---- Transactions over SQL -------------------------------------------------------- *)

let test_explicit_transaction () =
  let s = session () in
  seed s;
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE t SET v = 0 WHERE k = 1");
  ignore (exec s "ROLLBACK");
  Alcotest.(check (list int)) "rolled back" [ 10 ] (ints_of s "SELECT v FROM t WHERE k = 1");
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE t SET v = 0 WHERE k = 1");
  ignore (exec s "COMMIT");
  Alcotest.(check (list int)) "committed" [ 0 ] (ints_of s "SELECT v FROM t WHERE k = 1")

let test_isolation_levels_via_sql () =
  let db = E.create () in
  let s1 = Sql.create db and s2 = Sql.create db in
  seed s1;
  ignore (exec s1 "BEGIN ISOLATION LEVEL REPEATABLE READ");
  Alcotest.(check (list int)) "before" [ 10 ] (ints_of s1 "SELECT v FROM t WHERE k = 1");
  ignore (exec s2 "UPDATE t SET v = 99 WHERE k = 1");
  Alcotest.(check (list int)) "repeatable" [ 10 ] (ints_of s1 "SELECT v FROM t WHERE k = 1");
  ignore (exec s1 "COMMIT");
  let s3 = Sql.create db in
  ignore (exec s3 "BEGIN ISOLATION LEVEL READ COMMITTED");
  Alcotest.(check (list int)) "rc sees" [ 99 ] (ints_of s3 "SELECT v FROM t WHERE k = 1");
  ignore (exec s2 "UPDATE t SET v = 100 WHERE k = 1");
  Alcotest.(check (list int)) "rc sees newer" [ 100 ] (ints_of s3 "SELECT v FROM t WHERE k = 1");
  ignore (exec s3 "COMMIT")

let test_write_skew_via_sql () =
  (* The paper's §2.2 scenario as two psql-style sessions: SERIALIZABLE
     (the default) prevents the write skew that REPEATABLE READ allows. *)
  let run level =
    let db = E.create () in
    let s0 = Sql.create db in
    ignore (exec s0 "CREATE TABLE doctors (name, oncall, PRIMARY KEY (name))");
    ignore (exec s0 "INSERT INTO doctors VALUES ('alice', true), ('bob', true)");
    let s1 = Sql.create db and s2 = Sql.create db in
    let go s me =
      ignore (exec s (Printf.sprintf "BEGIN ISOLATION LEVEL %s" level));
      let oncall =
        match rows_of s "SELECT COUNT(*) FROM doctors WHERE oncall = true" with
        | [ [| Value.Int n |] ] -> n
        | _ -> Alcotest.fail "bad count"
      in
      if oncall >= 2 then
        ignore (exec s (Printf.sprintf "UPDATE doctors SET oncall = false WHERE name = '%s'" me))
    in
    go s1 "alice";
    go s2 "bob";
    let commit s = match exec s "COMMIT" with
      | Sql.Message "COMMIT" -> true
      | _ -> false
      | exception Sql.Sql_error _ -> false
    in
    let ok1 = commit s1 and ok2 = commit s2 in
    let remaining =
      match rows_of s0 "SELECT COUNT(*) FROM doctors WHERE oncall = true" with
      | [ [| Value.Int n |] ] -> n
      | _ -> -1
    in
    (ok1, ok2, remaining)
  in
  let ok1, ok2, remaining = run "REPEATABLE READ" in
  Alcotest.(check bool) "SI: both commit" true (ok1 && ok2);
  Alcotest.(check int) "SI: invariant broken" 0 remaining;
  let ok1, ok2, remaining = run "SERIALIZABLE" in
  Alcotest.(check bool) "SSI: one fails" true (ok1 <> ok2);
  Alcotest.(check int) "SSI: invariant holds" 1 remaining

let test_failed_transaction_state () =
  let db = E.create () in
  let s1 = Sql.create db and s2 = Sql.create db in
  seed s1;
  ignore (exec s1 "BEGIN");
  ignore (rows_of s1 "SELECT * FROM t WHERE k = 1");
  ignore (exec s2 "UPDATE t SET v = 5 WHERE k = 1");
  (* first-updater-wins: s1's update now fails... *)
  (match exec s1 "UPDATE t SET v = 6 WHERE k = 1" with
  | exception Sql.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected serialization failure");
  (* ...and the transaction is in the aborted state until ROLLBACK. *)
  (match exec s1 "SELECT * FROM t" with
  | exception Sql.Sql_error m ->
      Alcotest.(check bool) "aborted-state message" true
        (String.length m > 0)
  | _ -> Alcotest.fail "statements must be rejected");
  (match exec s1 "COMMIT" with
  | Sql.Message m -> Alcotest.(check bool) "commit reports rollback" true
      (String.length m >= 8)
  | _ -> Alcotest.fail "commit of failed txn");
  Alcotest.(check bool) "session usable again" true (ints_of s1 "SELECT COUNT(*) FROM t" = [ 4 ])

let test_savepoints_via_sql () =
  let s = session () in
  seed s;
  ignore (exec s "BEGIN");
  ignore (exec s "SAVEPOINT sp");
  ignore (exec s "UPDATE t SET v = 0 WHERE k = 1");
  ignore (exec s "ROLLBACK TO SAVEPOINT sp");
  ignore (exec s "COMMIT");
  Alcotest.(check (list int)) "subxact undone" [ 10 ] (ints_of s "SELECT v FROM t WHERE k = 1")

let test_two_phase_commit_via_sql () =
  let db = E.create () in
  let s1 = Sql.create db and s2 = Sql.create db in
  seed s1;
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE t SET v = 1000 WHERE k = 4");
  ignore (exec s1 "PREPARE TRANSACTION 'gid1'");
  Alcotest.(check (list int)) "invisible while prepared" [ 40 ]
    (ints_of s2 "SELECT v FROM t WHERE k = 4");
  ignore (exec s2 "COMMIT PREPARED 'gid1'");
  Alcotest.(check (list int)) "visible after" [ 1000 ] (ints_of s2 "SELECT v FROM t WHERE k = 4")

let test_show_locks_and_conflicts () =
  let db = E.create () in
  let s1 = Sql.create db and s2 = Sql.create db in
  seed s1;
  ignore (exec s1 "BEGIN");
  ignore (rows_of s1 "SELECT * FROM t WHERE k = 1");
  ignore (exec s2 "BEGIN");
  ignore (rows_of s2 "SELECT * FROM t WHERE k = 3");
  ignore (rows_of s2 "SELECT * FROM t WHERE k = 2");
  let lock_rows = rows_of s1 "SHOW LOCKS" in
  Alcotest.(check bool) "lock table non-empty" true (List.length lock_rows > 0);
  (* Rows come in target order, whatever order the lock table hashes
     them in. *)
  let sorted =
    Ssi_core.Predlock.dump (E.predicate_locks db)
    |> List.map (fun (target, _, _) -> target)
    |> List.sort compare
    |> List.map Ssi_core.Predlock.target_to_string
  in
  Alcotest.(check (list string)) "rows sorted by target" sorted
    (List.map (fun row -> Value.as_string row.(0)) lock_rows);
  ignore (exec s2 "COMMIT");
  (* s2 writes what s1 read: the conflict appears in SHOW CONFLICTS. *)
  ignore (exec s2 "UPDATE t SET v = 0 WHERE k = 1");
  let conflict_rows = rows_of s1 "SHOW CONFLICTS" in
  Alcotest.(check bool) "conflict edge visible" true
    (List.exists
       (fun row -> Value.as_string row.(4) <> "" || Value.as_string row.(3) <> "")
       conflict_rows);
  ignore (exec s1 "COMMIT")

let test_read_only_and_render () =
  let s = session () in
  seed s;
  ignore (exec s "BEGIN READ ONLY");
  (match exec s "UPDATE t SET v = 0 WHERE k = 1" with
  | exception Sql.Sql_error _ -> ()
  | _ -> Alcotest.fail "read-only must reject writes");
  ignore (exec s "ROLLBACK");
  let rendered = Sql.render (exec s "SELECT k FROM t WHERE k = 1") in
  Alcotest.(check bool) "render contains value" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered |> List.exists (fun l -> String.trim l = "1"))

let () =
  Alcotest.run "sql"
    [
      ("lexer", [ Alcotest.test_case "tokens" `Quick test_lexer ]);
      ( "parser",
        [
          Alcotest.test_case "select" `Quick test_parse_select;
          Alcotest.test_case "begin modifiers" `Quick test_parse_begin_modifiers;
          Alcotest.test_case "precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "script" `Quick test_parse_script;
        ] );
      ( "execution",
        [
          Alcotest.test_case "crud" `Quick test_crud_via_sql;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "planner lock footprint" `Quick test_planner_uses_indexes;
          Alcotest.test_case "secondary index path" `Quick test_index_scan_path;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "begin/commit/rollback" `Quick test_explicit_transaction;
          Alcotest.test_case "isolation levels" `Quick test_isolation_levels_via_sql;
          Alcotest.test_case "write skew via SQL" `Quick test_write_skew_via_sql;
          Alcotest.test_case "failed transaction state" `Quick test_failed_transaction_state;
          Alcotest.test_case "savepoints" `Quick test_savepoints_via_sql;
          Alcotest.test_case "two-phase commit" `Quick test_two_phase_commit_via_sql;
          Alcotest.test_case "read only + render" `Quick test_read_only_and_render;
          Alcotest.test_case "show locks/conflicts" `Quick test_show_locks_and_conflicts;
        ] );
    ]
