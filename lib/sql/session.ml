open Ssi_storage
open Ast
module E = Ssi_engine.Engine

exception Sql_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

type txn_state = {
  txn : E.txn;
  mutable failed : bool;  (** aborted by an error; only ROLLBACK/COMMIT allowed *)
}

type t = { engine : E.t; mutable current : txn_state option }

let create engine = { engine; current = None }
let db t = t.engine
let in_transaction t = t.current <> None

type result =
  | Rows of { cols : string list; rows : Value.t array list }
  | Affected of int
  | Message of string

(* ---- Expression evaluation ---------------------------------------------------- *)

let truthy = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> error "expression is not a boolean: %s" (Value.to_string v)

let rec eval env expr =
  match expr with
  | Lit v -> v
  | Col c -> (
      match env c with
      | Some v -> v
      | None -> error "unknown column %s" c)
  | Neg e -> (
      match eval env e with
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> error "cannot negate %s" (Value.to_string v))
  | Arith (op, a, b) -> (
      let va = eval env a and vb = eval env b in
      match (va, vb) with
      | Value.Int x, Value.Int y ->
          Value.Int (match op with Add -> x + y | Sub -> x - y | Mul -> x * y)
      | (Value.Float _ | Value.Int _), (Value.Float _ | Value.Int _) ->
          let x = Value.as_float va and y = Value.as_float vb in
          Value.Float (match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y)
      | Value.Str x, Value.Str y when op = Add -> Value.Str (x ^ y)
      | _ -> error "bad operands for arithmetic: %s, %s" (Value.to_string va)
               (Value.to_string vb))
  | Cmp (op, a, b) -> (
      let va = eval env a and vb = eval env b in
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Bool false (* simplistic NULL semantics *)
      | _ ->
          let c = Value.compare va vb in
          Value.Bool
            (match op with
            | Eq -> c = 0
            | Ne -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0))
  | And (a, b) -> Value.Bool (truthy (eval env a) && truthy (eval env b))
  | Or (a, b) -> Value.Bool (truthy (eval env a) || truthy (eval env b))
  | Not e -> Value.Bool (not (truthy (eval env e)))

let const_env _ = None

let row_env schema row c =
  match Schema.column_index schema c with
  | i -> Some row.(i)
  | exception Not_found -> None

(* ---- Planner -------------------------------------------------------------------- *)

(* Top-level conjunctive constraints of the form [col op literal] (either
   orientation), used to pick an access path.  The full WHERE clause is
   re-applied as a filter, so the chosen path only needs to fetch a
   superset of the matching rows. *)
type bound = { mutable lo : Value.t option; mutable hi : Value.t option }

let rec conjuncts expr acc =
  match expr with
  | And (a, b) -> conjuncts a (conjuncts b acc)
  | e -> e :: acc

let flip = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let column_bounds where =
  let tbl : (string, bound) Hashtbl.t = Hashtbl.create 4 in
  let bound_of c =
    match Hashtbl.find_opt tbl c with
    | Some b -> b
    | None ->
        let b = { lo = None; hi = None } in
        Hashtbl.add tbl c b;
        b
  in
  let tighten_lo b v =
    match b.lo with Some lo when Value.compare lo v >= 0 -> () | _ -> b.lo <- Some v
  in
  let tighten_hi b v =
    match b.hi with Some hi when Value.compare hi v <= 0 -> () | _ -> b.hi <- Some v
  in
  (match where with
  | None -> ()
  | Some w ->
      List.iter
        (fun conj ->
          match conj with
          | Cmp (op, Col c, Lit v) | Cmp ((Eq | Ne) as op, Lit v, Col c) ->
              let b = bound_of c in
              (match op with
              | Eq ->
                  tighten_lo b v;
                  tighten_hi b v
              | Lt | Le -> tighten_hi b v
              | Gt | Ge -> tighten_lo b v
              | Ne -> ())
          | Cmp (op, Lit v, Col c) ->
              let b = bound_of c in
              (match flip op with
              | Eq ->
                  tighten_lo b v;
                  tighten_hi b v
              | Lt | Le -> tighten_hi b v
              | Gt | Ge -> tighten_lo b v
              | Ne -> ())
          | _ -> ())
        (conjuncts w []))
  ;
  tbl

type plan =
  | Point_read of Value.t
  | Index_range of { index : string; lo : Value.t; hi : Value.t }
  | Seq of unit

let choose_plan db ~table where =
  let schema = E.table_schema db ~table in
  let key_col = (Schema.columns schema).(Schema.key_index schema) in
  let bounds = column_bounds where in
  let eq_bound c =
    match Hashtbl.find_opt bounds c with
    | Some { lo = Some l; hi = Some h } when Value.equal l h -> Some l
    | _ -> None
  in
  match eq_bound key_col with
  | Some v -> Point_read v
  | None ->
      let indexed =
        List.filter_map
          (fun (idx, col) ->
            match Hashtbl.find_opt bounds col with
            | Some { lo = Some l; hi = Some h } when Value.compare l h <= 0 ->
                Some (idx, l, h)
            | _ -> None)
          (E.table_indexes db ~table)
      in
      (match indexed with
      | (index, lo, hi) :: _ -> Index_range { index; lo; hi }
      | [] -> Seq ())

(* ---- Row fetching ------------------------------------------------------------------ *)

let fetch_rows t txn ~table where =
  let db = t.engine in
  let schema = E.table_schema db ~table in
  let matches row =
    match where with None -> true | Some w -> truthy (eval (row_env schema row) w)
  in
  let rows =
    match choose_plan db ~table where with
    | Point_read key -> (
        match E.read txn ~table ~key with Some row -> [ row ] | None -> [])
    | Index_range { index; lo; hi } -> E.index_scan txn ~table ~index ~lo ~hi
    | Seq () -> E.seq_scan txn ~table ()
  in
  List.filter matches rows

(* ---- Transaction control ------------------------------------------------------------ *)

let aborted () = error "current transaction is aborted, commands ignored until ROLLBACK"

(* Run [f txn] in the session's transaction, or in a fresh autocommit
   transaction. *)
let with_session_txn t f =
  match t.current with
  | Some st -> if st.failed then aborted () else f st.txn
  | None -> E.with_txn t.engine f

(* ---- Statement execution --------------------------------------------------------------- *)

let projection_columns schema = Array.to_list (Schema.columns schema)

let exec t stmt =
  match stmt with
  | Create_table { name; cols; key } ->
      if in_transaction t then error "CREATE TABLE cannot run inside a transaction block";
      E.create_table t.engine ~name ~cols ~key;
      Message "CREATE TABLE"
  | Create_index { name; table; column } ->
      if in_transaction t then error "CREATE INDEX cannot run inside a transaction block";
      E.create_index t.engine ~table ~name ~column ();
      Message "CREATE INDEX"
  | Drop_index name ->
      if in_transaction t then error "DROP INDEX cannot run inside a transaction block";
      E.drop_index t.engine ~name;
      Message "DROP INDEX"
  | Insert { table; rows } ->
      with_session_txn t (fun txn ->
          let n =
            List.fold_left
              (fun n exprs ->
                let row = Array.of_list (List.map (eval const_env) exprs) in
                E.insert txn ~table row;
                n + 1)
              0 rows
          in
          Affected n)
  | Select { proj; table; where; order_by; limit } ->
      with_session_txn t (fun txn ->
          let schema = E.table_schema t.engine ~table in
          let rows = fetch_rows t txn ~table where in
          let rows =
            match order_by with
            | None -> rows
            | Some (col, dir) ->
                let i =
                  try Schema.column_index schema col
                  with Not_found -> error "unknown column %s" col
                in
                let cmp a b = Value.compare a.(i) b.(i) in
                let sorted = List.stable_sort cmp rows in
                if dir = Desc then List.rev sorted else sorted
          in
          let rows =
            match limit with
            | None -> rows
            | Some n -> List.filteri (fun i _ -> i < n) rows
          in
          match proj with
          | Star -> Rows { cols = projection_columns schema; rows }
          | Columns cs ->
              let idxs =
                List.map
                  (fun c ->
                    try Schema.column_index schema c
                    with Not_found -> error "unknown column %s" c)
                  cs
              in
              Rows
                {
                  cols = cs;
                  rows = List.map (fun row -> Array.of_list (List.map (Array.get row) idxs)) rows;
                }
          | Aggregate agg -> (
              let col_values c =
                let i =
                  try Schema.column_index schema c
                  with Not_found -> error "unknown column %s" c
                in
                List.map (fun row -> row.(i)) rows
              in
              match agg with
              | Count_star ->
                  Rows { cols = [ "count" ]; rows = [ [| Value.Int (List.length rows) |] ] }
              | Sum c ->
                  let total =
                    List.fold_left
                      (fun acc v ->
                        match v with
                        | Value.Int i -> acc +. float_of_int i
                        | Value.Float f -> acc +. f
                        | Value.Null -> acc
                        | v -> error "SUM over non-numeric value %s" (Value.to_string v))
                      0. (col_values c)
                  in
                  let v =
                    if Float.is_integer total then Value.Int (int_of_float total)
                    else Value.Float total
                  in
                  Rows { cols = [ "sum" ]; rows = [ [| v |] ] }
              | Min c | Max c ->
                  let pick cmp vs =
                    List.fold_left
                      (fun acc v ->
                        match acc with
                        | None -> Some v
                        | Some best -> if cmp (Value.compare v best) then Some v else acc)
                      None vs
                  in
                  let f = (match agg with Min _ -> (fun c -> c < 0) | _ -> fun c -> c > 0) in
                  let v =
                    match pick f (col_values c) with Some v -> v | None -> Value.Null
                  in
                  Rows
                    {
                      cols = [ (match agg with Min _ -> "min" | _ -> "max") ];
                      rows = [ [| v |] ];
                    }))
  | Update { table; sets; where } ->
      with_session_txn t (fun txn ->
          let schema = E.table_schema t.engine ~table in
          let targets = fetch_rows t txn ~table where in
          let key_i = Schema.key_index schema in
          let n =
            List.fold_left
              (fun n row ->
                let key = row.(key_i) in
                let updated =
                  E.update txn ~table ~key ~f:(fun current ->
                      let out = Array.copy current in
                      List.iter
                        (fun (col, e) ->
                          let i =
                            try Schema.column_index schema col
                            with Not_found -> error "unknown column %s" col
                          in
                          out.(i) <- eval (row_env schema current) e)
                        sets;
                      out)
                in
                if updated then n + 1 else n)
              0 targets
          in
          Affected n)
  | Delete { table; where } ->
      with_session_txn t (fun txn ->
          let schema = E.table_schema t.engine ~table in
          let targets = fetch_rows t txn ~table where in
          let key_i = Schema.key_index schema in
          let n =
            List.fold_left
              (fun n row -> if E.delete txn ~table ~key:row.(key_i) then n + 1 else n)
              0 targets
          in
          Affected n)
  | Begin { isolation; read_only; deferrable } ->
      if in_transaction t then error "already in a transaction block";
      let isolation =
        match isolation with
        | None | Some Ast.Serializable -> E.Serializable
        | Some Ast.Repeatable_read -> E.Repeatable_read
        | Some Ast.Read_committed -> E.Read_committed
      in
      let txn = E.begin_txn ~isolation ~read_only ~deferrable t.engine in
      t.current <- Some { txn; failed = false };
      Message "BEGIN"
  | Commit -> (
      match t.current with
      | None -> error "no transaction in progress"
      | Some st ->
          t.current <- None;
          if st.failed then begin
            E.abort st.txn;
            Message "ROLLBACK (transaction had failed)"
          end
          else begin
            E.commit st.txn;
            Message "COMMIT"
          end)
  | Rollback -> (
      match t.current with
      | None -> error "no transaction in progress"
      | Some st ->
          t.current <- None;
          E.abort st.txn;
          Message "ROLLBACK")
  | Savepoint name ->
      with_session_txn t (fun txn ->
          E.savepoint txn name;
          Message "SAVEPOINT")
  | Rollback_to name -> (
      match t.current with
      | None -> error "no transaction in progress"
      | Some st ->
          (* An error rolled the whole transaction back, so no savepoint
             can recover it. *)
          if st.failed then aborted ();
          E.rollback_to_savepoint st.txn name;
          Message "ROLLBACK TO SAVEPOINT")
  | Release name ->
      with_session_txn t (fun txn ->
          E.release_savepoint txn name;
          Message "RELEASE SAVEPOINT")
  | Prepare_transaction gid -> (
      match t.current with
      | None -> error "no transaction in progress"
      | Some st ->
          if st.failed then error "current transaction is aborted";
          (* A failed PREPARE rolls the transaction back (in the engine),
             so the session leaves the transaction block either way. *)
          t.current <- None;
          E.prepare st.txn ~gid;
          Message "PREPARE TRANSACTION")
  | Commit_prepared gid ->
      E.commit_prepared t.engine ~gid;
      Message "COMMIT PREPARED"
  | Rollback_prepared gid ->
      E.rollback_prepared t.engine ~gid;
      Message "ROLLBACK PREPARED"
  | Vacuum ->
      E.vacuum t.engine;
      Message "VACUUM"
  | Show_locks ->
      let locks = E.predicate_locks t.engine in
      let rows =
        List.map
          (fun (target, holders, old_c) ->
            [|
              Value.Str (Ssi_core.Predlock.target_to_string target);
              Value.Str (String.concat "," (List.map string_of_int holders));
              (match old_c with Some c -> Value.Int c | None -> Value.Null);
            |])
          (Ssi_core.Predlock.dump locks)
      in
      Rows { cols = [ "target"; "holders"; "summarized_cseq" ]; rows }
  | Show_conflicts ->
      let (Ssi_core.Certifier.Cert ((module C), c)) = E.certifier t.engine in
      let rows =
        List.map
          (fun (i : Ssi_core.Certifier.node_info) ->
            [|
              Value.Int i.info_xid;
              Value.Str i.info_status;
              Value.Bool i.info_doomed;
              Value.Str (String.concat "," (List.map string_of_int i.info_in));
              Value.Str (String.concat "," (List.map string_of_int i.info_out));
            |])
          (C.dump_graph c)
      in
      Rows { cols = [ "xid"; "status"; "doomed"; "conflicts_in"; "conflicts_out" ]; rows }
  | Show_tables ->
      Rows
        {
          cols = [ "table" ];
          rows =
            List.map (fun n -> [| Value.Str n |]) (List.sort compare (E.table_names t.engine));
        }

(* The one handler for engine errors: like PostgreSQL, an error inside a
   transaction block aborts the transaction, which then rejects every
   statement until ROLLBACK.  (An autocommit statement's transaction was
   already rolled back by [E.with_txn].) *)
let exec t stmt =
  try exec t stmt
  with E.Error e ->
    (match t.current with
    | Some st ->
        E.abort st.txn;
        st.failed <- true
    | None -> ());
    raise (Sql_error (E.message e))

let exec_sql t input = List.map (exec t) (Parser.parse_script input)

let render = function
  | Message m -> m
  | Affected n -> Printf.sprintf "OK, %d row%s" n (if n = 1 then "" else "s")
  | Rows { cols; rows } ->
      let body = List.map (fun row -> List.map Value.to_string (Array.to_list row)) rows in
      let table = Ssi_util.Tablefmt.render ~header:cols body in
      Printf.sprintf "%s(%d row%s)" table (List.length rows)
        (if List.length rows = 1 then "" else "s")
