(** The one typed error of the database, re-exported by [Ssi_engine.Engine].
    It lives at the bottom of the library stack because the lowest raiser
    is {!Waitq.direct}, whose waits fail with {!Lock_not_available}.
    {!retryable} is the paper's safe-retry rule (§5.4) and {!message} the
    one rendering.  What only a programming mistake reaches, such as using
    a finished transaction, stays [Invalid_argument], documented where it
    is raised. *)

type error =
  | Serialization_failure of { xid : int; reason : string }
      (** PostgreSQL 40001 serialization_failure: an SSI dangerous
          structure, an SSN exclusion window, a first-updater-wins write
          conflict, or an S2PL or tuple-lock deadlock (PostgreSQL's 40P01).
          [xid] is the transaction that must abort. *)
  | Unique_violation of { table : string; key : string }
      (** 23505 unique_violation: primary key [key] (rendered) exists. *)
  | Read_only_transaction
      (** 25006 read_only_sql_transaction: a write in a READ ONLY
          transaction. *)
  | Transient_fault of { op : string; reason : string }
      (** An infrastructure fault at [op], closest to PostgreSQL's 08006
          connection_failure: an injected I/O error, a crash, a lost log, a
          fenced primary, a lagging replica.  Nothing was committed. *)
  | Lock_not_available
      (** 55P03 lock_not_available: the statement would have to wait for
          another transaction, and the direct scheduler cannot wait. *)
  | Undefined_object of string
      (** 42704 undefined_object (PostgreSQL says 42P01 for a table, 3B001
          for a savepoint): an unknown table, index, column, savepoint or
          gid.  The payload is the message. *)
  | Duplicate_object of string
      (** 42710 duplicate_object: an existing table, index, column or gid.
          The payload is the message. *)
  | Invalid_request of string
      (** What this schema or configuration cannot run: a row of the wrong
          arity (PostgreSQL 42601), dropping a primary-key index (2BP01),
          changing a primary key or misusing DEFERRABLE (0A000).  The
          payload is the message. *)

exception Error of error

let retryable = function
  | Serialization_failure _ | Transient_fault _ -> true
  | Unique_violation _ | Read_only_transaction | Lock_not_available | Undefined_object _
  | Duplicate_object _ | Invalid_request _ ->
      false

let message = function
  | Serialization_failure { reason; _ } -> "could not serialize access: " ^ reason
  | Unique_violation { table; key } -> Printf.sprintf "duplicate key value %s in table %s" key table
  | Read_only_transaction -> "cannot execute a write in a read-only transaction"
  | Transient_fault { op; reason } -> Printf.sprintf "%s: %s" op reason
  | Lock_not_available -> "could not obtain lock without waiting"
  | Undefined_object m | Duplicate_object m | Invalid_request m -> m

let () = Printexc.register_printer (function Error e -> Some ("Error: " ^ message e) | _ -> None)
