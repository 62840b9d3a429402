(** Abstract syntax of the SQL subset.

    The paper's motivating deployment (§2.2) runs ad-hoc SQL against the
    serializable engine; this layer provides that interface.  The subset
    covers the data definition, data manipulation, and transaction-control
    statements the paper's scenarios need, including the isolation-level
    and READ ONLY / DEFERRABLE modifiers and two-phase commit. *)

open Ssi_storage

type expr =
  | Lit of Value.t
  | Col of string
  | Neg of expr
  | Arith of arith_op * expr * expr
  | Cmp of cmp_op * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

and arith_op = Add | Sub | Mul

and cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type order = Asc | Desc

type aggregate = Count_star | Sum of string | Min of string | Max of string

type projection =
  | Star
  | Columns of string list
  | Aggregate of aggregate

type isolation_level = Read_committed | Repeatable_read | Serializable

type stmt =
  | Create_table of { name : string; cols : string list; key : string }
  | Create_index of { name : string; table : string; column : string }
  | Drop_index of string
  | Insert of { table : string; rows : expr list list }
  | Select of {
      proj : projection;
      table : string;
      where : expr option;
      order_by : (string * order) option;
      limit : int option;
    }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Begin of { isolation : isolation_level option; read_only : bool; deferrable : bool }
  | Commit
  | Rollback
  | Savepoint of string
  | Rollback_to of string
  | Release of string
  | Prepare_transaction of string
  | Commit_prepared of string
  | Rollback_prepared of string
  | Vacuum
  | Show_tables
  | Show_locks  (** the SIREAD lock table, like pg_locks *)
  | Show_conflicts  (** the rw-antidependency graph *)

