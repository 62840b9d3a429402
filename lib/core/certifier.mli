(** The pluggable serializability certifier.

    Every point where the engine consults its certifier — registration,
    rw-antidependency evidence from visibility and from the SIREAD locks a
    write touches, the pre-commit test, the 2PC and recovery lifecycle,
    safe-snapshot queries and introspection — is one function of the
    module type {!S}, written once in {!Certifier_intf} and re-exported
    here together with the types every certifier shares.  Two modules
    implement it directly:

    - {!Ssi} for [SSI] — the paper's dangerous-structure detection, with
      safe snapshots and [BEGIN DEFERRABLE] support;
    - {!Ssn} for [SSN] — the Serial Safety Net's pstamp/sstamp
      exclusion-window check — and, created with [~extended:true], for
      [ESSN], SSN with the effective-commit-stamp refinement for read-only
      transactions.

    {!make} packs the implementation a {!config} selects with its instance
    as one {!packed} value.  The engine unpacks it once per transaction, so
    a transaction's node can only ever reach the certifier that created
    it.  Metrics and trace events are namespaced by {!prefix} ([ssi.*],
    [ssn.*], [essn.*]) so output from different certifiers never
    aliases. *)

include module type of struct
  include Certifier_intf
end

val all_kinds : kind list
val kind_to_string : kind -> string

val prefix : kind -> string
(** The metric/event namespace the certifier reports under:
    [<prefix>.conflicts], [<prefix>.dooms], [<prefix>.failures],
    [<prefix>.victims.<reason>], and [<prefix>.fail] / [<prefix>.doom] /
    [<prefix>.rw_edge] (plus [ssi.dangerous] or [<prefix>.exclusion])
    trace events. *)

type packed = Cert : (module S with type t = 'c and type node = 'n) * 'c -> packed
(** A certifier instance together with its implementation. *)

val make : ?config:config -> ?obs:Ssi_obs.Obs.t -> Ssi_mvcc.Mvcc.Clog.t -> packed
(** Build the instance [config.kind] names. *)

val graph_dot : kind -> node_info list -> string
(** A {!S.dump_graph} in Graphviz DOT format (rw edges only, as in the
    paper's Figure 3), as [digraph <prefix>]. *)
