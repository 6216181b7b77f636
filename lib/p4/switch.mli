(** The behavioural model: a software switch that executes a mini-P4
    program, in the role BMv2 plays in the paper's prototype.

    Packet life cycle (v1model-like): parse → ingress control →
    replication (unicast / multicast / clones) → egress control per
    copy → deparse.  The switch also holds the control-plane-visible
    state: table entries, multicast groups, counters, and the queue of
    emitted digests.

    By default packets run on a *compiled* fast path: the program is
    resolved once at [create] into slot arrays and closures, and each
    table keeps an incrementally-updated {!Matcher.t}, so per-packet
    work is a handful of lookups with no list allocation.
    [create ~use_compiled:false] instead runs the reference AST
    interpreter — bit-identical by construction of the shared
    [Entry.rank_compare] order, and enforced by the differential
    suite. *)

exception Switch_error of string

type t = {
  program : Program.t;
  name : string;
  ports : int list;
  tables : (string, table_state) Hashtbl.t;
  mcast_groups : (int64, int64 list) Hashtbl.t;
  counters : (string, (int64, int64) Hashtbl.t) Hashtbl.t;
  registers : (string, (int64, int64) Hashtbl.t) Hashtbl.t;
  digest_queue : digest_msg list ref;
  packets_in : int Atomic.t;   (** domain-safe packet counters *)
  packets_out : int Atomic.t;
  compiled : compiled;
  use_compiled : bool;
}

and table_state

and compiled

and digest_msg = { digest_name : string; values : (string * int64) list }

val create : ?name:string -> ?ports:int list -> ?use_compiled:bool -> Program.t -> t
(** Instantiate a switch running [program].  [use_compiled] (default
    true) selects the compiled fast path; [false] keeps the naive AST
    interpreter for differential testing.
    @raise Switch_error if the program does not type-check. *)

(** {1 Control-plane operations} *)

val insert_entry : t -> string -> Entry.t -> unit
(** Install an entry; replaces an existing entry with the same match
    part.  Validates match kinds, the action and its arity against the
    program, and the table's declared capacity.  Updates the table's
    compiled matcher incrementally.
    @raise Switch_error on any violation. *)

val delete_entry : t -> string -> Entry.t -> unit
(** Remove the entry with the same match part, if present. *)

val find_same_match : t -> string -> Entry.t -> Entry.t option
(** The installed entry with the same match part, if any (O(1)). *)

val table_entries : t -> string -> Entry.t list
(** Installed entries in unspecified (hashtable) order. *)

val table_entries_ranked : t -> string -> Entry.t list
(** Installed entries highest-rank first under [Entry.rank_compare] —
    the order in which the data plane resolves overlaps, suitable for
    first-defined-wins folds (e.g. the FDD flow compiler). *)

val entry_count : t -> string -> int

val lookup : ?use_compiled:bool -> t -> string -> int64 array -> Entry.t option
(** The winning entry for raw key values (one per key column, already
    truncated to the column width), under the (lpm_length, priority,
    structural) total order.  [use_compiled:false] forces the naive
    scan over the entry store, mirroring [Engine.query ~use_indexes]. *)

val matcher_repr : t -> string -> string
(** Which compiled representation a table's schema selected:
    ["exact"], ["lpm-trie"] or ["scan"]. *)

val set_mcast_group : t -> int64 -> int64 list -> unit
(** Define the replica port list of a multicast group; an empty list
    removes the group. *)

val mcast_group : t -> int64 -> int64 list option

val mcast_groups_list : t -> (int64 * int64 list) list
(** All multicast groups, sorted by group id. *)

val take_digests : t -> digest_msg list
(** Drain queued digests, oldest first. *)

val counter_value : t -> string -> int64 -> int64
(** Current value of a counter cell.
    @raise Switch_error on unknown counters. *)

val register_value : t -> string -> int64 -> int64
(** Current value of a register cell (0 if never written). *)

val register_write : t -> string -> int64 -> int64 -> unit
(** Control-plane write to a register cell. *)

(** {1 The data path} *)

val process : t -> in_port:int -> Packet.t -> (int * Packet.t) list
(** Inject a packet; returns the (port, packet) copies the switch
    emits.  A parser reject or a [Drop] verdict yields no output; a
    [Drop] is sticky and suppresses clones too.  Digests emitted during
    processing are queued on the switch. *)

(** {1 Introspection} *)

type table_stats = { entries : int; hits : int; misses : int }

val stats : t -> string -> table_stats
