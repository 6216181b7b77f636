(** Snapshot → diff → correct: the controller's one repair primitive.

    When an increment toward a peer may have been lost (a link failure,
    an exhausted retry, a reconnect edge), the controller stops trusting
    its incremental view, reads the peer's whole state, diffs it against
    what the engine says should be there, and applies one corrective
    delta.  Switch reconciliation, the management-plane resync and the
    cross-shard exchange resync all take this shape. *)

val diff :
  hash:('a -> int) ->
  equal:('a -> 'a -> bool) ->
  have:'a list ->
  want:'a list ->
  'a list * 'a list
(** [diff ~hash ~equal ~have ~want] is [(stale, missing)]: the elements
    of [have] that [want] lacks, and the elements of [want] that [have]
    lacks, each in input order with duplicates kept — exactly
    [List.filter (fun x -> not (mem x want)) have] and its converse
    under [equal], but in time linear in [|have| + |want|] (expected,
    for a [hash] consistent with [equal]). *)

val read_switch :
  Links.p4_link ->
  P4.P4info.t ->
  (P4runtime.table_entry list * (int64 * int64 list) list, string) result
(** One switch snapshot: every table of the P4Info plus the multicast
    groups, read in a single pipelined batch ({!Transport.send_many}).
    Entries come in table order, as the switch returns them; each
    group's ports are sorted.  [Error] carries the reason on a link
    failure, a server error reply or a protocol mismatch. *)
