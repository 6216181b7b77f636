(** Plane-boundary links: the controller's view of its peers as
    {!Transport} request/response channels.

    The management link carries monitor polls — and, since the socket
    transport made server loss real, {!Resync} requests — toward the
    OVSDB server; the P4Runtime link carries {!P4runtime.Wire} messages
    toward a switch.  Each has a [direct_*] constructor (in-process
    closure, the fast path), a [wire_*] constructor that round-trips
    every message through serialized bytes, and a [socket_*]
    constructor that speaks the same bytes over a Unix-domain socket
    toward a [lib/server] process.

    Fault-injection wraps any flavour with {!Transport.faulty}. *)

type publish = {
  pub_shard : int;  (** the publishing shard's id *)
  pub_reset : bool;
      (** first delete every row the shard previously published — sent
          by a (re)started controller so stale rows cannot survive it *)
  pub_rows : (string * (string * int) list) list;
      (** per relation, a Z-set delta of canonical row text (weights
          [+1]/[-1]; see {!Xrel} for the row codec) *)
}
(** A shard's contribution to the exchanged relations, pushed at its
    own shard daemon's exchange database. *)

type mgmt_request =
  | Poll_monitor  (** drain the monitor's queued change batches *)
  | Resync
      (** request the database's full current contents; issued after a
          reconnect or a lost batch, diffed client-side against the
          engine's inputs *)
  | Publish of publish
      (** apply a shard's exchange delta to this (exchange) database *)
  | Get_stats
      (** ask the serving process for its {!Obs} metrics snapshot —
          what [nerpa_cli stats] aggregates across a cluster's shards *)

type mgmt_response =
  | Batches of Ovsdb.Db.table_updates list
  | Snapshot of Ovsdb.Db.table_updates
  | Pub_ok  (** a {!Publish} was applied *)
  | Stats of string  (** {!Obs.render_json} of the serving process *)

type mgmt_link = (mgmt_request, mgmt_response) Transport.t
type p4_link = (P4runtime.Wire.request, P4runtime.Wire.response) Transport.t

val mgmt_handler :
  Ovsdb.Db.t -> Ovsdb.Db.monitor -> mgmt_request -> mgmt_response
(** Server-side dispatch: [Poll_monitor] drains the monitor, [Resync]
    discards any queued batches (they are subsumed) and snapshots the
    database, [Publish] applies an exchange delta via {!Xrel.apply}
    (only sensible when [db] is an exchange database), [Get_stats]
    renders this process's metrics.  Shared by the in-process links
    and [lib/server]. *)

(** {1 Codecs}

    One pair per message type, indexed by the frame codec: JSON text
    (the interoperability fallback) or the compact binary form
    ({!Ovsdb.Binc}, {!P4runtime.Wire}'s [_bin] forms), selected per
    socket connection.  The in-process [wire_*] links use [Json]. *)

val encode_mgmt_request : Transport.codec -> mgmt_request -> string
val decode_mgmt_request :
  Transport.codec -> string -> (mgmt_request, string) result
val encode_mgmt_response : Transport.codec -> mgmt_response -> string
val decode_mgmt_response :
  Transport.codec -> string -> (mgmt_response, string) result

val encode_p4_request : Transport.codec -> P4runtime.Wire.request -> string
val decode_p4_request :
  Transport.codec -> string -> (P4runtime.Wire.request, string) result
val encode_p4_response : Transport.codec -> P4runtime.Wire.response -> string
val decode_p4_response :
  Transport.codec -> string -> (P4runtime.Wire.response, string) result

(** {1 Constructors} *)

val direct_mgmt : Ovsdb.Db.t -> Ovsdb.Db.monitor -> mgmt_link
val wire_mgmt : Ovsdb.Db.t -> Ovsdb.Db.monitor -> mgmt_link

val socket_mgmt :
  ?codec:Transport.codec -> ?auth:string -> addr:Transport.addr -> unit ->
  mgmt_link
(** Client end of a [lib/server] management (or exchange) socket.
    [codec] (default [Binary]) is the preferred payload serialization;
    see {!Transport.socket} for the negotiation/fallback rules.
    [auth] runs the shared-secret handshake on every fresh
    connection. *)

val direct_p4 : P4runtime.server -> p4_link
val wire_p4 : P4runtime.server -> p4_link

val socket_p4 :
  ?codec:Transport.codec -> ?auth:string -> addr:Transport.addr -> unit ->
  p4_link
(** Client end of a [lib/server] per-switch socket; [codec] and [auth]
    as in {!socket_mgmt}. *)
