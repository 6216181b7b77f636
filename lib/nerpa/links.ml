(* A shard's contribution to the exchanged relations, pushed at its own
   shard daemon's exchange database (see [Xrel]): Z-set deltas of
   row-text per relation.  [pub_reset] first clears every row the shard
   previously published — the first publish of a (re)started controller
   is a reset, so a prior incarnation's stale rows cannot survive it. *)
type publish = {
  pub_shard : int;
  pub_reset : bool;
  pub_rows : (string * (string * int) list) list;
}

type mgmt_request = Poll_monitor | Resync | Publish of publish | Get_stats

type mgmt_response =
  | Batches of Ovsdb.Db.table_updates list
  | Snapshot of Ovsdb.Db.table_updates
  | Pub_ok
  | Stats of string

type mgmt_link = (mgmt_request, mgmt_response) Transport.t
type p4_link = (P4runtime.Wire.request, P4runtime.Wire.response) Transport.t

let mgmt_handler db mon = function
  | Poll_monitor -> Batches (Ovsdb.Db.poll mon)
  | Resync ->
    (* Drain the monitor first: queued batches describe changes already
       visible in the snapshot, and must not be replayed on top of it. *)
    ignore (Ovsdb.Db.poll mon);
    Snapshot (Ovsdb.Db.snapshot db)
  | Publish p ->
    (* Only meaningful against an exchange database (one whose schema
       has the [Xrel] table); publishing at anything else is a
       deployment wiring error and fails loudly in [Xrel.apply]. *)
    Xrel.apply db ~shard:p.pub_shard ~reset:p.pub_reset ~rows:p.pub_rows;
    Pub_ok
  | Get_stats -> Stats (Obs.render_json ())

(* ---------------- management-plane codec ---------------- *)

module J = Ovsdb.Json

let publish_to_json (p : publish) =
  J.Obj
    [
      ("shard", J.Int (Int64.of_int p.pub_shard));
      ("reset", J.Bool p.pub_reset);
      ( "rows",
        J.List
          (List.map
             (fun (rel, rws) ->
               J.Obj
                 [
                   ("rel", J.String rel);
                   ( "delta",
                     J.List
                       (List.map
                          (fun (row, w) -> J.List [ J.String row; J.Int (Int64.of_int w) ])
                          rws) );
                 ])
             p.pub_rows) );
    ]

let publish_of_json = function
  | J.Obj [ ("shard", J.Int shard); ("reset", J.Bool reset); ("rows", J.List rows) ] ->
    let shard = Int64.to_int shard in
    let rel_of = function
      | J.Obj [ ("rel", J.String rel); ("delta", J.List delta) ] ->
        ( rel,
          List.map
            (function
              | J.List [ J.String row; J.Int w ] -> (row, Int64.to_int w)
              | j -> failwith ("bad publish row " ^ J.to_string j))
            delta )
      | j -> failwith ("bad publish relation " ^ J.to_string j)
    in
    { pub_shard = shard; pub_reset = reset; pub_rows = List.map rel_of rows }
  | j -> failwith ("bad publish " ^ J.to_string j)

let json_of_mgmt_request = function
  | Poll_monitor -> J.to_string (J.String "poll")
  | Resync -> J.to_string (J.String "resync")
  | Publish p -> J.to_string (J.Obj [ ("publish", publish_to_json p) ])
  | Get_stats -> J.to_string (J.String "stats")

let mgmt_request_of_json s =
  match J.of_string s with
  | J.String "poll" -> Ok Poll_monitor
  | J.String "resync" -> Ok Resync
  | J.String "stats" -> Ok Get_stats
  | J.Obj [ ("publish", j) ] -> (
    try Ok (Publish (publish_of_json j)) with Failure msg -> Error msg)
  | j -> Error (Printf.sprintf "bad monitor request %s" (J.to_string j))
  | exception J.Parse_error msg -> Error msg

let json_of_mgmt_response = function
  | Batches bs ->
    J.to_string (J.List (List.map Ovsdb.Rpc.updates_to_json bs))
  | Snapshot s ->
    J.to_string
      (J.Obj [ ("snapshot", Ovsdb.Rpc.updates_to_json s) ])
  | Pub_ok -> J.to_string (J.String "pub-ok")
  | Stats s -> J.to_string (J.Obj [ ("stats", J.String s) ])

let mgmt_response_of_json s =
  match J.of_string s with
  | J.List bs -> (
    try Ok (Batches (List.map Ovsdb.Rpc.updates_of_json bs))
    with Ovsdb.Rpc.Protocol_error msg -> Error msg)
  | J.Obj [ ("snapshot", j) ] -> (
    try Ok (Snapshot (Ovsdb.Rpc.updates_of_json j))
    with Ovsdb.Rpc.Protocol_error msg -> Error msg)
  | J.String "pub-ok" -> Ok Pub_ok
  | J.Obj [ ("stats", J.String s) ] -> Ok (Stats s)
  | j -> Error (Printf.sprintf "bad monitor response %s" (J.to_string j))
  | exception J.Parse_error msg -> Error msg

(* Binary forms (Ovsdb.Binc), used when the socket connection
   negotiated the binary frame codec. *)

module B = Ovsdb.Binc

let w_publish b (p : publish) =
  B.w_varint b p.pub_shard;
  B.w_bool b p.pub_reset;
  B.w_list
    (fun b (rel, rws) ->
      B.w_string b rel;
      B.w_list
        (fun b (row, w) ->
          B.w_string b row;
          B.w_int64 b (Int64.of_int w))
        b rws)
    b p.pub_rows

let r_publish r =
  let pub_shard = B.r_varint r in
  let pub_reset = B.r_bool r in
  let pub_rows =
    B.r_list
      (fun r ->
        let rel = B.r_string r in
        let rws =
          B.r_list
            (fun r ->
              let row = B.r_string r in
              (row, Int64.to_int (B.r_int64 r)))
            r
        in
        (rel, rws))
      r
  in
  { pub_shard; pub_reset; pub_rows }

let bin_of_mgmt_request = function
  | Poll_monitor -> "\x00"
  | Resync -> "\x01"
  | Publish p ->
    let b = B.writer () in
    B.w_u8 b 2;
    w_publish b p;
    B.contents b
  | Get_stats -> "\x03"

let mgmt_request_of_bin s =
  match s with
  | "\x00" -> Ok Poll_monitor
  | "\x01" -> Ok Resync
  | "\x03" -> Ok Get_stats
  | s when String.length s > 0 && s.[0] = '\x02' ->
    B.decode
      (fun r ->
        match B.r_u8 r with
        | 2 -> Publish (r_publish r)
        | t -> raise (B.Error (Printf.sprintf "bad monitor request tag %d" t)))
      s
  | s -> Error (Printf.sprintf "bad binary monitor request (%d bytes)"
                  (String.length s))

let bin_of_mgmt_response = function
  | Batches bs ->
    let b = B.writer () in
    B.w_u8 b 0;
    B.w_list B.w_table_updates b bs;
    B.contents b
  | Snapshot s ->
    let b = B.writer () in
    B.w_u8 b 1;
    B.w_table_updates b s;
    B.contents b
  | Pub_ok -> "\x02"
  | Stats s ->
    let b = B.writer () in
    B.w_u8 b 3;
    B.w_string b s;
    B.contents b

let mgmt_response_of_bin s =
  B.decode
    (fun r ->
      match B.r_u8 r with
      | 0 -> Batches (B.r_list B.r_table_updates r)
      | 1 -> Snapshot (B.r_table_updates r)
      | 2 -> Pub_ok
      | 3 -> Stats (B.r_string r)
      | t -> raise (B.Error (Printf.sprintf "bad monitor response tag %d" t)))
    s

(* One codec-indexed pair per message type: the shape Transport.socket
   and lib/server consume; the in-process wire links use [Json]. *)

let encode_mgmt_request = function
  | Transport.Json -> json_of_mgmt_request
  | Transport.Binary -> bin_of_mgmt_request

let decode_mgmt_request = function
  | Transport.Json -> mgmt_request_of_json
  | Transport.Binary -> mgmt_request_of_bin

let encode_mgmt_response = function
  | Transport.Json -> json_of_mgmt_response
  | Transport.Binary -> bin_of_mgmt_response

let decode_mgmt_response = function
  | Transport.Json -> mgmt_response_of_json
  | Transport.Binary -> mgmt_response_of_bin

let encode_p4_request = function
  | Transport.Json -> P4runtime.Wire.encode_request
  | Transport.Binary -> P4runtime.Wire.encode_request_bin

let decode_p4_request = function
  | Transport.Json -> P4runtime.Wire.decode_request
  | Transport.Binary -> P4runtime.Wire.decode_request_bin

let encode_p4_response = function
  | Transport.Json -> P4runtime.Wire.encode_response
  | Transport.Binary -> P4runtime.Wire.encode_response_bin

let decode_p4_response = function
  | Transport.Json -> P4runtime.Wire.decode_response
  | Transport.Binary -> P4runtime.Wire.decode_response_bin

(* ---------------- constructors ---------------- *)

let direct_mgmt db mon = Transport.direct (mgmt_handler db mon)

let wire_mgmt db mon =
  Transport.wire ~encode_req:(encode_mgmt_request Transport.Json)
    ~decode_req:(decode_mgmt_request Transport.Json)
    ~encode_resp:(encode_mgmt_response Transport.Json)
    ~decode_resp:(decode_mgmt_response Transport.Json) (mgmt_handler db mon)

let socket_mgmt ?codec ?auth ~addr () =
  Transport.socket ~plane:Transport.Frame.Mgmt ~addr ?auth ?codec
    ~encode_req:encode_mgmt_request ~decode_resp:decode_mgmt_response ()

let direct_p4 srv = Transport.direct (P4runtime.Wire.dispatch srv)

let wire_p4 srv =
  Transport.wire ~encode_req:(encode_p4_request Transport.Json)
    ~decode_req:(decode_p4_request Transport.Json)
    ~encode_resp:(encode_p4_response Transport.Json)
    ~decode_resp:(decode_p4_response Transport.Json) (P4runtime.Wire.dispatch srv)

let socket_p4 ?codec ?auth ~addr () =
  Transport.socket ~plane:Transport.Frame.P4 ~addr ?auth ?codec
    ~encode_req:encode_p4_request ~decode_resp:decode_p4_response ()
