(* Property tests for the binary wire codec ({!Ovsdb.Binc} and the
   binary forms layered on it): arbitrary database updates and
   P4Runtime messages round-trip exactly, and corrupt input — every
   truncation, random bit flips — yields [Error], never an exception.
   A differential leg checks the JSON and binary codecs agree on the
   decoded value. *)

module G = QCheck2.Gen
module W = P4runtime.Wire

(* ---------------- generators: database values ---------------- *)

let gen_atom : Ovsdb.Atom.t G.t =
  G.oneof
    [
      G.map (fun i -> Ovsdb.Atom.Integer (Int64.of_int i)) G.int;
      (* floats via of_int: exact equality after the bits round-trip *)
      G.map (fun i -> Ovsdb.Atom.Real (float_of_int i)) (G.int_range (-1000) 1000);
      G.map (fun b -> Ovsdb.Atom.Boolean b) G.bool;
      G.map (fun s -> Ovsdb.Atom.String s) (G.string_size (G.int_range 0 12));
      G.map (fun () -> Ovsdb.Atom.Uuid (Ovsdb.Uuid.fresh ())) G.unit;
      G.return (Ovsdb.Atom.Uuid Ovsdb.Uuid.nil);
    ]

(* Built through [Datum.set]/[Datum.map] so the generated value is
   already canonical — the decoder re-canonicalises, and round-trip
   equality must hold on canonical forms. *)
let gen_datum : Ovsdb.Datum.t G.t =
  G.oneof
    [
      G.map Ovsdb.Datum.set (G.list_size (G.int_range 0 4) gen_atom);
      G.map Ovsdb.Datum.map
        (G.list_size (G.int_range 0 4) (G.pair gen_atom gen_atom));
    ]

let gen_row : Ovsdb.Db.row G.t =
  G.list_size (G.int_range 0 4)
    (G.pair (G.string_size ~gen:(G.char_range 'a' 'z') (G.int_range 1 8))
       gen_datum)

let gen_row_update : Ovsdb.Db.row_update G.t =
  G.map2
    (fun before after -> { Ovsdb.Db.before; after })
    (G.option gen_row) (G.option gen_row)

let gen_table_updates : Ovsdb.Db.table_updates G.t =
  G.list_size (G.int_range 0 3)
    (G.pair
       (G.string_size ~gen:(G.char_range 'A' 'Z') (G.int_range 1 8))
       (G.list_size (G.int_range 0 3)
          (G.pair
             (G.map (fun () -> Ovsdb.Uuid.fresh ()) G.unit)
             gen_row_update)))

(* ---------------- generators: p4runtime messages ---------------- *)

let gen_i64 = G.map Int64.of_int G.int

let gen_match : P4runtime.field_match G.t =
  G.oneof
    [
      G.map (fun v -> P4runtime.FmExact v) gen_i64;
      G.map2 (fun v l -> P4runtime.FmLpm (v, l)) gen_i64 (G.int_range 0 64);
      G.map2 (fun v m -> P4runtime.FmTernary (v, m)) gen_i64 gen_i64;
      G.map (fun o -> P4runtime.FmOptional o) (G.option gen_i64);
    ]

let gen_entry : P4runtime.table_entry G.t =
  G.map
    (fun (table_id, matches, priority, (action_id, action_args)) ->
      { P4runtime.table_id; matches; priority; action_id; action_args })
    (G.quad G.nat
       (G.list_size (G.int_range 0 4) gen_match)
       G.nat
       (G.pair G.nat (G.list_size (G.int_range 0 4) gen_i64)))

let gen_update : P4runtime.update G.t =
  G.map2
    (fun utype entity -> { P4runtime.utype; entity })
    (G.oneofl [ P4runtime.Insert; P4runtime.Modify; P4runtime.Delete ])
    (G.oneof
       [
         G.map (fun e -> P4runtime.TableEntry e) gen_entry;
         G.map2
           (fun group_id replicas ->
             P4runtime.MulticastGroupEntry { P4runtime.group_id; replicas })
           gen_i64
           (G.list_size (G.int_range 0 4) gen_i64);
       ])

let gen_request : W.request G.t =
  G.oneof
    [
      G.map (fun us -> W.Write us) (G.list_size (G.int_range 0 4) gen_update);
      G.map (fun i -> W.Read_table i) G.nat;
      G.return W.Read_groups;
      G.return W.Poll_digests;
      G.map (fun i -> W.Ack i) G.nat;
    ]

let gen_response : W.response G.t =
  G.oneof
    [
      G.return (W.Write_reply (Ok ()));
      G.map (fun m -> W.Write_reply (Error m)) (G.string_size (G.int_range 0 16));
      G.map (fun es -> W.Table es) (G.list_size (G.int_range 0 4) gen_entry);
      G.map (fun gs -> W.Groups gs)
        (G.list_size (G.int_range 0 3)
           (G.pair gen_i64 (G.list_size (G.int_range 0 3) gen_i64)));
      G.map (fun dls -> W.Digests dls)
        (G.list_size (G.int_range 0 3)
           (G.map
              (fun (digest_id, list_id, entries) ->
                { P4runtime.digest_id; list_id; entries })
              (G.triple G.nat G.nat
                 (G.list_size (G.int_range 0 3)
                    (G.list_size (G.int_range 0 3) gen_i64)))));
      G.return W.Acked;
      G.map (fun m -> W.Error_reply m) (G.string_size (G.int_range 0 16));
    ]

(* ---------------- round-trip properties ---------------- *)

let prop_updates_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"binc table_updates round-trip"
    gen_table_updates (fun tu ->
      Ovsdb.Rpc.updates_of_binary (Ovsdb.Rpc.updates_to_binary tu) = Ok tu)

let prop_p4_request_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"binc p4 request round-trip" gen_request
    (fun req -> W.decode_request_bin (W.encode_request_bin req) = Ok req)

let prop_p4_response_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"binc p4 response round-trip"
    gen_response (fun resp ->
      W.decode_response_bin (W.encode_response_bin resp) = Ok resp)

(* The two codecs must agree on what a message means: encode through
   each, decode through each, land on the same value. *)
let prop_codec_differential =
  QCheck2.Test.make ~count:200 ~name:"json and binary codecs agree"
    gen_response (fun resp ->
      W.decode_response (W.encode_response resp) = Ok resp
      && W.decode_response_bin (W.encode_response_bin resp) = Ok resp)

(* ---------------- corruption safety ---------------- *)

(* Every strict prefix of a valid encoding must decode to [Error] (the
   decoders demand full, exact consumption), and no prefix may raise. *)
let prop_truncation_safe =
  QCheck2.Test.make ~count:100 ~name:"binc truncation yields Error"
    gen_table_updates (fun tu ->
      let s = Ovsdb.Rpc.updates_to_binary tu in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match Ovsdb.Rpc.updates_of_binary (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
        | exception _ -> ok := false
      done;
      !ok)

(* A flipped bit may still decode (e.g. inside a string's bytes), but
   it must never raise — and the p4 decoders hold the same contract. *)
let prop_bitflip_safe =
  QCheck2.Test.make ~count:200 ~name:"binc bit flips never raise"
    (G.triple gen_response G.nat G.(int_range 0 7))
    (fun (resp, pos, bit) ->
      let s = W.encode_response_bin resp in
      if String.length s = 0 then true
      else begin
        let b = Bytes.of_string s in
        let i = pos mod Bytes.length b in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        match W.decode_response_bin (Bytes.to_string b) with
        | Ok _ | Error _ -> true
        | exception _ -> false
      end)

(* ---------------- deterministic spot checks ---------------- *)

let test_mgmt_response_codecs () =
  let tu =
    [
      ( "Port",
        [
          ( Ovsdb.Uuid.fresh (),
            {
              Ovsdb.Db.before = None;
              after =
                Some
                  [
                    ("name", Ovsdb.Datum.string "p1");
                    ("port", Ovsdb.Datum.integer 1L);
                    ( "trunks",
                      Ovsdb.Datum.set
                        [ Ovsdb.Atom.Integer 10L; Ovsdb.Atom.Integer 20L ] );
                  ];
            } );
        ] );
    ]
  in
  List.iter
    (fun resp ->
      (match
         Nerpa.Links.decode_mgmt_response Transport.Binary
           (Nerpa.Links.encode_mgmt_response Transport.Binary resp)
       with
      | Ok got ->
        Alcotest.(check bool) "binary mgmt response round-trips" true
          (got = resp)
      | Error e -> Alcotest.failf "binary mgmt decode failed: %s" e);
      match
        Nerpa.Links.decode_mgmt_response Transport.Json
          (Nerpa.Links.encode_mgmt_response Transport.Json resp)
      with
      | Ok got ->
        Alcotest.(check bool) "json mgmt response round-trips" true
          (got = resp)
      | Error e -> Alcotest.failf "json mgmt decode failed: %s" e)
    [
      Nerpa.Links.Batches [];
      Nerpa.Links.Batches [ tu; [] ];
      Nerpa.Links.Snapshot tu;
    ];
  (* requests too, both codecs *)
  List.iter
    (fun req ->
      Alcotest.(check bool) "binary mgmt request round-trips" true
        (Nerpa.Links.decode_mgmt_request Transport.Binary
           (Nerpa.Links.encode_mgmt_request Transport.Binary req)
        = Ok req);
      Alcotest.(check bool) "json mgmt request round-trips" true
        (Nerpa.Links.decode_mgmt_request Transport.Json
           (Nerpa.Links.encode_mgmt_request Transport.Json req)
        = Ok req))
    [ Nerpa.Links.Poll_monitor; Nerpa.Links.Resync ]

let test_binary_smaller_than_json () =
  (* the point of the exercise: the hot responses shrink *)
  let entries =
    List.init 32 (fun i ->
        {
          P4runtime.table_id = 3;
          matches = [ P4runtime.FmExact (Int64.of_int i) ];
          priority = 0;
          action_id = 2;
          action_args = [ Int64.of_int (i * 7) ];
        })
  in
  let resp = W.Table entries in
  Alcotest.(check bool) "binary beats json on a table read" true
    (String.length (W.encode_response_bin resp)
    < String.length (W.encode_response resp))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_updates_roundtrip;
      prop_p4_request_roundtrip;
      prop_p4_response_roundtrip;
      prop_codec_differential;
      prop_truncation_safe;
      prop_bitflip_safe;
    ]
  @ [
      Alcotest.test_case "mgmt codecs round-trip (json + binary)" `Quick
        test_mgmt_response_codecs;
      Alcotest.test_case "binary encoding is smaller" `Quick
        test_binary_smaller_than_json;
    ]
