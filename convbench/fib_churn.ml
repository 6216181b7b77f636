(* fib_churn: an l3router FIB under route and neighbour churn, one
   switch in process with the incremental flow programmer attached.

   Why: OVSDB, the engine and the flow compiler do the work here, while
   the transport, the server and the exchange stay idle.  A [where]
   update scans the StaticRoute table, the bulk load is one large
   transaction, each next-hop update is a modify (a delete plus an
   insert to the engine) and so misses the flow compiler's single-op
   fast path, a neighbour move rewrites about 1/64 of the FIB, and
   route writes exercise the LPM matcher's write path. *)

let name = "fib_churn"
let rate = 30.  (* ops/s offered *)
let n_routes = 10_000
let n_nbs = 64
let n_bursts = 6
let burst_size = 60

type route = int64 * int  (* prefix, plen *)

type op =
  | Add of { prefix : int64; plen : int; nh : int; probe : int64 }
  | Del of { prefix : int64; plen : int; probe : int64 }
  | Set_nh of { prefix : int64; plen : int; nh : int; probe : int64 }
  | Move of { nb : int; mac : int64; port : int; probe : int64 }

let nb_ip k = Int64.of_int (0xC0A80000 + k)

(* ---------------- the model: what the FIB should forward ---------------- *)

type model = {
  routes : (route, int) Hashtbl.t;  (** route -> neighbour *)
  keys : route Gen.Bag.t;
  by_nb : route Gen.Bag.t array;  (** the routes through each neighbour *)
  nb_mac : int64 array;
  nb_port : int array;
}

let mask plen = if plen = 0 then 0L else Int64.logand 0xFFFFFFFFL (Int64.shift_left (-1L) (32 - plen))
let plens = [ 32; 24; 20 ]

(* The longest installed prefix covering [addr]. *)
let longest m addr =
  List.find_map
    (fun plen ->
      let r = (Int64.logand addr (mask plen), plen) in
      Option.map (fun nb -> (r, nb)) (Hashtbl.find_opt m.routes r))
    plens

let lookup m addr = Option.map (fun (_, nb) -> (m.nb_port.(nb), m.nb_mac.(nb))) (longest m addr)

let unroute m r =
  Option.iter (fun nb -> Gen.Bag.remove m.by_nb.(nb) r) (Hashtbl.find_opt m.routes r);
  Hashtbl.remove m.routes r;
  Gen.Bag.remove m.keys r

let route m r nb =
  unroute m r;
  Hashtbl.replace m.routes r nb;
  Gen.Bag.add m.keys r;
  Gen.Bag.add m.by_nb.(nb) r

let apply m = function
  | Add { prefix; plen; nh; _ } | Set_nh { prefix; plen; nh; _ } -> route m (prefix, plen) nh
  | Del { prefix; plen; _ } -> unroute m (prefix, plen)
  | Move { nb; mac; port; _ } ->
    m.nb_mac.(nb) <- mac;
    m.nb_port.(nb) <- port

(* ---------------- seeded generation ---------------- *)

type init = { init_routes : (route * int) list; init_nbs : (int64 * int) array }

let random_route rng : route =
  let r = Random.State.int rng 10 in
  let plen = if r = 0 then 20 else if r < 5 then 24 else 32 in
  let host = Int64.of_int (Random.State.int rng (1 lsl 24)) in
  (Int64.logand (Int64.logor 0x0A000000L host) (mask plen), plen)

let inside rng ((prefix, plen) : route) =
  if plen = 32 then prefix
  else Int64.logor prefix (Int64.of_int (Random.State.int rng (1 lsl (32 - plen))))

(* An address inside [r] that no prefix of [m] longer than [r] covers,
   so that its forwarding shows an op on [r]; [None] when a few tries
   find none. *)
let probe_in rng m ((_, plen) as r : route) =
  let rec go k =
    if k = 0 then None
    else
      let addr = inside rng r in
      match longest m addr with
      | Some ((_, pl), _) when pl > plen -> go (k - 1)
      | _ -> Some addr
  in
  go 64

let model_of (i : init) =
  let m =
    {
      routes = Hashtbl.create (2 * n_routes);
      keys = Gen.Bag.create ();
      by_nb = Array.init n_nbs (fun _ -> Gen.Bag.create ());
      nb_mac = Array.map fst i.init_nbs;
      nb_port = Array.map snd i.init_nbs;
    }
  in
  List.iter (fun (r, nh) -> route m r nh) i.init_routes;
  m

let gen_init rng : init =
  let init_nbs =
    Array.init n_nbs (fun k -> (Int64.of_int (0x02AA00000000 + k), 1 + (k mod 16)))
  in
  let seen = Hashtbl.create (2 * n_routes) in
  let routes = ref [] in
  while Hashtbl.length seen < n_routes do
    let r = random_route rng in
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      routes := (r, Random.State.int rng n_nbs) :: !routes
    end
  done;
  { init_routes = List.rev !routes; init_nbs }

(* Every op carries a probe address whose forwarding shows the op: an
   address the op's route decides (for a move, a route through the
   moved neighbour).  A draw that finds none is drawn again. *)
let rec gen_set_nh rng m =
  let ((prefix, plen) as r) = Gen.Bag.pick m.keys rng in
  match probe_in rng m r with
  | Some probe ->
    (* another neighbour than the route's, so the probe sees the change *)
    let nh = (Hashtbl.find m.routes r + 1 + Random.State.int rng (n_nbs - 1)) mod n_nbs in
    Set_nh { prefix; plen; nh; probe }
  | None -> gen_set_nh rng m

let rec gen_op rng m : op =
  let retry = function Some op -> op | None -> gen_op rng m in
  match Gen.weighted rng [ 62; 17; 20; 1 ] with
  | 0 -> gen_set_nh rng m
  | 1 ->
    let rec fresh () =
      let r = random_route rng in
      if Hashtbl.mem m.routes r then fresh () else r
    in
    let ((prefix, plen) as r) = fresh () in
    retry
      (Option.map
         (fun probe -> Add { prefix; plen; nh = Random.State.int rng n_nbs; probe })
         (probe_in rng m r))
  | 2 ->
    let ((prefix, plen) as r) = Gen.Bag.pick m.keys rng in
    retry (Option.map (fun probe -> Del { prefix; plen; probe }) (probe_in rng m r))
  | _ ->
    let nb = Random.State.int rng n_nbs in
    let port =
      let p = 1 + Random.State.int rng 15 in
      if p >= m.nb_port.(nb) then p + 1 else p
    in
    let mac = Int64.of_int (0x02BB00000000 + (Random.State.bits rng land 0xFFFFFF)) in
    retry
      (if Gen.Bag.length m.by_nb.(nb) = 0 then None
       else
         Option.map
           (fun probe -> Move { nb; mac; port; probe })
           (probe_in rng m (Gen.Bag.pick m.by_nb.(nb) rng)))

type stream = {
  init : init;
  bursts : op array list;
  ops : op array;
  due : float array;
}

(** The whole input of one run: the initial FIB, the bursts, then the
    open-loop ops and their Poisson due times. *)
let generate ~seed ~seconds : stream =
  let rng = Netgen.rng seed in
  let init = gen_init rng in
  let m = model_of init in
  let next () = let op = gen_op rng m in apply m op; op in
  (* a burst is a rollout: [burst_size] next-hop updates at once *)
  let bursts =
    List.init n_bursts (fun _ ->
        Array.init burst_size (fun _ -> let op = gen_set_nh rng m in apply m op; op))
  in
  let n = int_of_float (rate *. seconds *. 1.5) + 64 in
  let ops = Array.init n (fun _ -> next ()) in
  let due = Gen.poisson ~rng:(Netgen.rng (seed + 1)) ~rate n in
  { init; bursts; ops; due }

(* ---------------- the deployment ---------------- *)

type d = {
  dep : L3router.deployment;
  sw : P4.Switch.t;
  load_s : float;
  pushed : Ofp4.Openflow.flow_delta Queue.t;  (** deltas since the last check *)
}

let int_d x = Ovsdb.Datum.integer (Int64.of_int x)

let route_row (prefix, plen) nh =
  [ ("prefix", Ovsdb.Datum.integer prefix); ("plen", int_d plen); ("nexthop", Ovsdb.Datum.integer (nb_ip nh)) ]

let route_where (prefix, plen) =
  [ Ovsdb.Db.eq "prefix" (Ovsdb.Datum.integer prefix); Ovsdb.Db.eq "plen" (int_d plen) ]

let setup (s : stream) () : d =
  let dep = L3router.deploy () in
  let sw = L3router.switch dep "r0" in
  let ins table row = Ovsdb.Db.Insert { table; row; uuid = None } in
  ignore
    (Ovsdb.Db.transact_exn dep.db
       (Array.to_list
          (Array.mapi
             (fun k (mac, port) ->
               ins "Neighbor"
                 [ ("ip", Ovsdb.Datum.integer (nb_ip k)); ("mac", Ovsdb.Datum.integer mac); ("port", int_d port) ])
             s.init.init_nbs)));
  let t0 = Unix.gettimeofday () in
  ignore
    (Ovsdb.Db.transact_exn dep.db
       (List.map (fun (r, nh) -> ins "StaticRoute" (route_row r nh)) s.init.init_routes));
  let load_s = Unix.gettimeofday () -. t0 in
  ignore (Nerpa.Controller.sync dep.controller);
  let pushed = Queue.create () in
  Nerpa.Controller.attach_flow_programmer dep.controller "r0" sw ~push:(fun d -> Queue.push d pushed);
  { dep; sw; load_s; pushed }

let packet addr =
  P4.Stdhdrs.udp_packet ~eth_dst:0xAAL ~eth_src:0xBBL ~ip_src:0x0B000001L ~ip_dst:addr
    ~src_port:7L ~dst_port:53L ~payload:""

let in_port = 100

(* [expected] is the model's verdict for [addr]: out of a port with a
   rewritten destination MAC, or dropped. *)
let forwards (d : d) addr expected =
  match (expected, P4.Switch.process d.sw ~in_port (packet addr)) with
  | None, [] -> true
  | Some (port, mac), [ (p, out) ] ->
    p = port && P4.Packet.get_bits out ~bit_offset:0 ~width:48 = mac
  | _ -> false

let probe_ok d m addr = forwards d addr (lookup m addr)

let probe_addr = function
  | Add { probe; _ } | Del { probe; _ } | Set_nh { probe; _ } | Move { probe; _ } -> probe

let commit (d : d) m op =
  let txn =
    match op with
    | Add { prefix; plen; nh; _ } -> Ovsdb.Db.Insert { table = "StaticRoute"; row = route_row (prefix, plen) nh; uuid = None }
    | Del { prefix; plen; _ } -> Ovsdb.Db.Delete { table = "StaticRoute"; where = route_where (prefix, plen) }
    | Set_nh { prefix; plen; nh; _ } ->
      Ovsdb.Db.Update
        { table = "StaticRoute"; where = route_where (prefix, plen);
          row = [ ("nexthop", Ovsdb.Datum.integer (nb_ip nh)) ] }
    | Move { nb; mac; port; _ } ->
      Ovsdb.Db.Update
        { table = "Neighbor"; where = [ Ovsdb.Db.eq "ip" (Ovsdb.Datum.integer (nb_ip nb)) ];
          row = [ ("mac", Ovsdb.Datum.integer mac); ("port", int_d port) ] }
  in
  ignore (Ovsdb.Db.transact_exn d.dep.db [ txn ]);
  apply m op

let key = function
  | Add { prefix; plen; _ } | Del { prefix; plen; _ } | Set_nh { prefix; plen; _ } ->
    Hashtbl.hash (prefix, plen)
  | Move { nb; _ } -> -1 - nb

(* ---------------- oracles (never inside an op's latency) ---------------- *)

let sorted_outputs outs =
  List.sort compare (List.map (fun (p, pkt) -> (p, P4.Packet.to_string pkt)) outs)

(* [mirror] is the pipeline as of the previous check; the deltas pushed
   since then patch it. *)
let check (d : d) m mirror : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun e -> errs := e :: !errs) fmt in
  (* the OpenFlow mirror, patched with every pushed delta, equals a
     from-scratch compile *)
  Queue.iter (Ofp4.Openflow.apply_delta mirror) d.pushed;
  Queue.clear d.pushed;
  let scratch = Ofp4.Openflow.dump (Ofp4.Compile.compile d.sw) in
  (* [dump] sorts stably by table and priority, so equal-priority flows
     keep their insertion order: compare the replayed mirror as a set of
     lines, and the programmer's own pipeline byte for byte *)
  let lines s = List.sort compare (String.split_on_char '\n' s) in
  if lines (Ofp4.Openflow.dump mirror) <> lines scratch then
    err "flow mirror patched with the pushed deltas differs from a from-scratch compile";
  (match Nerpa.Controller.flow_pipeline d.dep.controller "r0" with
  | Some p when Ofp4.Openflow.dump p = scratch -> ()
  | _ -> err "flow programmer pipeline differs from a from-scratch compile");
  (* the mirror forwards like the switch *)
  let ev = Ofp4.Eval.of_switch d.sw mirror in
  let rng = Netgen.rng 7 in
  for _ = 1 to 200 do
    let addr =
      if Gen.Bag.length m.keys > 0 && Random.State.bool rng then inside rng (Gen.Bag.pick m.keys rng)
      else Int64.logor 0x0A000000L (Int64.of_int (Random.State.int rng (1 lsl 24)))
    in
    let pkt = packet addr in
    if sorted_outputs (Ofp4.Eval.process ev ~in_port pkt)
       <> sorted_outputs (P4.Switch.process d.sw ~in_port pkt)
    then err "Ofp4.Eval disagrees with the switch on %Lx" addr
  done;
  (* the installed FIB is exactly the model's *)
  let expected =
    Hashtbl.fold
      (fun (prefix, plen) nb acc -> (prefix, plen, Int64.of_int m.nb_port.(nb), m.nb_mac.(nb)) :: acc)
      m.routes []
    |> List.sort compare
  in
  let installed =
    List.filter_map
      (fun (e : P4.Entry.t) ->
        match (e.matches, e.args) with
        | [ P4.Entry.MLpm (prefix, plen) ], [ port; mac ] -> Some (prefix, plen, port, mac)
        | _ -> None)
      (P4.Switch.table_entries d.sw "routes")
    |> List.sort compare
  in
  if expected <> installed then
    err "installed FIB differs from the model (%d vs %d routes)" (List.length installed) (List.length expected);
  List.rev !errs

let workload (s : stream) : d Harness.workload =
  (* the set-up probes and their expected verdicts, computed once,
     outside the timed set-ups *)
  let probes =
    let m = model_of s.init in
    let rng = Netgen.rng 3 in
    List.init 32 (fun _ ->
        let addr = inside rng (Gen.Bag.pick m.keys rng) in
        (addr, lookup m addr))
  in
  {
    Harness.name;
    setups = 5;
    setup = setup s;
    verify_setup =
      (fun d -> List.for_all (fun (addr, expected) -> forwards d addr expected) probes);
    load_s = (fun d -> d.load_s);
    teardown = ignore;
  }

let phases (s : stream) (d : d) (fwd : Harness.fwd) : op Harness.phases =
  let m = model_of s.init in
  let frames =
    let rng = Netgen.rng 11 in
    Array.init Harness.frame_cycle (fun _ -> packet (inside rng (Gen.Bag.pick m.keys rng)))
  in
  let send k = ignore (P4.Switch.process d.sw ~in_port frames.(k mod Harness.frame_cycle)) in
  (* the oracle's copy of the programmer's pipeline, taken outside the
     timed set-ups and outside the deployment *)
  let mirror =
    match Nerpa.Controller.flow_pipeline d.dep.controller "r0" with
    | Some p -> p
    | None -> failwith "no flow programmer"
  in
  Queue.clear d.pushed;
  {
    Harness.open_loop =
      {
        Loop.ops = s.ops;
        due = s.due;
        key;
        kind = (fun _ -> Loop.Mgmt);
        layer = (fun _ -> "ovsdb.txn");
        commit = commit d m;
        sync = (fun () -> ignore (Nerpa.Controller.sync d.dep.controller));
        probe = (fun op -> probe_ok d m (probe_addr op));
        idle = (fun () -> Harness.forward fwd send);
      };
    bursts = s.bursts;
    checkpoint = (fun () -> check d m mirror);
    check = (fun _ -> check d m mirror);
  }

let run (p : Harness.params) : Harness.outcome =
  let s = generate ~seed:p.seed ~seconds:p.seconds in
  Harness.execute p (workload s) (phases s)
