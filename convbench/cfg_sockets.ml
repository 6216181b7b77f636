(* cfg_sockets: one snvs controller connected through [Snvs.connect]
   over Unix-domain sockets (binary codec) to a [lib/server] daemon
   hosted in this process, which holds the database and one switch —
   two connections.  Ops follow [Netgen.change_stream] (port add/del,
   ternary ACL add/del, mirror set) plus a trickle of host arrivals; the
   benchmark writes to the database and injects and probes frames under
   [Server.with_lock], as a co-hosted process would.

   Why: framing, codec, pipelining and server dispatch do the work per
   op, and the other two workloads bypass all of them; the ACL ops also
   exercise the ternary matcher's write path. *)

let name = "cfg_sockets"
let rate = 100.  (* ops/s offered *)
let base = 128
let vlans = 8
let n_acl_macs = 1000
let n_base_acls = 999  (* priorities 1..999, below every streamed ACL's *)
let n_bursts = 5
let burst_size = 1500
let host_every = 8  (* one op in [host_every] is a host arrival *)

let prober_mac p = Int64.of_int (0x02FE00000000 + p)
let host_mac k = Int64.of_int (0x020300000000 + k)
let acl_port = 1  (* ACL probes enter here; every ACL source MAC is learned on it *)
let bcast = 0xFFFFFFFFFFFFL

type op =
  | Change of { change : Netgen.change; acl : (int64 * int64) option  (** probed (src, dst) *) }
  | Host of { mac : int64; port : int }

(* ---------------- the model ---------------- *)

(* Only what a probe's expectation depends on beyond the op itself. *)
type model = {
  acls : (int, int64 * int64 * bool) Hashtbl.t;  (** prio -> (src, dst, allow) *)
  mutable mirror : (int * int) option;  (** (select, output) *)
}

let empty_model () = { acls = Hashtbl.create 1024; mirror = None }

let apply m = function
  | Change { change = Netgen.AddAcl { prio; src; dst; allow }; _ } ->
    Hashtbl.replace m.acls prio (src, dst, allow)
  | Change { change = Netgen.DelAcl prio; _ } -> Hashtbl.remove m.acls prio
  | Change { change = Netgen.SetMirror { select_port; output_port }; _ } ->
    m.mirror <- Some (select_port, output_port)
  | Change _ | Host _ -> ()

(* The highest-priority ACL matching exactly decides; none allows. *)
let allowed m (src, dst) =
  Hashtbl.fold
    (fun prio (s, d, allow) best ->
      if s = src && d = dst then
        match best with Some (p, _) when p > prio -> best | _ -> Some (prio, allow)
      else best)
    m.acls None
  |> Option.fold ~none:true ~some:snd

(* ---------------- seeded generation ---------------- *)

type stream = {
  base_acls : op list;  (** the initial ternary ACL, as [AddAcl] changes *)
  bursts : op array list;
  ops : op array;
  due : float array;
}

let generate ~seed ~seconds : stream =
  let n = int_of_float (rate *. seconds *. 1.5) + 64 + (n_bursts * burst_size) in
  let changes = Netgen.change_stream ~base ~n ~seed in
  let rng = Netgen.rng (seed + 2) in
  let m = empty_model () in
  let mac () = Int64.of_int (Random.State.int rng n_acl_macs) in
  let base_acls =
    List.init n_base_acls (fun i ->
        let src = mac () and dst = mac () in
        Change
          { change = Netgen.AddAcl { prio = i + 1; src; dst; allow = Random.State.bool rng };
            acl = Some (src, dst) })
  in
  List.iter (apply m) base_acls;
  let hosts = ref 0 in
  let rec ops changes =
    match changes with
    | [] -> []
    | _ when Random.State.int rng host_every = 0 ->
      incr hosts;
      let op = Host { mac = host_mac !hosts; port = 1 + Random.State.int rng base } in
      apply m op;
      op :: ops changes
    | change :: rest ->
      let acl =
        match change with
        | Netgen.AddAcl { src; dst; _ } -> Some (src, dst)
        | Netgen.DelAcl prio ->
          Option.map (fun (s, d, _) -> (s, d)) (Hashtbl.find_opt m.acls prio)
        | _ -> None
      in
      let op = Change { change; acl } in
      apply m op;
      op :: ops rest
  in
  let all = Array.of_list (ops changes) in
  let bursts = List.init n_bursts (fun b -> Array.sub all (b * burst_size) burst_size) in
  let k = n_bursts * burst_size in
  let ops = Array.sub all k (Array.length all - k) in
  let due = Gen.poisson ~rng:(Netgen.rng (seed + 1)) ~rate (Array.length ops) in
  { base_acls; bursts; ops; due }

(* ---------------- deployments ---------------- *)

(* The daemon-hosted deployment and the in-process replay both speak
   through this record; [locked] is [Server.with_lock] or plain
   application. *)
type plane = {
  db : Ovsdb.Db.t;
  switch : P4.Switch.t;
  controller : Nerpa.Controller.t;
  locked : 'a. (unit -> 'a) -> 'a;
}

let int_d x = Ovsdb.Datum.integer (Int64.of_int x)

let port_op (p : Netgen.port_plan) =
  Ovsdb.Db.Insert
    { table = "Port";
      row =
        [ ("name", Ovsdb.Datum.string p.pp_name); ("port", int_d p.pp_port);
          ("mode", Ovsdb.Datum.string p.pp_mode); ("tag", int_d p.pp_tag);
          ("trunks", Ovsdb.Datum.set (List.map (fun v -> Ovsdb.Atom.Integer (Int64.of_int v)) p.pp_trunks)) ];
      uuid = None }

let txn (pl : plane) ops = pl.locked (fun () -> ignore (Ovsdb.Db.transact_exn pl.db ops))

let frame ~src ~dst = P4.Stdhdrs.ethernet_frame ~dst ~src ~ethertype:0x0800L ~payload:(String.make 46 'x')

let inject (pl : plane) ~in_port pkt =
  pl.locked (fun () -> P4.Switch.process pl.switch ~in_port pkt)

let acl_row = function
  | Change { change = Netgen.AddAcl { prio; src; dst; allow }; _ } ->
    Ovsdb.Db.Insert
      { table = "Acl";
        row =
          [ ("priority", int_d prio); ("src", Ovsdb.Datum.integer src);
            ("src_mask", Ovsdb.Datum.integer (-1L)); ("dst", Ovsdb.Datum.integer dst);
            ("dst_mask", Ovsdb.Datum.integer (-1L)); ("allow", Ovsdb.Datum.boolean allow) ];
        uuid = None }
  | _ -> invalid_arg "acl_row"

let commit (pl : plane) op =
  match op with
  | Host { mac; port } -> ignore (inject pl ~in_port:port (frame ~src:mac ~dst:bcast))
  | Change { change; _ } -> (
    match change with
    | Netgen.AddPort p -> txn pl [ port_op p ]
    | Netgen.DelPort name ->
      txn pl [ Ovsdb.Db.Delete { table = "Port"; where = [ Ovsdb.Db.eq "name" (Ovsdb.Datum.string name) ] } ]
    | Netgen.AddAcl _ -> txn pl [ acl_row op ]
    | Netgen.DelAcl prio ->
      txn pl [ Ovsdb.Db.Delete { table = "Acl"; where = [ Ovsdb.Db.eq "priority" (int_d prio) ] } ]
    | Netgen.SetMirror { select_port; output_port } ->
      txn pl
        [ Ovsdb.Db.Delete { table = "Mirror"; where = [] };
          Ovsdb.Db.Insert
            { table = "Mirror";
              row = [ ("name", Ovsdb.Datum.string "m"); ("select_port", int_d select_port);
                      ("output_port", int_d output_port) ];
              uuid = None } ])

let sync (pl : plane) = ignore (Nerpa.Controller.sync pl.controller)

(* The initial configuration: [base] access ports over [vlans] VLANs, a
   ternary ACL of [n_base_acls] rules, so that the ACL churn moves the
   table size by a small share only, a prober MAC learned on every
   port, and every MAC an ACL can name learned on [acl_port], so no
   probe ever triggers learning. *)
let load (pl : plane) (s : stream) =
  txn pl
    (List.map port_op (Netgen.ports ~vlans ~trunk_every:0 ~n:base ())
    @ List.map acl_row s.base_acls);
  sync pl;
  for p = 1 to base do
    ignore (inject pl ~in_port:p (frame ~src:(prober_mac p) ~dst:bcast))
  done;
  for a = 0 to n_acl_macs - 1 do
    ignore (inject pl ~in_port:acl_port (frame ~src:(Int64.of_int a) ~dst:bcast))
  done;
  sync pl

type d = { server : Server.t; pl : plane; load_s : float }

let sock_dir = Filename.concat ".convbench" (Printf.sprintf "sock-%d" (Unix.getpid ()))

let setup (s : stream) () : d =
  (try Unix.mkdir ".convbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let db = Ovsdb.Db.create Snvs.schema in
  let switch = P4.Switch.create ~name:"snvs0" Snvs.p4 in
  let server = Server.create ~db ~switches:[ ("snvs0", switch) ] ~dir:sock_dir () in
  Server.start server;
  let controller = Snvs.connect ~endpoint:(Nerpa.Endpoint.sockets ~dir:sock_dir ()) () in
  let pl = { db; switch; controller; locked = (fun f -> Server.with_lock server f) } in
  let t0 = Unix.gettimeofday () in
  load pl s;
  { server; pl; load_s = Unix.gettimeofday () -. t0 }

let teardown d =
  Server.stop d.server;
  (try Unix.rmdir sock_dir with Unix.Unix_error _ -> ())

let replay_plane () =
  let dep = Snvs.deploy () in
  { db = dep.db; switch = dep.switch; controller = dep.controller; locked = (fun f -> f ()) }

(* ---------------- probes ---------------- *)

(* A frame from base port [p], whose prober MAC is learned there. *)
let from_port pl p ~dst = inject pl ~in_port:p (frame ~src:(prober_mac p) ~dst)

let ports outs = List.sort compare (List.map fst outs)

(* Another base port of the same VLAN, avoiding [avoid]. *)
let peer_port p ~avoid =
  let rec go q = if q > base then go (q - base) else if List.mem q avoid then go (q + vlans) else q in
  go (p + vlans)

let probe (pl : plane) m = function
  | Host { mac; port } ->
    let r = peer_port port ~avoid:[ port ] in
    let mirror = match m.mirror with Some (s, o) when s = r -> [ o ] | _ -> [] in
    ports (from_port pl r ~dst:mac) = List.sort compare (port :: mirror)
  | Change { change = Netgen.AddPort p; _ } ->
    List.mem p.pp_port (ports (from_port pl (p.pp_tag - 9) ~dst:bcast))
  | Change { change = Netgen.DelPort name; _ } ->
    let p = int_of_string (String.sub name 5 (String.length name - 5)) in
    let tag = 10 + (p mod vlans) in
    not (List.mem p (ports (from_port pl (tag - 9) ~dst:bcast)))
  | Change { acl = Some (src, dst); _ } ->
    let outs = inject pl ~in_port:acl_port (frame ~src ~dst) in
    outs <> [] = allowed m (src, dst)
  | Change { change = Netgen.SetMirror { select_port; output_port }; _ } ->
    let r = peer_port select_port ~avoid:[ select_port; output_port ] in
    ports (from_port pl select_port ~dst:(prober_mac r)) = List.sort compare [ r; output_port ]
  | Change _ -> true

let key = function
  | Host { mac; _ } -> Hashtbl.hash mac
  | Change { change = Netgen.AddPort p; _ } -> -p.pp_port
  | Change { change = Netgen.DelPort name; _ } -> -int_of_string (String.sub name 5 (String.length name - 5))
  | Change { change = Netgen.AddAcl { prio; _ } | Netgen.DelAcl prio; _ } -> -1_000_000 - prio
  | Change { change = Netgen.SetMirror _; _ } -> -2_000_000

let kind = function Host _ -> Loop.Learn | Change _ -> Loop.Mgmt
let layer = function Host _ -> "p4.inject" | Change _ -> "ovsdb.txn"

(* ---------------- oracle ---------------- *)

(* Replay the committed ops in process, re-batched so that no key
   repeats within a batch, and compare the switch byte for byte. *)
let replay (s : stream) (live : plane) (ops : op list) =
  let r = replay_plane () in
  load r s;
  Loop.replay_batched ~key ~commit:(commit r) ~sync:(fun () -> sync r) ops;
  if Nerpa.Controller.dump_switch r.controller "snvs0" = Nerpa.Controller.dump_switch live.controller "snvs0"
  then []
  else [ "switch snvs0 differs from the in-process replay" ]

let workload (s : stream) : d Harness.workload =
  {
    Harness.name;
    setups = 9;
    setup = setup s;
    verify_setup =
      (fun d ->
        List.for_all
          (fun p -> ports (from_port d.pl p ~dst:(prober_mac (peer_port p ~avoid:[ p ]))) = [ peer_port p ~avoid:[ p ] ])
          (List.init base (fun i -> i + 1)));
    load_s = (fun d -> d.load_s);
    teardown;
  }

let phases (s : stream) (d : d) (fwd : Harness.fwd) : op Harness.phases =
  let m = empty_model () in
  List.iter (apply m) s.base_acls;
  (* ACL traffic between learned MACs: every frame crosses the ternary table *)
  let frames =
    let rng = Netgen.rng 11 in
    Array.init Harness.frame_cycle (fun _ ->
        frame ~src:(Int64.of_int (Random.State.int rng n_acl_macs))
          ~dst:(Int64.of_int (Random.State.int rng n_acl_macs)))
  in
  let send k = ignore (P4.Switch.process d.pl.switch ~in_port:acl_port frames.(k mod Harness.frame_cycle)) in
  {
    Harness.open_loop =
      {
        Loop.ops = s.ops;
        due = s.due;
        key;
        kind;
        layer;
        commit = (fun op -> commit d.pl op; apply m op);
        sync = (fun () -> sync d.pl);
        probe = probe d.pl m;
        idle = (fun () -> d.pl.locked (fun () -> Harness.forward fwd send));
      };
    bursts = s.bursts;
    checkpoint = (fun () -> []);
    check =
      (fun results -> replay s d.pl (Loop.committed_ops (s.bursts @ [ s.ops ]) results));
  }

let run (p : Harness.params) : Harness.outcome =
  let s = generate ~seed:p.seed ~seconds:p.seconds in
  Harness.execute p (workload s) (phases s)
