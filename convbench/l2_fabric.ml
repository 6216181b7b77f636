(* l2_fabric: snvs on a 3-shard, 6-switch in-process fleet
   ([Nerpa.Cluster.create_local]) with access ports and trunks over
   four VLANs and thousands of learned hosts.  Ops are host arrivals
   and host moves — most of them to a switch of another shard, resolved
   last-writer-wins over the cross-shard exchange — plus about 5% Port
   and Vlan-flood configuration transactions.

   Why: the digest, exchange and group-by path does the work here, with
   exact-match reads and writes in the data plane; OVSDB, the flow
   compiler and the transport do almost none.  This is the N-shard row
   of the convergence measurement. *)

let name = "l2_fabric"
let rate = 100.  (* ops/s offered *)
let nshards = 3
let switches = List.init 6 (Printf.sprintf "sw%d")
let vlans = [ 10; 11; 12; 13 ]
let n_hosts = 2000
let n_bursts = 6
let burst_size = 500

(* Port plan, identical on every switch: one prober port per VLAN
   (never a host's), host access ports, two trunks, and a range of
   spare ports that configuration ops add and delete. *)
let prober_port v = v - 9
let host_ports v = List.init 6 (fun i -> 5 + (4 * i) + (v - 10))
let trunk_ports = [ 29; 30 ]
let spare_ports = List.init 24 (fun i -> 40 + i)
let vlan_of_port p = 10 + (p mod 4)
let prober_mac v = Int64.of_int (0x02FF00000000 + v)
let host_mac h = Int64.of_int (0x020000000000 + h)
let host_vlan h = 10 + (h mod 4)
let bcast = 0xFFFFFFFFFFFFL

type op =
  | Arrive of { host : int; sw : int; port : int }
  | Move of { host : int; sw : int; port : int }
  | Flood of { vlan : int; flood : bool }
  | Add_port of int
  | Del_port of int

(* ---------------- the model ---------------- *)

type model = {
  hosts : (int, int * int) Hashtbl.t;  (** host -> (switch, port) *)
  host_bag : int Gen.Bag.t;
  flood : (int, bool) Hashtbl.t;
  spare : int Gen.Bag.t;  (** spare ports currently configured *)
  mutable next_host : int;
}

let apply m = function
  | Arrive { host; sw; port } | Move { host; sw; port } ->
    Hashtbl.replace m.hosts host (sw, port);
    Gen.Bag.add m.host_bag host;
    m.next_host <- max m.next_host (host + 1)
  | Flood { vlan; flood } -> Hashtbl.replace m.flood vlan flood
  | Add_port p -> Gen.Bag.add m.spare p
  | Del_port p -> Gen.Bag.remove m.spare p

let empty_model () =
  let m =
    { hosts = Hashtbl.create 4096; host_bag = Gen.Bag.create (); flood = Hashtbl.create 4;
      spare = Gen.Bag.create (); next_host = 0 }
  in
  List.iter (fun v -> Hashtbl.replace m.flood v true) vlans;
  m

(* ---------------- seeded generation ---------------- *)

let nsw = List.length switches

let place rng host ~avoid_port =
  let ports = List.filter (fun p -> p <> avoid_port) (host_ports (host_vlan host)) in
  Arrive { host; sw = Random.State.int rng nsw; port = List.nth ports (Random.State.int rng (List.length ports)) }

let move rng m host =
  let _, port = Hashtbl.find m.hosts host in
  match place rng host ~avoid_port:port with
  | Arrive a -> Move { host = a.host; sw = a.sw; port = a.port }
  | op -> op

let gen_op rng m : op =
  match Gen.weighted rng [ 10; 85; 3; 2 ] with
  | 0 -> place rng m.next_host ~avoid_port:0
  | 1 -> move rng m (Gen.Bag.pick m.host_bag rng)
  | 2 ->
    let vlan = List.nth vlans (Random.State.int rng (List.length vlans)) in
    Flood { vlan; flood = not (Hashtbl.find m.flood vlan) }
  | _ ->
    let p = List.nth spare_ports (Random.State.int rng (List.length spare_ports)) in
    if Gen.Bag.mem m.spare p then Del_port p else Add_port p

type stream = {
  init : op list;  (** the initial hosts' arrivals *)
  bursts : op array list;
  ops : op array;
  due : float array;
}

let generate ~seed ~seconds : stream =
  let rng = Netgen.rng seed in
  let m = empty_model () in
  let next () = let op = gen_op rng m in apply m op; op in
  let init = List.init n_hosts (fun h -> let op = place rng h ~avoid_port:0 in apply m op; op) in
  (* a burst is a rack boot: [burst_size] hosts arriving at once *)
  let bursts =
    List.init n_bursts (fun _ ->
        Array.init burst_size (fun _ -> let op = place rng m.next_host ~avoid_port:0 in apply m op; op))
  in
  let n = int_of_float (rate *. seconds *. 1.5) + 64 in
  let ops = Array.init n (fun _ -> next ()) in
  let due = Gen.poisson ~rng:(Netgen.rng (seed + 1)) ~rate n in
  { init; bursts; ops; due }

(* ---------------- deployments ---------------- *)

(* Both the sharded fleet under test and the 1-controller replay speak
   through this record. *)
type fleet = {
  db : Ovsdb.Db.t;
  switch : string -> P4.Switch.t;
  sync : unit -> unit;
  dump : string -> string;
}

let int_d x = Ovsdb.Datum.integer (Int64.of_int x)

let port_row p mode tag trunks =
  Ovsdb.Db.Insert
    { table = "Port";
      row =
        [ ("name", Ovsdb.Datum.string (Printf.sprintf "p%d" p)); ("port", int_d p);
          ("mode", Ovsdb.Datum.string mode); ("tag", int_d tag);
          ("trunks", Ovsdb.Datum.set (List.map (fun v -> Ovsdb.Atom.Integer (Int64.of_int v)) trunks)) ];
      uuid = None }

let frame ~src ~dst = P4.Stdhdrs.ethernet_frame ~dst ~src ~ethertype:0x0800L ~payload:(String.make 46 'x')

let commit (f : fleet) = function
  | Arrive { host; sw; port } | Move { host; sw; port } ->
    ignore
      (P4.Switch.process (f.switch (List.nth switches sw)) ~in_port:port
         (frame ~src:(host_mac host) ~dst:bcast))
  | Flood { vlan; flood } ->
    ignore
      (Ovsdb.Db.transact_exn f.db
         [ Ovsdb.Db.Delete { table = "Vlan"; where = [ Ovsdb.Db.eq "vlan" (int_d vlan) ] };
           Ovsdb.Db.Insert
             { table = "Vlan"; row = [ ("vlan", int_d vlan); ("flood", Ovsdb.Datum.boolean flood) ];
               uuid = None } ])
  | Add_port p -> ignore (Ovsdb.Db.transact_exn f.db [ port_row p "access" (vlan_of_port p) [] ])
  | Del_port p ->
    ignore
      (Ovsdb.Db.transact_exn f.db
         [ Ovsdb.Db.Delete { table = "Port"; where = [ Ovsdb.Db.eq "port" (int_d p) ] } ])

(* The initial configuration: ports, the probers, then every initial
   host, learned in chunks. *)
let load (f : fleet) (s : stream) =
  ignore
    (Ovsdb.Db.transact_exn f.db
       (List.map (fun v -> port_row (prober_port v) "access" v []) vlans
       @ List.concat_map (fun v -> List.map (fun p -> port_row p "access" v []) (host_ports v)) vlans
       @ List.map (fun p -> port_row p "trunk" 0 vlans) trunk_ports));
  f.sync ();
  List.iter
    (fun v ->
      ignore
        (P4.Switch.process (f.switch (List.hd switches)) ~in_port:(prober_port v)
           (frame ~src:(prober_mac v) ~dst:bcast)))
    vlans;
  List.iteri
    (fun i op ->
      commit f op;
      if i mod 500 = 499 then f.sync ())
    s.init;
  f.sync ()

type d = { cl : Nerpa.Cluster.local; fleet : fleet; load_s : float }

let cluster_fleet cl db =
  {
    db;
    switch = Nerpa.Cluster.switch cl;
    sync = (fun () -> ignore (Nerpa.Cluster.sync_all cl));
    dump = (fun n -> Nerpa.Controller.dump_switch (Nerpa.Cluster.controller cl (Nerpa.Cluster.owner cl n)) n);
  }

let setup (s : stream) () : d =
  let db = Ovsdb.Db.create Snvs.schema in
  let cl =
    Nerpa.Cluster.create_local ~digest_replace:Snvs.digest_replace ~nshards ~db ~p4:Snvs.p4
      ~rules:Snvs.rules ~switch_names:switches ()
  in
  let fleet = cluster_fleet cl db in
  let t0 = Unix.gettimeofday () in
  load fleet s;
  { cl; fleet; load_s = Unix.gettimeofday () -. t0 }

(* The oracle: one controller driving all six switches. *)
let replay_fleet () =
  let db = Ovsdb.Db.create Snvs.schema in
  let sws = List.map (fun n -> (n, P4.Switch.create ~name:n Snvs.p4)) switches in
  let c =
    Nerpa.Controller.create ~digest_replace:Snvs.digest_replace ~db ~p4:Snvs.p4 ~rules:Snvs.rules
      ~switches:sws ()
  in
  {
    db;
    switch = (fun n -> List.assoc n sws);
    sync = (fun () -> ignore (Nerpa.Controller.sync c));
    dump = Nerpa.Controller.dump_switch c;
  }

(* ---------------- probes ---------------- *)

let outputs (f : fleet) sw ~vlan ~dst =
  P4.Switch.process (f.switch sw) ~in_port:(prober_port vlan) (frame ~src:(prober_mac vlan) ~dst)

let probe (f : fleet) m = function
  | Arrive { host; _ } | Move { host; _ } ->
    let _, port = Hashtbl.find m.hosts host in
    List.for_all
      (fun sw ->
        match outputs f sw ~vlan:(host_vlan host) ~dst:(host_mac host) with
        | [ (p, _) ] -> p = port
        | _ -> false)
      switches
  | Flood { vlan; flood } ->
    List.for_all (fun sw -> outputs f sw ~vlan ~dst:bcast <> [] = flood) switches
  | Add_port p | Del_port p ->
    let vlan = vlan_of_port p in
    let expect = Gen.Bag.mem m.spare p && Hashtbl.find m.flood vlan in
    List.for_all
      (fun sw -> List.exists (fun (q, _) -> q = p) (outputs f sw ~vlan ~dst:bcast) = expect)
      switches

let key = function
  | Arrive { host; _ } | Move { host; _ } -> host
  | Flood { vlan; _ } -> -1 - vlan
  | Add_port p | Del_port p -> -1000 - p

let kind = function Arrive _ | Move _ -> Loop.Learn | _ -> Loop.Mgmt
let layer = function Arrive _ | Move _ -> "p4.inject" | _ -> "ovsdb.txn"

(* ---------------- oracles ---------------- *)

(* Every switch of the fleet holds the same state: the configuration is
   shared and every learned binding reaches every shard. *)
let uniform (f : fleet) =
  let first = f.dump (List.hd switches) in
  List.filter_map
    (fun n -> if f.dump n = first then None else Some (Printf.sprintf "switch %s differs from %s" n (List.hd switches)))
    (List.tl switches)

(* Replay the committed ops on one controller, re-batched so that no
   key repeats within a batch, and compare every switch byte for byte. *)
let replay (s : stream) (f : fleet) (ops : op list) =
  let r = replay_fleet () in
  load r s;
  Loop.replay_batched ~key ~commit:(commit r) ~sync:r.sync ops;
  List.filter_map
    (fun n ->
      if r.dump n = f.dump n then None
      else Some (Printf.sprintf "switch %s differs from the 1-controller replay" n))
    switches

let workload (s : stream) : d Harness.workload =
  let m = empty_model () in
  List.iter (apply m) s.init;
  let probes = List.filteri (fun i _ -> i mod 64 = 0) s.init in
  {
    Harness.name;
    setups = 9;
    setup = setup s;
    verify_setup =
      (fun d -> List.for_all (probe d.fleet m) probes);
    load_s = (fun d -> d.load_s);
    teardown = ignore;
  }

let phases (s : stream) (d : d) (fwd : Harness.fwd) : op Harness.phases =
  let m = empty_model () in
  List.iter (apply m) s.init;
  let frames =
    Array.init Harness.frame_cycle (fun k ->
        let h = k * 7919 mod n_hosts in
        let v = host_vlan h in
        (prober_port v, frame ~src:(prober_mac v) ~dst:(host_mac h)))
  in
  let sw0 = List.hd switches in
  let send k =
    let in_port, pkt = frames.(k mod Harness.frame_cycle) in
    ignore (P4.Switch.process (d.fleet.switch sw0) ~in_port pkt)
  in
  {
    Harness.open_loop =
      {
        Loop.ops = s.ops;
        due = s.due;
        key;
        kind;
        layer;
        commit = (fun op -> commit d.fleet op; apply m op);
        sync = d.fleet.sync;
        probe = probe d.fleet m;
        idle = (fun () -> Harness.forward fwd send);
      };
    bursts = s.bursts;
    checkpoint = (fun () -> uniform d.fleet);
    check =
      (fun results -> uniform d.fleet @ replay s d.fleet (Loop.committed_ops (s.bursts @ [ s.ops ]) results));
  }

let run (p : Harness.params) : Harness.outcome =
  let s = generate ~seed:p.seed ~seconds:p.seconds in
  Harness.execute p (workload s) (phases s)
