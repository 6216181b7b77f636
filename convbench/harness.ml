(* The phases every workload runs, and the metrics computed from them.

   1. Set up [setups] times from nothing, timing each set-up up to the
      first verified forwarding of the initial configuration; the last
      deployment is kept.
   2. Run the bursts, each to completion.
   3. Run the open loop for [seconds], forwarding frames while idle.
   4. Check the final state against the workload's oracles.

   The end-to-end run keeps [Obs] collection off and records no spans.
   The traced run turns both on, in alternate blocks of the open loop,
   so it also measures what tracing costs. *)

type params = {
  seed : int;
  seconds : float;
  traced : bool;
  trace_dir : string;
}

(** Frames pushed through [P4.Switch.process] while the loop is idle. *)
type fwd = {
  mutable pkts : int;
  mutable ns : float list;  (** per-packet ns, one sample per batch *)
  mutable words : float;
}

let fwd_batch = 8

(* The frames a workload forwards while idle repeat with this period:
   [send k] pushes frame [k mod frame_cycle]. *)
let frame_cycle = 1024

let new_fwd () = { pkts = 0; ns = []; words = 0. }

(** Forward [fwd_batch] frames: [send k] pushes the [k]-th frame. *)
let forward (f : fwd) (send : int -> unit) =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to fwd_batch do
    send f.pkts;
    f.pkts <- f.pkts + 1
  done;
  let dt = Unix.gettimeofday () -. t0 in
  f.ns <- (dt *. 1e9 /. float fwd_batch) :: f.ns;
  f.words <- f.words +. (Gc.minor_words () -. w0)

let sorted xs = Array.of_list (List.sort compare xs)
let pct xs p = Obs.Histogram.percentile_of_sorted (sorted xs) p

let median xs = pct xs 0.5

(** Frames per second when the process had the core to itself.  The
    cycle splits into [frame_cycle / fwd_batch] batches, each the same
    frames every time round, so each batch is timed thousands of times
    over a run; its fastest pass is its cost without interference.  On
    a shared host a batch takes either about [t] or about [1.7 t], and
    the share of slow passes changes from run to run, so a mean or
    median over all passes moves by a quarter between runs of the same
    code while the fastest pass does not. *)
let fwd_rate (f : fwd) =
  let fastest = Array.make (frame_cycle / fwd_batch) infinity in
  List.iteri
    (fun i ns -> let k = i mod Array.length fastest in fastest.(k) <- Float.min ns fastest.(k))
    (List.rev f.ns);
  let timed = List.filter Float.is_finite (Array.to_list fastest) in
  if timed = [] then 0. else 1e9 *. float (List.length timed) /. List.fold_left ( +. ) 0. timed

let ratio a b = if b = 0. then 0. else a /. b

(** What a workload gives the harness for one deployment [d]. *)
type 'd workload = {
  name : string;
  setups : int;  (** set-ups per run; the median is reported *)
  setup : unit -> 'd;  (** build and load the initial configuration *)
  verify_setup : 'd -> bool;  (** first forwarding of the initial config *)
  load_s : 'd -> float;  (** the initial bulk OVSDB transaction *)
  teardown : 'd -> unit;
}

type 'op phases = {
  open_loop : 'op Loop.spec;
  bursts : 'op array list;
  checkpoint : unit -> string list;  (** oracle mismatches after the bursts *)
  check : Loop.result list -> string list;
      (** oracle mismatches at the end, given every loop result in run order *)
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let counter = Obs.counter_value

let hist_pct name p =
  match Obs.find_histogram name with
  | Some h when Obs.Histogram.count h > 0 -> Obs.Histogram.percentile h p
  | _ -> 0.

let hist_max name =
  match Obs.find_histogram name with
  | Some h -> Obs.Histogram.max_value h
  | None -> 0.

let p50 xs = if xs = [] then 0. else pct xs 0.5
let p99 xs = if xs = [] then 0. else pct xs 0.99

(* Names of the layer calls the loop records, for [self_us.*]. *)
let layer_spans = [ "ovsdb.txn"; "p4.inject"; "nerpa.sync"; "dl.commit"; "p4.probe"; "p4.forward" ]

let trace_values (trace : Trace.t) (ol : Loop.result) : (string * float) list =
  let spans = Trace.spans trace in
  let charged, unaccounted = Trace.breakdown spans in
  let nops = float (List.length unaccounted) in
  let latency =
    List.fold_left (fun a (s : Trace.span) -> if s.name = "op" then a +. Trace.dur s else a) 0. spans
  in
  let durs name =
    List.filter_map (fun (s : Trace.span) -> if s.name = name then Some (Trace.dur s *. 1e6) else None) spans
  in
  let sync_self =
    List.filter_map
      (fun ((s : Trace.span), self) -> if s.name = "nerpa.sync" then Some (self *. 1e6) else None)
      (Trace.self_times spans)
  in
  let mean xs = if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float (List.length xs) in
  let traced = ol.traced_lat_us and untraced = ol.untraced_lat_us in
  let per_op t = ratio (t *. 1e6) nops in
  [
    ("ovsdb.txn_us.p50", p50 (durs "ovsdb.txn"));
    ("ovsdb.txn_us.p99", p99 (durs "ovsdb.txn"));
    ("nerpa.sync_us.p50", p50 (durs "nerpa.sync"));
    ("nerpa.sync_us.p99", p99 (durs "nerpa.sync"));
    ("nerpa.sync_self_us.p50", p50 sync_self);
    ("p4.probe_us.p50", p50 (durs "p4.probe"));
  ]
  @ List.map
      (fun n -> ("self_us." ^ n, per_op (Option.value ~default:0. (List.assoc_opt n charged))))
      layer_spans
  @ [
      ("self_us.unaccounted", per_op (latency -. List.fold_left (fun a (_, t) -> a +. t) 0. charged));
      ("trace.unaccounted_share", mean unaccounted);
      ( "trace.overhead_share",
        if traced = [] || untraced = [] then 0. else (median traced /. median untraced) -. 1. );
    ]

let execute (p : params) (w : 'd workload) (phases : 'd -> fwd -> 'op phases) : outcome =
  Obs.set_enabled p.traced;
  let setup_s = ref [] and index_builds = ref 0 in
  let setup_ok = ref true in
  let d = ref None in
  for _ = 1 to w.setups do
    Option.iter w.teardown !d;
    d := None;
    Gc.compact ();
    let ib0 = counter "dl.store.index_builds" in
    let t0 = Unix.gettimeofday () in
    let dep = w.setup () in
    let ok = w.verify_setup dep in
    setup_s := (Unix.gettimeofday () -. t0) :: !setup_s;
    index_builds := counter "dl.store.index_builds" - ib0;
    if not ok then setup_ok := false;
    d := Some dep
  done;
  let d = Option.get !d in
  Fun.protect ~finally:(fun () -> w.teardown d) @@ fun () ->
  let fwd = new_fwd () in
  let ph = phases d fwd in
  (* bursts: never traced, and never idle, so [fwd] counts only the
     open loop's forwarding *)
  Obs.set_enabled false;
  (* each burst and the open loop start from a compacted heap, so the
     collector's state left by the previous phase does not land in them *)
  let burst_results =
    List.map (fun ops -> Gc.compact (); Loop.burst { ph.open_loop with ops }) ph.bursts
  in
  let burst_rates =
    List.map (fun (r : Loop.result) -> float (List.length r.committed) /. r.elapsed) burst_results
  in
  let early = ph.checkpoint () in
  Printf.eprintf "%s: burst rates %s\n%!" w.name
    (String.concat " " (List.map (Printf.sprintf "%.0f") burst_rates));
  (* the open loop *)
  Obs.reset ();
  Obs.set_enabled p.traced;
  let trace = Trace.create ~enabled:p.traced in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let ol = Loop.run ~trace ~seconds:p.seconds ph.open_loop in
  let gc1 = Gc.quick_stat () in
  (* counters only advanced in traced blocks; snapshot before checking *)
  let c name = float (counter name) in
  let counters =
    List.map (fun n -> (n, c n))
      [ "ovsdb.monitor.batches"; "dl.commit.count"; "dl.commit.input_rows";
        "dl.commit.output_rows"; "nerpa.sync.iterations"; "nerpa.sync.count";
        "nerpa.entries_written"; "nerpa.groups_updated";
        "nerpa.exchange.rows_published"; "nerpa.exchange.rows_applied";
        "nerpa.exchange.resyncs"; "nerpa.retry.count"; "nerpa.reconcile.count";
        "p4.digests"; "transport.socket.msgs"; "transport.socket.bytes";
        "transport.errors"; "server.requests"; "nerpa.flow.deltas"; "nerpa.flow.rules" ]
  in
  let dl_p50 = hist_pct "dl.commit" 0.5 and dl_p99 = hist_pct "dl.commit" 0.99 in
  let wb_p50 = hist_pct "nerpa.write_batch" 0.5 and wb_max = hist_max "nerpa.write_batch" in
  Obs.set_enabled false;
  let spans_recorded = Trace.count trace in
  if p.traced then begin
    (try Unix.mkdir p.trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Trace.write_jsonl trace
      (Filename.concat p.trace_dir (Printf.sprintf "%s-%d.jsonl" w.name p.seed))
  end;
  let mismatches = early @ ph.check (burst_results @ [ ol ]) in
  List.iter (fun m -> Printf.eprintf "%s: oracle mismatch: %s\n%!" w.name m) mismatches;
  let untraced_spans = (not p.traced) && spans_recorded > 0 in
  if untraced_spans then Printf.eprintf "%s: untraced run recorded %d spans\n%!" w.name spans_recorded;
  let all = burst_results @ [ ol ] in
  let attempted = List.fold_left (fun a (r : Loop.result) -> a + r.attempted) 0 all in
  let failed =
    List.fold_left (fun a (r : Loop.result) -> a + r.failed) 0 all
    + List.length mismatches
    + if !setup_ok then 0 else 1
  in
  let correct = failed = 0 && not untraced_spans in
  let ops = float ol.attempted in
  let traced_ops = float (List.length ol.traced_lat_us) in
  let cv n = List.assoc n counters in
  let per_op n = ratio (cv n) traced_ops in
  let fwd_pps = fwd_rate fwd in
  let fwd_p50 = p50 fwd.ns and fwd_p99 = p99 fwd.ns in
  let mb words = float (words * (Sys.word_size / 8)) /. 1048576. in
  let peak_heap_mb = mb (Gc.quick_stat ()).top_heap_words in
  (* what the deployment keeps alive at the end: the heap reachable from
     it, which leaves out the benchmark's inputs, model and oracle state
     and does not depend on when the collector last ran *)
  let live_heap_mb = mb (Obj.reachable_words (Obj.repr d)) in
  let e2e =
    [
      ("setup_s", median !setup_s);
      ("converge_p50_us", p50 ol.lat_us);
      ("fwd_pps", fwd_pps);
      ("live_heap_mb", live_heap_mb);
    ]
  in
  let traced_learn = float ol.traced_learn in
  let layer =
    [
      ("ovsdb.load_s", w.load_s d);
      ("ovsdb.monitor_batches_per_sync", ratio (cv "ovsdb.monitor.batches") (cv "nerpa.sync.count"));
      ("dl.commit_us.p50", dl_p50);
      ("dl.commit_us.p99", dl_p99);
      ("dl.commits_per_op", per_op "dl.commit.count");
      ("dl.input_rows_per_commit", ratio (cv "dl.commit.input_rows") (cv "dl.commit.count"));
      ("dl.output_rows_per_commit", ratio (cv "dl.commit.output_rows") (cv "dl.commit.count"));
      ("dl.index_builds", float !index_builds);
      ("nerpa.iterations_per_sync", ratio (cv "nerpa.sync.iterations") (cv "nerpa.sync.count"));
      ("nerpa.entries_per_op", per_op "nerpa.entries_written");
      ("nerpa.groups_per_op", per_op "nerpa.groups_updated");
      ("nerpa.exchange.rows_published_per_learn", ratio (cv "nerpa.exchange.rows_published") traced_learn);
      ("nerpa.exchange.rows_applied_per_learn", ratio (cv "nerpa.exchange.rows_applied") traced_learn);
      ("nerpa.exchange.resyncs", cv "nerpa.exchange.resyncs");
      ("nerpa.retries", cv "nerpa.retry.count");
      ("nerpa.reconciles", cv "nerpa.reconcile.count");
      ("p4runtime.write_batch_entries.p50", wb_p50);
      ("p4runtime.write_batch_entries.max", wb_max);
      ("p4.digests_per_learn", ratio (cv "p4.digests") traced_learn);
      ("p4.process_ns.p50", fwd_p50);
      ("p4.process_ns.p99", fwd_p99);
      ("p4.alloc_words_per_packet", ratio fwd.words (float fwd.pkts));
      ("transport.msgs_per_op", per_op "transport.socket.msgs");
      ("transport.bytes_per_op", per_op "transport.socket.bytes");
      ("transport.errors", cv "transport.errors");
      ("server.requests_per_op", per_op "server.requests");
      ("ofp4.deltas_per_op", per_op "nerpa.flow.deltas");
      ("ofp4.rules_per_delta", ratio (cv "nerpa.flow.rules") (cv "nerpa.flow.deltas"));
      ( "gc.minor_words_per_op",
        ratio (gc1.minor_words -. gc0.minor_words -. fwd.words) ops );
      ("gc.major_collections", float (gc1.major_collections - gc0.major_collections));
      ("burst_ops_per_s", median burst_rates);
      ("converge_p99_us", p99 ol.lat_us);
      ("peak_heap_mb", peak_heap_mb);
      ("gen.late_us.p50", p50 ol.late_us);
      ("gen.late_us.p99", p99 ol.late_us);
      ("op.mgmt_us.p50", p50 ol.mgmt_lat_us);
      ("op.mgmt_us.p99", p99 ol.mgmt_lat_us);
      ("learn_p50_us", p50 ol.learn_lat_us);
      ("learn_p99_us", p99 ol.learn_lat_us);
      ("ops_failed_ratio", ratio (float failed) (float attempted));
    ]
    @ trace_values trace ol
  in
  let unaccounted = List.assoc "trace.unaccounted_share" layer in
  if p.traced && Float.abs unaccounted > 0.1 then
    Printf.eprintf "%s: finding: the spans leave %.0f%% of op latency unaccounted\n%!" w.name
      (100. *. unaccounted);
  Printf.eprintf
    "%s: seed %d, %d setups, %d bursts, open loop %d ops in %d batches (%d verified), %d frames forwarded, %d spans\n%!"
    w.name p.seed w.setups (List.length burst_results) ol.attempted ol.batches
    (List.length ol.lat_us) fwd.pkts spans_recorded;
  { correct; attempted; failed; values = e2e @ layer }
