(* The benchmark's own tests: seeded generation, open-loop accounting,
   span self times, and the metric contract against BENCHMARK.json. *)

open Convbench

(* ---------------- seeded generation ---------------- *)

let same_and_different name gen =
  let a = gen 5 and a' = gen 5 and b = gen 6 in
  Alcotest.(check bool) (name ^ ": same seed, same ops and schedule") true (a = a');
  Alcotest.(check bool) (name ^ ": other seed, other ops or schedule") false (a = b)

let test_seeded () =
  same_and_different "fib_churn" (fun seed ->
      let s = Fib_churn.generate ~seed ~seconds:1. in
      (s.init, s.bursts, s.ops, s.due));
  same_and_different "l2_fabric" (fun seed ->
      let s = L2_fabric.generate ~seed ~seconds:1. in
      (s.init, s.bursts, s.ops, s.due));
  same_and_different "cfg_sockets" (fun seed ->
      let s = Cfg_sockets.generate ~seed ~seconds:1. in
      (s.base_acls, s.bursts, s.ops, s.due))

(* Every fib_churn op probes an address that the op decides: its own
   route is the longest match (for an add, no longer route covers it;
   for a neighbour move, the match goes through that neighbour). *)
let test_fib_probes_exercise_op () =
  let s = Fib_churn.generate ~seed:5 ~seconds:20. in
  let m = Fib_churn.model_of s.init in
  List.iter (Array.iter (Fib_churn.apply m)) s.bursts;
  Array.iter
    (fun (op : Fib_churn.op) ->
      let ok =
        match op with
        | Add { prefix = _; plen; probe; _ } -> (
          match Fib_churn.longest m probe with Some ((_, pl), _) -> pl < plen | None -> true)
        | Del { prefix; plen; probe } | Set_nh { prefix; plen; probe; _ } ->
          Option.map fst (Fib_churn.longest m probe) = Some (prefix, plen)
        | Move { nb; probe; _ } -> Option.map snd (Fib_churn.longest m probe) = Some nb
      in
      Alcotest.(check bool) "the probe is decided by the op" true ok;
      Fib_churn.apply m op)
    s.ops

let test_poisson_rate () =
  let due = Gen.poisson ~rng:(Netgen.rng 1) ~rate:100. 10_000 in
  let rate = 10_000. /. due.(9_999) in
  Alcotest.(check bool) "offered rate within 5%" true (Float.abs (rate -. 100.) < 5.);
  Alcotest.(check bool) "non-decreasing" true
    (Array.for_all Fun.id (Array.init 9_999 (fun i -> due.(i) <= due.(i + 1))))

(* ---------------- forwarding rate ---------------- *)

(* Each batch of the frame cycle has its own cost; two passes in three
   run 1.7 times slower, as on a shared core.  The rate is the one the
   fast passes give. *)
let test_fwd_rate_ignores_slow_passes () =
  let slots = Harness.frame_cycle / Harness.fwd_batch in
  let cost k = 2000. +. (10. *. float k) in
  let f = Harness.new_fwd () in
  for i = 0 to (300 * slots) - 1 do
    let k = i mod slots in
    let slow = i / slots mod 3 <> 0 in
    f.ns <- (if slow then 1.7 *. cost k else cost k) :: f.ns
  done;
  let mean = List.fold_left ( +. ) 0. (List.init slots cost) /. float slots in
  let rate = Harness.fwd_rate f in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f = %.0f frames/s" rate (1e9 /. mean))
    true
    (Float.abs ((rate *. mean /. 1e9) -. 1.) < 1e-9);
  Alcotest.(check (float 0.)) "no batches, no rate" 0. (Harness.fwd_rate (Harness.new_fwd ()))

(* ---------------- open-loop accounting ---------------- *)

(* A simulated clock: idle forwarding costs 1 ms, a sync 1 ms, except
   the first, which stalls for [stall] seconds; every clock read costs
   [tick] seconds, as the loop's own bookkeeping would. *)
let stub ?(tick = 0.) ~stall ~due ~key () =
  let now = ref 0. in
  let syncs = ref 0 in
  let spec =
    {
      Loop.ops = Array.init (Array.length due) Fun.id;
      due;
      key;
      kind = (fun _ -> Loop.Mgmt);
      layer = (fun _ -> "ovsdb.txn");
      commit = ignore;
      sync =
        (fun () ->
          incr syncs;
          now := !now +. if !syncs = 1 then stall else 0.001);
      probe = (fun _ -> true);
      idle = (fun () -> now := !now +. 0.001);
    }
  in
  (spec, fun () -> now := !now +. tick; !now)

let test_stall_counts_from_due () =
  let due = Array.init 11 (fun i -> 0.01 *. float i) in
  let run stall =
    let spec, clock = stub ~stall ~due ~key:Fun.id () in
    Loop.run ~clock ~seconds:1. spec
  in
  let calm = run 0.001 and stalled = run 0.05 in
  let max_of = List.fold_left Float.max 0. in
  Alcotest.(check int) "every op verified" 11 (List.length stalled.lat_us);
  Alcotest.(check bool) "calm run: latency about one sync" true (max_of calm.lat_us < 2500.);
  (* the op due at 10 ms waits out the stall that ends at 50 ms *)
  Alcotest.(check bool) "stall shows in later ops' latency" true (max_of stalled.lat_us >= 40_000.);
  Alcotest.(check bool) "stall shows in the generator's lateness" true
    (max_of stalled.late_us >= 39_000. && max_of calm.late_us < 2000.);
  Alcotest.(check bool) "ops due after the stall are not delayed" true
    (List.exists (fun l -> l < 2500.) stalled.lat_us)

let test_key_conflicts_split_batches () =
  let due = Array.make 6 0. in
  let spec, clock = stub ~stall:0.001 ~due ~key:(fun i -> i mod 2) () in
  let r = Loop.run ~clock ~seconds:1. spec in
  Alcotest.(check (list (list int))) "no key twice in a batch" [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] r.batch_of

(* ---------------- trace ---------------- *)

let test_self_time () =
  let t = Trace.create ~enabled:true in
  let p = Trace.record t ~op:(-1) ~batch:0 "nerpa.sync" ~start:0. ~stop:10. in
  ignore (Trace.record t ~parent:p ~op:(-1) ~batch:0 "dl.commit" ~start:2. ~stop:5.);
  ignore (Trace.record t ~parent:p ~op:(-1) ~batch:0 "dl.commit" ~start:4. ~stop:6.);
  let self = List.map (fun ((s : Trace.span), x) -> (s.name, x)) (Trace.self_times (Trace.spans t)) in
  Alcotest.(check (float 1e-9)) "self = duration - union of children" 6. (List.assoc "nerpa.sync" self);
  let off = Trace.create ~enabled:false in
  ignore (Trace.record off ~op:0 ~batch:0 "p4.probe" ~start:0. ~stop:1.);
  Alcotest.(check int) "a disabled recorder records nothing" 0 (Trace.count off)

(* The calls charged within an op's window, and the gap none covers. *)
let test_breakdown () =
  let t = Trace.create ~enabled:true in
  let r ?parent name start stop = Trace.record t ?parent ~op:0 ~batch:0 name ~start ~stop in
  ignore (r "op" 1. 11.);
  ignore (r "p4.forward" 0. 2.);  (* the op fell due during it *)
  ignore (r "ovsdb.txn" 2. 3.);
  let sync = r "nerpa.sync" 3. 7. in
  ignore (r ~parent:sync "dl.commit" 4. 5.);
  ignore (r "p4.probe" 8. 11.);
  ignore (r "p4.probe" 12. 13.);  (* after the op *)
  let charged, unaccounted = Trace.breakdown (Trace.spans t) in
  Alcotest.(check (list (pair string (float 1e-9)))) "self time within the window"
    [ ("dl.commit", 1.); ("nerpa.sync", 3.); ("ovsdb.txn", 1.); ("p4.forward", 1.); ("p4.probe", 3.) ]
    charged;
  Alcotest.(check (list (float 1e-9))) "the gap between sync and probe" [ 0.1 ] unaccounted

(* Through the loop: with free clock reads the calls tile each op's
   latency; when time passes between the calls it shows as unaccounted. *)
let test_gaps_unaccounted () =
  let due = Array.init 5 (fun i -> 0.6 +. (0.05 *. float i)) in
  let run tick =
    let spec, clock = stub ~tick ~stall:0.001 ~due ~key:Fun.id () in
    let trace = Trace.create ~enabled:true in
    ignore (Loop.run ~clock ~trace ~seconds:1. spec);
    Obs.set_enabled false;
    snd (Trace.breakdown (Trace.spans trace))
  in
  let tight = run 0. and gappy = run 1e-4 in
  Alcotest.(check int) "every op traced (due in the second, traced block)" 5 (List.length tight);
  Alcotest.(check bool) "calls tile the latency" true (List.for_all (fun u -> Float.abs u < 1e-6) tight);
  Alcotest.(check bool) "time between calls is unaccounted" true
    (List.length gappy = 5 && List.for_all (fun u -> u > 0.05) gappy)

(* ---------------- the metric contract ---------------- *)

let json = lazy (Ovsdb.Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all))
let field name j = Option.get (Ovsdb.Json.member name j)
let str name j = Ovsdb.Json.to_string_exn (field name j)

let listed key =
  List.map
    (fun j -> (str "name" j, str "unit" j, str "better" j))
    (Ovsdb.Json.to_list_exn (field key (Lazy.force json)))

let declared (ms : Metrics.metric list) =
  List.map
    (fun (m : Metrics.metric) ->
      (m.name, m.unit_, match m.better with Metrics.Lower -> "lower" | Higher -> "higher"))
    ms

let test_contract () =
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end matches the printed metrics" (declared Metrics.end_to_end)
    (listed "end_to_end");
  Alcotest.check t3 "per_layer matches the printed metrics" (declared Metrics.per_layer)
    (listed "per_layer");
  List.iter
    (fun (m : Metrics.metric) ->
      Alcotest.(check bool) (m.name ^ " names its layer and what it moves") true
        (m.layer <> "" && m.moves <> ""))
    (Metrics.end_to_end @ Metrics.per_layer);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is a per-layer metric") true
        (List.exists (fun (m : Metrics.metric) -> m.name = n) Metrics.per_layer))
    Metrics.ungated;
  let workloads = Ovsdb.Json.to_list_exn (field "workloads" (Lazy.force json)) in
  Alcotest.(check (list string)) "workloads"
    [ Fib_churn.name; L2_fabric.name; Cfg_sockets.name ]
    (List.map (str "name") workloads);
  List.iter2
    (fun j rate ->
      let why = str "why" j and want = Printf.sprintf "%.0f ops/s" rate in
      let n = String.length want in
      let rec has i = i + n <= String.length why && (String.sub why i n = want || has (i + 1)) in
      Alcotest.(check bool) (str "name" j ^ " states its offered rate " ^ want) true (has 0))
    workloads
    [ Fib_churn.rate; L2_fabric.rate; Cfg_sockets.rate ]

let test_printed_names () =
  List.iter
    (fun (set : Metrics.metric list) ->
      let values = List.map (fun (m : Metrics.metric) -> (m.name, 1.5)) set in
      let line = Metrics.result_json ~correct:true ~attempted:1 ~failed:0 set values in
      let metrics = field "metrics" (Ovsdb.Json.of_string line) in
      let names = match metrics with Ovsdb.Json.Obj kvs -> List.map fst kvs | _ -> [] in
      Alcotest.(check (list string)) "printed names" (List.map (fun (m : Metrics.metric) -> m.name) set) names)
    [ Metrics.end_to_end; Metrics.per_layer ]

let () =
  Alcotest.run "convbench"
    [
      ( "generation",
        [ Alcotest.test_case "seeded" `Quick test_seeded;
          Alcotest.test_case "fib_churn probes exercise their op" `Quick test_fib_probes_exercise_op;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate ] );
      ( "forwarding", [ Alcotest.test_case "rate ignores slow passes" `Quick test_fwd_rate_ignores_slow_passes ] );
      ( "open loop",
        [ Alcotest.test_case "stall counts from due time" `Quick test_stall_counts_from_due;
          Alcotest.test_case "key conflicts split batches" `Quick test_key_conflicts_split_batches ] );
      ( "trace",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "breakdown" `Quick test_breakdown;
          Alcotest.test_case "gaps are unaccounted" `Quick test_gaps_unaccounted ] );
      ( "contract",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_contract;
          Alcotest.test_case "printed names" `Quick test_printed_names ] );
    ]
