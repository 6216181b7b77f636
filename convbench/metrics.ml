(* The metric contract: every metric the benchmark prints, with its
   unit, the layer it measures and the end-to-end metric (and workload)
   it should move.  BENCHMARK.json lists the same names and units; the
   benchmark's tests fail if the two drift apart. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;
  moves : string;  (** end-to-end metric and workload it should move *)
}

let m ?(better = Lower) name unit_ layer moves = { name; unit_; better; layer; moves }

(** Printed by the end-to-end runs ([--trace 0]), on every workload. *)
let end_to_end =
  [
    m "setup_s" "s" "all" "deploy, bulk OVSDB load, first sync, programmer attach, daemon start";
    m "converge_p50_us" "us" "all" "op due -> probe shows forwarding per the op";
    m ~better:Higher "fwd_pps" "1/s" "p4" "smallest frames through P4.Switch.process beside the churn";
    m "live_heap_mb" "MB" "all" "heap reachable from the deployment at the end of the run";
  ]

(** Printed by the traced run ([--trace 1]), on every workload; a
    metric that a workload does not exercise reads 0. *)
let per_layer =
  [
    m "ovsdb.txn_us.p50" "us" "ovsdb" "converge_* (fib_churn)";
    m "ovsdb.txn_us.p99" "us" "ovsdb" "converge_* (fib_churn)";
    m "ovsdb.load_s" "s" "ovsdb" "setup_s (fib_churn)";
    m "ovsdb.monitor_batches_per_sync" "count" "ovsdb" "burst_ops_per_s (all)";
    m "dl.commit_us.p50" "us" "dl" "converge_* (all)";
    m "dl.commit_us.p99" "us" "dl" "converge_* (all)";
    m "dl.commits_per_op" "count" "dl" "burst_ops_per_s (all)";
    m "dl.input_rows_per_commit" "count" "dl" "converge_* (fib_churn neighbour moves)";
    m "dl.output_rows_per_commit" "count" "dl" "converge_* (fib_churn neighbour moves)";
    m "dl.index_builds" "count" "dl" "setup_s (all)";
    m "nerpa.sync_us.p50" "us" "nerpa" "converge_* (all)";
    m "nerpa.sync_us.p99" "us" "nerpa" "converge_p99_us (all)";
    m "nerpa.sync_self_us.p50" "us" "nerpa" "converge_* (fib_churn)";
    m "nerpa.iterations_per_sync" "count" "nerpa" "converge_* (l2_fabric)";
    m "nerpa.entries_per_op" "count" "nerpa" "converge_* (fib_churn, l2_fabric)";
    m "nerpa.groups_per_op" "count" "nerpa" "converge_* (l2_fabric)";
    m "nerpa.exchange.rows_published_per_learn" "count" "nerpa" "converge_* (l2_fabric)";
    m "nerpa.exchange.rows_applied_per_learn" "count" "nerpa" "converge_* (l2_fabric)";
    m "nerpa.exchange.resyncs" "count" "nerpa" "converge_* (l2_fabric)";
    m "nerpa.retries" "count" "nerpa" "ops_failed_ratio (cfg_sockets)";
    m "nerpa.reconciles" "count" "nerpa" "ops_failed_ratio (cfg_sockets)";
    m "p4runtime.write_batch_entries.p50" "count" "p4runtime" "burst_ops_per_s (all)";
    m "p4runtime.write_batch_entries.max" "count" "p4runtime" "burst_ops_per_s (all)";
    m "p4.digests_per_learn" "count" "p4" "converge_* (l2_fabric)";
    m "p4.process_ns.p50" "ns" "p4" "fwd_pps (all)";
    m "p4.process_ns.p99" "ns" "p4" "fwd_pps (all)";
    m "p4.alloc_words_per_packet" "words" "p4" "fwd_pps (all)";
    m "p4.probe_us.p50" "us" "p4" "converge_* (all)";
    m "transport.msgs_per_op" "count" "transport" "converge_* (cfg_sockets)";
    m "transport.bytes_per_op" "B" "transport" "converge_* (cfg_sockets)";
    m "transport.errors" "count" "transport" "ops_failed_ratio (cfg_sockets)";
    m "server.requests_per_op" "count" "server" "converge_* (cfg_sockets)";
    m "ofp4.deltas_per_op" "count" "ofp4" "converge_* (fib_churn)";
    m "ofp4.rules_per_delta" "count" "ofp4" "converge_* (fib_churn)";
    m "gc.minor_words_per_op" "words" "gc" "converge_p99_us, peak_heap_mb (all)";
    m "gc.major_collections" "count" "gc" "converge_p99_us, peak_heap_mb (all)";
    m ~better:Higher "burst_ops_per_s" "1/s" "all" "B ops back to back, synced, all verified (moves with the process, not gated)";
    m "converge_p99_us" "us" "all" "op due -> probe shows forwarding per the op (too few samples to gate)";
    m "peak_heap_mb" "MB" "gc" "Gc top heap at the end of the run (moves with collector timing)";
    m "gen.late_us.p50" "us" "netgen" "validity of converge_*";
    m "gen.late_us.p99" "us" "netgen" "validity of converge_*";
    m "op.mgmt_us.p50" "us" "all" "converge_* split: management transactions";
    m "op.mgmt_us.p99" "us" "all" "converge_* split: management transactions";
    m "learn_p50_us" "us" "all" "converge_* split: host frame in -> every switch unicasts to it (l2_fabric, cfg_sockets)";
    m "learn_p99_us" "us" "all" "converge_* split: host frame in -> every switch unicasts to it (l2_fabric, cfg_sockets)";
    m "ops_failed_ratio" "ratio" "all" "ops failed / ops attempted (also the JSON failed/attempted)";
    m "self_us.ovsdb.txn" "us" "ovsdb" "converge_*: transactions, the op's own and those it waited behind";
    m "self_us.p4.inject" "us" "p4" "converge_*: injected host frames, the op's own and those it waited behind";
    m "self_us.nerpa.sync" "us" "nerpa" "converge_*: syncs minus dl commits (p4runtime, switch apply, ofp4, transport)";
    m "self_us.dl.commit" "us" "dl" "converge_*: engine commits inside the syncs";
    m "self_us.p4.probe" "us" "p4" "converge_*: probes, the op's own and those it waited behind";
    m "self_us.p4.forward" "us" "p4" "converge_*: the idle forwarding the op fell due in";
    m "self_us.unaccounted" "us" "all" "converge_*: time outside every call into a layer";
    m "trace.unaccounted_share" "ratio" "all" "validity of the breakdown";
    m "trace.overhead_share" "ratio" "all" "validity of the breakdown";
  ]

(** Per-layer metrics that end-to-end runs also print, to standard error
    only: end-to-end in meaning, but too noisy (or, for
    [ops_failed_ratio], too often 0) to gate. *)
let ungated =
  [ "converge_p99_us"; "learn_p50_us"; "learn_p99_us"; "burst_ops_per_s"; "ops_failed_ratio";
    "peak_heap_mb" ]

(** One result line: [{"correct":..,"attempted":..,"failed":..,"metrics":{..}}].
    [values] must hold exactly the names of [set]. *)
let result_json ~correct ~attempted ~failed (set : metric list)
    (values : (string * float) list) : string =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i mt ->
      let v =
        match List.assoc_opt mt.name values with
        | Some v when Float.is_finite v -> v
        | _ -> invalid_arg ("metric without a value: " ^ mt.name)
      in
      Printf.bprintf buf "%s%S: {\"value\": %.17g, \"unit\": %S}"
        (if i = 0 then "" else ", ")
        mt.name v mt.unit_)
    set;
  Buffer.add_string buf "}}";
  Buffer.contents buf
