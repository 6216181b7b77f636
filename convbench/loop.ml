(* The open loop shared by every workload.

   Ops are due on a schedule fixed before the run (seconds from the
   start).  Each iteration commits every op already due, one call per
   op, then syncs once and probes each committed op.  An op's latency
   runs from its due time to the end of the probe that shows the data
   plane forwarding according to it, so a stall anywhere — a slow sync,
   a slow probe, the generator itself — shows up in the latency of every
   op that fell due meanwhile.  Two ops sharing a conflict key never
   share a batch (a host does not move twice between two syncs): the
   second waits for the next iteration, still timed from its due time.

   While nothing is due the loop calls [idle], which forwards a small
   batch of frames; it never sleeps, so the run measures forwarding
   beside the churn. *)

type kind = Mgmt | Learn

type 'op spec = {
  ops : 'op array;
  due : float array;  (** seconds from the start, non-decreasing *)
  key : 'op -> int;  (** conflict key *)
  kind : 'op -> kind;
  layer : 'op -> string;  (** span name of [commit], e.g. ["ovsdb.txn"] *)
  commit : 'op -> unit;  (** one transaction or one injected frame; raises on failure *)
  sync : unit -> unit;
  probe : 'op -> bool;  (** [true] iff the data plane forwards according to the op *)
  idle : unit -> unit;
}

type result = {
  attempted : int;
  failed : int;
  lat_us : float list;  (** verified ops, due time to probe end *)
  learn_lat_us : float list;
  mgmt_lat_us : float list;
  late_us : float list;  (** commit start minus due time, per attempted op *)
  batches : int;
  elapsed : float;  (** seconds from the start to the last probe *)
  committed : int list;  (** indices of committed ops, in commit order *)
  batch_of : int list list;  (** committed indices grouped by batch, in order *)
  traced_lat_us : float list;  (** latencies of ops whose batch was traced *)
  untraced_lat_us : float list;
  traced_learn : int;  (** verified [Learn] ops among the traced ones *)
}

(* The sum of the [dl.commit] histogram, the engine's own per-commit
   timer; it only advances while [Obs] collection is on. *)
let dl_commit_us () =
  match Obs.find_histogram "dl.commit" with
  | Some h -> Obs.Histogram.sum h
  | None -> 0.

(* The traced run alternates traced and untraced blocks of this many
   seconds, so it also measures what tracing costs. *)
let trace_block = 0.5

(** Run [spec] until [seconds] have passed (no op is committed after
    that) or the ops run out.  [clock] is injectable for tests.  When
    [trace] is enabled, iterations that start in an odd-numbered
    [trace_block] are traced: they record spans and turn [Obs]
    collection on; the others do neither.

    Spans, around every call into a layer: the op's commit
    ([spec.layer]), the batch's [nerpa.sync] with its [dl.commit] child
    (the engine's own commit timer), each [p4.probe], and [p4.forward],
    the idle call during which the next op fell due.  Each verified op
    whose whole latency fell in traced iterations also gets an [op]
    span, from its due time to the end of its probe; the time inside it
    that no layer span covers is the benchmark's own. *)
let run ?(clock = Unix.gettimeofday) ?(trace = Trace.create ~enabled:false) ~seconds
    (spec : 'op spec) : result =
  let tracing = Trace.enabled trace in
  let n = Array.length spec.ops in
  let t0 = clock () in
  let next = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let lat = ref [] and learn = ref [] and mgmt = ref [] and late = ref [] in
  let traced_lat = ref [] and untraced_lat = ref [] and traced_learn = ref 0 in
  let committed = ref [] and batches = ref [] in
  let nbatch = ref 0 in
  let last = ref t0 in
  let in_keys = Hashtbl.create 64 in
  (* start of the current run of traced iterations *)
  let traced_since = ref infinity in
  let set_traced b ~at =
    if b <> Trace.enabled trace then begin
      Trace.set_enabled trace b;
      Obs.set_enabled b;
      traced_since := if b then at else infinity
    end
  in
  while !next < n && clock () -. t0 < seconds do
    let now = clock () -. t0 in
    if tracing then set_traced (int_of_float (now /. trace_block) mod 2 = 1) ~at:(t0 +. now);
    let traced = Trace.enabled trace in
    if spec.due.(!next) > now then begin
      if traced then begin
        let f0 = clock () in
        spec.idle ();
        let f1 = clock () in
        if spec.due.(!next) <= f1 -. t0 then
          ignore (Trace.record trace ~op:(-1) ~batch:!nbatch "p4.forward" ~start:f0 ~stop:f1)
      end
      else spec.idle ()
    end
    else begin
      let b = !nbatch in
      incr nbatch;
      Hashtbl.reset in_keys;
      (* commit every due op, stopping at the first key conflict *)
      let batch = ref [] in
      let stop = ref false in
      while
        (not !stop) && !next < n
        && spec.due.(!next) <= clock () -. t0
      do
        let i = !next in
        let op = spec.ops.(i) in
        let k = spec.key op in
        if Hashtbl.mem in_keys k then stop := true
        else begin
          Hashtbl.replace in_keys k ();
          incr next;
          incr attempted;
          let c0 = clock () in
          late := ((c0 -. (t0 +. spec.due.(i))) *. 1e6) :: !late;
          let ok = try spec.commit op; true with _ -> false in
          let c1 = clock () in
          ignore (Trace.record trace ~op:i ~batch:b (spec.layer op) ~start:c0 ~stop:c1);
          committed := i :: !committed;
          batch := (i, ok) :: !batch
        end
      done;
      let batch = List.rev !batch in
      let dl0 = if traced then dl_commit_us () else 0. in
      let s0 = clock () in
      let synced = try spec.sync (); true with _ -> false in
      let s1 = clock () in
      let sid = Trace.record trace ~op:(-1) ~batch:b "nerpa.sync" ~start:s0 ~stop:s1 in
      if traced then begin
        let dl = (dl_commit_us () -. dl0) /. 1e6 in
        ignore
          (Trace.record trace ~parent:sid ~op:(-1) ~batch:b "dl.commit" ~start:s0
             ~stop:(s0 +. Float.min dl (s1 -. s0)))
      end;
      List.iter
        (fun (i, ok) ->
          let op = spec.ops.(i) in
          let p0 = clock () in
          let verified = ok && synced && (try spec.probe op with _ -> false) in
          let p1 = clock () in
          ignore (Trace.record trace ~op:i ~batch:b "p4.probe" ~start:p0 ~stop:p1);
          last := p1;
          if verified then begin
            let due = t0 +. spec.due.(i) in
            let l = (p1 -. due) *. 1e6 in
            lat := l :: !lat;
            (match spec.kind op with
            | Learn -> learn := l :: !learn
            | Mgmt -> mgmt := l :: !mgmt);
            if traced then begin
              traced_lat := l :: !traced_lat;
              if spec.kind op = Learn then incr traced_learn;
              if due >= !traced_since then
                ignore (Trace.record trace ~op:i ~batch:b "op" ~start:due ~stop:p1)
            end
            else untraced_lat := l :: !untraced_lat
          end
          else incr failed)
        batch;
      batches := List.map fst batch :: !batches
    end
  done;
  Trace.set_enabled trace tracing;
  {
    attempted = !attempted;
    failed = !failed;
    lat_us = !lat;
    learn_lat_us = !learn;
    mgmt_lat_us = !mgmt;
    late_us = !late;
    batches = !nbatch;
    elapsed = !last -. t0;
    committed = List.rev !committed;
    batch_of = List.rev !batches;
    traced_lat_us = !traced_lat;
    untraced_lat_us = !untraced_lat;
    traced_learn = !traced_learn;
  }

(** A burst: every op due at once, run to completion, untraced. *)
let burst (spec : 'op spec) : result =
  run ~seconds:infinity { spec with due = Array.make (Array.length spec.ops) 0.; idle = ignore }

(** The ops each result committed, in run order; [arrays.(k)] holds the
    ops of [results.(k)]. *)
let committed_ops (arrays : 'op array list) (results : result list) : 'op list =
  List.concat
    (List.map2 (fun a (r : result) -> List.map (fun i -> a.(i)) r.committed) arrays results)

(** Replay [ops] with the loop's batching but none of its timing: [sync]
    before an op whose key already occurs since the last sync, and once
    at the end. *)
let replay_batched ~key ~commit ~sync (ops : 'op list) =
  let keys = Hashtbl.create 256 in
  List.iter
    (fun op ->
      if Hashtbl.mem keys (key op) then begin
        sync ();
        Hashtbl.reset keys
      end;
      Hashtbl.replace keys (key op) ();
      commit op)
    ops;
  sync ()
