(* The convergence benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload and prints, as the last line of standard output,
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}} with every
   end-to-end metric ([--trace 0]) or every per-layer metric
   ([--trace 1]); a readable table goes to standard error, on
   end-to-end runs with the ungated end-to-end metrics too.  Exits 1 when an op failed or an oracle disagreed. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload fib_churn|l2_fabric|cfg_sockets --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !trace <> 0 && !trace <> 1 then usage ();
  let p =
    { Convbench.Harness.seed = !seed; seconds = !seconds; traced = !trace = 1;
      trace_dir = ".convbench" }
  in
  let run =
    match !workload with
    | "fib_churn" -> Convbench.Fib_churn.run
    | "l2_fabric" -> Convbench.L2_fabric.run
    | "cfg_sockets" -> Convbench.Cfg_sockets.run
    | _ -> usage ()
  in
  let o = run p in
  let set = if p.traced then Convbench.Metrics.per_layer else Convbench.Metrics.end_to_end in
  let show suffix (mt : Convbench.Metrics.metric) =
    Printf.eprintf "  %-42s %14.3f %s%s\n" mt.name (List.assoc mt.name o.values) mt.unit_ suffix
  in
  List.iter (show "") set;
  if not p.traced then
    List.iter
      (fun (mt : Convbench.Metrics.metric) ->
        if List.mem mt.name Convbench.Metrics.ungated then show "  (not gated)" mt)
      Convbench.Metrics.per_layer;
  print_endline
    (Convbench.Metrics.result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed set
       o.values);
  exit (if o.correct then 0 else 1)
