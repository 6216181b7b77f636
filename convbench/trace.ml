(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into each
   layer; nothing inside the program under test is instrumented.  A
   span belongs either to one op ([op >= 0]) or to every op of one
   batch ([op = -1]), e.g. the sync that serves the whole batch.  When
   the recorder is disabled (the end-to-end runs) [span] records
   nothing and reads no clock beyond the caller's own. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  parent : int;  (** [-1] at top level *)
  op : int;  (** [-1] when the span serves the whole batch *)
  batch : int;
}

type t = { mutable enabled : bool; mutable spans : span list; mutable next : int }

let create ~enabled = { enabled; spans = []; next = 0 }
let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
let count t = List.length t.spans
let spans t = List.rev t.spans

(** Record an interval measured by the caller; returns the span id
    ([-1] when disabled). *)
let record t ?(parent = -1) ~op ~batch name ~start ~stop =
  if not t.enabled then -1
  else begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; start; stop; parent; op; batch } :: t.spans;
    id
  end

let dur s = s.stop -. s.start

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* Children of every span, by parent id. *)
let children (spans : span list) =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.start, s.stop)) spans;
  kids

(* Self time of [s] within [lo, hi]: the part of [s] inside the window
   minus the part its child spans cover. *)
let self_within kids ~lo ~hi s =
  let a = Float.max s.start lo and b = Float.min s.stop hi in
  if b <= a then 0. else b -. a -. covered ~lo:a ~hi:b (Hashtbl.find_all kids s.id)

(** Self time of every span: its duration minus the part of it that
    its child spans cover. *)
let self_times (spans : span list) : (span * float) list =
  let kids = children spans in
  List.map (fun s -> (s, self_within kids ~lo:s.start ~hi:s.stop s)) spans

(** The latency breakdown.  Every span named ["op"] is one op's latency,
    from its due time to the end of its probe.  Within that window, every
    other span — the op's own calls, and any other op's or batch's that
    it waited behind — is charged its self time under its name.  Returns
    the seconds charged to each name, summed over the ops, and per op the
    share of its latency that no span covers: time spent outside every
    call into a layer. *)
let breakdown (spans : span list) : (string * float) list * float list =
  let kids = children spans in
  let ops, calls = List.partition (fun s -> s.name = "op") spans in
  let calls = Array.of_list (List.sort (fun a b -> compare a.start b.start) calls) in
  let charged = Hashtbl.create 16 in
  let unaccounted =
    List.filter_map
      (fun w ->
        let inside = ref 0. in
        (* calls are sorted by start; none that starts after the window counts *)
        let k = ref 0 in
        while !k < Array.length calls && calls.(!k).start < w.stop do
          let c = calls.(!k) in
          let t = self_within kids ~lo:w.start ~hi:w.stop c in
          if t > 0. then begin
            inside := !inside +. t;
            Hashtbl.replace charged c.name (t +. Option.value ~default:0. (Hashtbl.find_opt charged c.name))
          end;
          incr k
        done;
        if dur w > 0. then Some (1. -. (!inside /. dur w)) else None)
      ops
  in
  (List.sort compare (Hashtbl.fold (fun n t acc -> (n, t) :: acc) charged []), unaccounted)

(** Write every span as one JSON object per line. *)
let write_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"stop\":%.6f,\"parent\":%d,\"op\":%d,\"batch\":%d}\n"
        s.id s.name s.start s.stop s.parent s.op s.batch)
    (spans t)
