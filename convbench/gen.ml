(* Seeded generation helpers shared by the workloads.  Every random
   choice of a run is drawn from [Netgen.rng seed] streams, so the same
   seed gives the same inputs; the program under test only ever sees
   the generated ops. *)

(** Due times, in seconds from the start, of [n] ops arriving as a
    Poisson process of [rate] ops per second. *)
let poisson ~rng ~rate n : float array =
  let t = ref 0. in
  Array.init n (fun _ ->
      let u = Random.State.float rng 1.0 in
      t := !t +. (-.Float.log (1. -. u) /. rate);
      !t)

(** A set with O(1) insert, remove and uniform random pick. *)
module Bag = struct
  type 'a t = { mutable items : 'a array; mutable len : int; pos : ('a, int) Hashtbl.t }

  let create () = { items = [||]; len = 0; pos = Hashtbl.create 1024 }
  let length b = b.len
  let mem b x = Hashtbl.mem b.pos x

  let add b x =
    if not (mem b x) then begin
      if b.len = Array.length b.items then begin
        let items = Array.make (max 16 (2 * b.len)) x in
        Array.blit b.items 0 items 0 b.len;
        b.items <- items
      end;
      b.items.(b.len) <- x;
      Hashtbl.replace b.pos x b.len;
      b.len <- b.len + 1
    end

  let remove b x =
    match Hashtbl.find_opt b.pos x with
    | None -> ()
    | Some i ->
      let last = b.items.(b.len - 1) in
      b.items.(i) <- last;
      Hashtbl.replace b.pos last i;
      Hashtbl.remove b.pos x;
      b.len <- b.len - 1

  let pick b rng = b.items.(Random.State.int rng b.len)
end

(** Pick an index by weight. *)
let weighted rng (ws : int list) : int =
  let total = List.fold_left ( + ) 0 ws in
  let r = Random.State.int rng total in
  let rec go i acc = function
    | [] -> i - 1
    | w :: rest -> if r < acc + w then i else go (i + 1) (acc + w) rest
  in
  go 0 0 ws
