(* Tests for the controller's repair primitive ({!Nerpa.Repair}):
   - a QCheck differential of [Repair.diff] against the quadratic
     [List.mem] filter pair it replaces, kept here as the oracle;
   - its cost is linear: equality calls at 10^5 elements stay within a
     small constant per element;
   - a 10^4-route l3router switch tampered behind the controller's back
     is repaired by [Controller.reconcile] with exactly the two
     corrections the tampering needs. *)

(* The reference: what the hand-written reconcile and resync diffs
   computed before [Repair.diff] replaced them. *)
let oracle ~equal ~have ~want =
  let mem x l = List.exists (equal x) l in
  ( List.filter (fun x -> not (mem x want)) have,
    List.filter (fun x -> not (mem x have)) want )

(* Small values force overlap and duplicates on either side; the
   [mod 3] hash forces bucket collisions between unequal elements. *)
let prop_diff_matches_oracle =
  QCheck2.Test.make ~count:500 ~name:"diff equals the List.mem oracle"
    QCheck2.Gen.(
      triple bool
        (list_size (int_range 0 40) (int_range 0 20))
        (list_size (int_range 0 40) (int_range 0 20)))
    (fun (collide, have, want) ->
      let hash = if collide then (fun x -> x mod 3) else Hashtbl.hash in
      Nerpa.Repair.diff ~hash ~equal:Int.equal ~have ~want
      = oracle ~equal:Int.equal ~have ~want)

let test_diff_is_linear () =
  let n = 100_000 in
  let calls = ref 0 in
  let equal a b =
    incr calls;
    Int.equal a b
  in
  (* half of each side is shared *)
  let have = List.init n Fun.id and want = List.init n (fun i -> i + (n / 2)) in
  let stale, missing = Nerpa.Repair.diff ~hash:Hashtbl.hash ~equal ~have ~want in
  Alcotest.(check int) "stale" (n / 2) (List.length stale);
  Alcotest.(check int) "missing" (n / 2) (List.length missing);
  Alcotest.(check (list int)) "stale in input order"
    (List.init (n / 2) Fun.id) stale;
  if !calls > 4 * n then
    Alcotest.failf "%d equality calls for n = %d (bound %d)" !calls n (4 * n)

let test_reconcile_tampered_fib () =
  let d = L3router.deploy () in
  let nbs = 16 in
  let ins table row = Ovsdb.Db.Insert { table; row; uuid = None } in
  let int x = Ovsdb.Datum.integer (Int64.of_int x) in
  ignore
    (Ovsdb.Db.transact_exn d.db
       (List.init nbs (fun k ->
            ins "Neighbor"
              [ ("ip", int (0x0A000001 + k)); ("mac", int (0x100 + k));
                ("port", int (1 + k)) ])
       @ List.init 10_000 (fun i ->
             ins "StaticRoute"
               [ ("prefix", int (0x0B000000 + (i lsl 8))); ("plen", int 24);
                 ("nexthop", int (0x0A000001 + (i mod nbs))) ])));
  ignore (L3router.sync d);
  let sw = L3router.switch d "r0" in
  Alcotest.(check int) "routes installed" 10_000
    (P4.Switch.entry_count sw "routes");
  let before = Nerpa.Controller.dump_switch d.controller "r0" in
  (* tamper behind the controller's back: one route lost, one foreign
     entry added *)
  let victim = List.hd (P4.Switch.table_entries sw "routes") in
  P4.Switch.delete_entry sw "routes" victim;
  P4.Switch.insert_entry sw "routes"
    { victim with P4.Entry.matches = [ P4.Entry.MLpm (0xC0A80000L, 16) ] };
  Alcotest.(check bool) "tampering shows in the dump" false
    (String.equal before (Nerpa.Controller.dump_switch d.controller "r0"));
  let corr0 = Obs.counter_value "nerpa.reconcile.corrections" in
  Nerpa.Controller.reconcile d.controller "r0";
  Alcotest.(check int) "two entry corrections" 2
    (Obs.counter_value "nerpa.reconcile.corrections" - corr0);
  Alcotest.(check string) "dump restored" before
    (Nerpa.Controller.dump_switch d.controller "r0")

let tests =
  [
    QCheck_alcotest.to_alcotest prop_diff_matches_oracle;
    Alcotest.test_case "diff makes linearly many equality calls" `Quick
      test_diff_is_linear;
    Alcotest.test_case "reconcile repairs a tampered 10^4-route switch" `Quick
      test_reconcile_tampered_fib;
  ]
