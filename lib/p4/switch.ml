(* The behavioural model: a software switch that executes a mini-P4
   program, in the role BMv2 plays in the paper's prototype.

   Packet life cycle (v1model-like):
     parse -> ingress control -> replication (unicast / multicast /
     clones) -> egress control per copy -> deparse.

   Two data paths share this file.  The *compiled* fast path (default)
   resolves the program once at [create] into static structures: every
   header field and standard-metadata name gets a slot in a flat
   [int64 array], expressions/actions/controls/parser states become
   closures over those slots, and each table gets a [Matcher.t] updated
   incrementally on entry install/delete — so per-packet work is a
   handful of array reads and matcher probes with no list allocation.
   The *interpreter* (behind [create ~use_compiled:false]) walks the
   AST per packet over hashtable state, and is kept as the executable
   reference the differential suite checks the fast path against.

   The switch also maintains the control-plane-visible state: table
   entries, multicast groups, counters, and the queue of emitted
   digests. *)

exception Switch_error of string

let error fmt = Format.kasprintf (fun s -> raise (Switch_error s)) fmt

(* Observability (metric names are a public contract, see README).
   Per-table hit/miss counters are registered as p4.table.<name>.hits
   and .misses when the switch is created, so they aggregate across
   switches running the same program. *)
let m_packets_in = Obs.Counter.create "p4.packets_in"
let m_packets_out = Obs.Counter.create "p4.packets_out"
let m_digests = Obs.Counter.create "p4.digests"

let mask w v =
  if w >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L w) 1L)

(* ---------------- per-packet execution state (interpreter) -------- *)

type pkt_state = {
  mutable fields : (string * string, int64) Hashtbl.t; (* header.field values *)
  mutable valid : (string, unit) Hashtbl.t;            (* valid headers *)
  mutable meta : (string, int64) Hashtbl.t;
  mutable payload : Packet.t;                          (* unparsed remainder *)
  mutable dropped : bool;
  mutable clones : int64 list;                         (* mirror ports *)
}

type digest_msg = { digest_name : string; values : (string * int64) list }

(* ---------------- per-packet execution state (compiled) ----------- *)

(* One slot per header field and per standard-metadata name; a slot
   keeps its value across header invalidation, which reproduces the
   interpreter's fields-table-first read semantics (stale reads of
   fields of invalidated headers return the last written value).
   [s_egress_set] mirrors the interpreter's "egress_spec present in the
   meta table" distinction, which a plain 0L slot cannot represent. *)
type scratch = {
  vals : int64 array;
  hvalid : bool array;
  mutable s_payload : Packet.t;
  mutable s_dropped : bool;
  mutable s_clones : int64 list;
  mutable s_egress_set : bool;
  keybufs : int64 array array;       (* per-table key buffer, by tidx *)
}

type caction = scratch -> int64 array -> unit

(* What a matcher stores per entry: the action closure plus the entry's
   argument vector pre-masked to the parameter widths at install time. *)
type prepared = { p_fn : caction; p_args : int64 array }

(* ---------------- table state ---------------- *)

(* Entries are stored keyed by their match part (matches + priority), so
   that insert / modify / delete and duplicate checks are O(1) even for
   tables with tens of thousands of entries.  The row caches the
   entry's total LPM length so the naive scan never recomputes it per
   packet; the matcher is the compiled lookup structure, maintained
   incrementally alongside. *)
type scan_row = { row_entry : Entry.t; row_lpm : int }

type table_state = {
  table : Program.table;
  tidx : int;                        (* index into scratch keybufs *)
  key_widths : int array;
  key_refs : Program.fref array;
  entries : (Entry.match_value list * int, scan_row) Hashtbl.t;
  matcher : prepared Matcher.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  obs_hits : Obs.Counter.t;
  obs_misses : Obs.Counter.t;
}

(* ---------------- the compiled pipeline ---------------- *)

type chdr = {
  ch_idx : int;                      (* header index, for validity bits *)
  ch_width : int;                    (* total width in bits *)
  ch_fields : (int * int) array;     (* (slot, width) in wire order *)
}

type ctrans =
  | CAccept
  | CReject
  | CSelect of int * (int64 * int) array * int
    (* key slot, (constant, state index) cases in order, default state
       index (-1 = reject) *)

type cstate = { cs_extracts : chdr array; cs_trans : ctrans }

type compiled = {
  c_pname : string;
  c_nslots : int;
  c_nheaders : int;
  c_states : cstate array;
  c_start : int;
  c_headers : chdr array;            (* deparse order *)
  c_actions : (string, caction) Hashtbl.t;
  c_ingress : scratch -> unit;
  c_egress : scratch -> unit;
  c_ingress_port : int;
  c_egress_port : int;
  c_egress_spec : int;
  c_mcast : int;
  c_is_clone : int;
  c_keybuf_arities : int array;
  c_pool : scratch option Atomic.t;  (* one cached scratch, race-safe *)
}

type t = {
  program : Program.t;
  name : string;                       (* switch instance name *)
  ports : int list;                    (* physical ports *)
  tables : (string, table_state) Hashtbl.t;
  mcast_groups : (int64, int64 list) Hashtbl.t;  (* group id -> ports *)
  counters : (string, (int64, int64) Hashtbl.t) Hashtbl.t;
  registers : (string, (int64, int64) Hashtbl.t) Hashtbl.t;
  digest_queue : digest_msg list ref;             (* newest first *)
  packets_in : int Atomic.t;
  packets_out : int Atomic.t;
  compiled : compiled;
  use_compiled : bool;
}

(* ---------------- compilation ---------------- *)

let no_args : int64 array = [||]

let premask_args (program : Program.t) (aname : string) (args : int64 list) :
    int64 array =
  match Program.find_action program aname with
  | None -> error "unknown action %s" aname
  | Some a -> Array.of_list (List.map2 (fun (_, w) v -> mask w v) a.params args)

let compile (program : Program.t) (tables : (string, table_state) Hashtbl.t)
    (counters : (string, (int64, int64) Hashtbl.t) Hashtbl.t)
    (registers : (string, (int64, int64) Hashtbl.t) Hashtbl.t)
    (digest_queue : digest_msg list ref) : compiled =
  (* slot assignment: header fields in declaration order, then the
     standard metadata *)
  let slots = Hashtbl.create 64 in
  let widths = ref [] in
  let nslots = ref 0 in
  let add_slot r w =
    Hashtbl.replace slots r !nslots;
    widths := w :: !widths;
    incr nslots
  in
  List.iter
    (fun (h : Program.header) ->
      List.iter
        (fun (f : Program.field) ->
          add_slot (Program.Field (h.hname, f.fname)) f.fwidth)
        h.fields)
    program.headers;
  List.iter (fun (m, w) -> add_slot (Program.Meta m) w) Program.standard_metadata;
  let slot_widths = Array.of_list (List.rev !widths) in
  let slot_of r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
      error "program %s: unresolved reference %s" program.name
        (Program.ref_to_string r)
  in
  let hidx = Hashtbl.create 8 in
  List.iteri (fun i (h : Program.header) -> Hashtbl.replace hidx h.hname i)
    program.headers;
  let header_idx h =
    match Hashtbl.find_opt hidx h with
    | Some i -> i
    | None -> error "unknown header %s" h
  in
  let headers =
    Array.of_list
      (List.map
         (fun (h : Program.header) ->
           {
             ch_idx = header_idx h.hname;
             ch_width = Program.header_width h;
             ch_fields =
               Array.of_list
                 (List.map
                    (fun (f : Program.field) ->
                      (slot_of (Program.Field (h.hname, f.fname)), f.fwidth))
                    h.fields);
           })
         program.headers)
  in
  let slot_egress_spec = slot_of (Program.Meta "egress_spec") in
  (* expressions: closures over the scratch slots and the (positional)
     action argument vector *)
  let rec comp_expr (params : string array) (e : Program.expr) :
      scratch -> int64 array -> int64 =
    match e with
    | Program.EConst (w, v) ->
      let v = mask w v in
      fun _ _ -> v
    | Program.ERef r ->
      let s = slot_of r in
      fun sc _ -> sc.vals.(s)
    | Program.EParam p ->
      let rec idx i =
        if i >= Array.length params then error "unbound action parameter %s" p
        else if String.equal params.(i) p then i
        else idx (i + 1)
      in
      let i = idx 0 in
      fun _ args -> args.(i)
    | Program.EValid h ->
      let hi = header_idx h in
      fun sc _ -> if sc.hvalid.(hi) then 1L else 0L
    | Program.ENot e ->
      let f = comp_expr params e in
      fun sc a -> if Int64.equal (f sc a) 0L then 1L else 0L
    | Program.EBin (op, x, y) -> (
      let fx = comp_expr params x and fy = comp_expr params y in
      let bool_of c = if c then 1L else 0L in
      match op with
      | Program.Add -> fun sc a -> Int64.add (fx sc a) (fy sc a)
      | Program.Sub -> fun sc a -> Int64.sub (fx sc a) (fy sc a)
      | Program.And -> fun sc a -> Int64.logand (fx sc a) (fy sc a)
      | Program.Or -> fun sc a -> Int64.logor (fx sc a) (fy sc a)
      | Program.Xor -> fun sc a -> Int64.logxor (fx sc a) (fy sc a)
      | Program.Shl ->
        fun sc a -> Int64.shift_left (fx sc a) (Int64.to_int (fy sc a))
      | Program.Shr ->
        fun sc a -> Int64.shift_right_logical (fx sc a) (Int64.to_int (fy sc a))
      | Program.Eq -> fun sc a -> bool_of (Int64.equal (fx sc a) (fy sc a))
      | Program.Ne ->
        fun sc a -> bool_of (not (Int64.equal (fx sc a) (fy sc a)))
      | Program.Lt ->
        fun sc a -> bool_of (Int64.unsigned_compare (fx sc a) (fy sc a) < 0)
      | Program.Gt ->
        fun sc a -> bool_of (Int64.unsigned_compare (fx sc a) (fy sc a) > 0)
      | Program.Le ->
        fun sc a -> bool_of (Int64.unsigned_compare (fx sc a) (fy sc a) <= 0)
      | Program.Ge ->
        fun sc a -> bool_of (Int64.unsigned_compare (fx sc a) (fy sc a) >= 0)
      | Program.BoolAnd ->
        fun sc a -> bool_of (fx sc a <> 0L && fy sc a <> 0L)
      | Program.BoolOr -> fun sc a -> bool_of (fx sc a <> 0L || fy sc a <> 0L))
  in
  (* a store through a fref masks to the reference width, like the
     interpreter's write_ref; writing egress_spec must also raise the
     was-set flag *)
  let comp_store (r : Program.fref) : scratch -> int64 -> unit =
    let s = slot_of r in
    let w = slot_widths.(s) in
    if s = slot_egress_spec then fun sc v ->
      sc.vals.(s) <- mask w v;
      sc.s_egress_set <- true
    else fun sc v -> sc.vals.(s) <- mask w v
  in
  let comp_prim (params : string array) (prim : Program.prim) : caction =
    match prim with
    | Program.Assign (r, e) ->
      let st = comp_store r and f = comp_expr params e in
      fun sc args -> st sc (f sc args)
    | Program.SetValid h ->
      (* the interpreter also zero-fills fields that were never
         written; compiled slots start at 0 every packet and keep
         values written while the header was invalid, which is exactly
         the interpreter's fields-table behaviour *)
      let hi = header_idx h in
      fun sc _ -> sc.hvalid.(hi) <- true
    | Program.SetInvalid h ->
      let hi = header_idx h in
      fun sc _ -> sc.hvalid.(hi) <- false
    | Program.EmitDigest dname -> (
      match Program.find_digest program dname with
      | None -> error "unknown digest %s" dname
      | Some d ->
        let dfields =
          Array.of_list
            (List.map (fun (n, r) -> (n, slot_of r)) d.dfields)
        in
        fun sc _ ->
          let values =
            Array.fold_right
              (fun (n, s) acc -> (n, sc.vals.(s)) :: acc)
              dfields []
          in
          Obs.Counter.incr m_digests;
          digest_queue := { digest_name = dname; values } :: !digest_queue)
    | Program.Drop -> fun sc _ -> sc.s_dropped <- true
    | Program.Forward e ->
      (* like the interpreter's raw meta write: no width mask *)
      let f = comp_expr params e in
      fun sc args ->
        sc.vals.(slot_egress_spec) <- f sc args;
        sc.s_egress_set <- true
    | Program.Multicast e ->
      let f = comp_expr params e in
      let s = slot_of (Program.Meta "mcast_grp") in
      fun sc args -> sc.vals.(s) <- f sc args
    | Program.CloneTo e ->
      let f = comp_expr params e in
      fun sc args -> sc.s_clones <- f sc args :: sc.s_clones
    | Program.Count (c, e) ->
      let tbl = Hashtbl.find counters c in
      let f = comp_expr params e in
      fun sc args ->
        let idx = f sc args in
        Hashtbl.replace tbl idx
          (Int64.add 1L (Option.value ~default:0L (Hashtbl.find_opt tbl idx)))
    | Program.RegWrite (r, idx, v) ->
      let tbl = Hashtbl.find registers r in
      let fi = comp_expr params idx and fv = comp_expr params v in
      fun sc args -> Hashtbl.replace tbl (fi sc args) (fv sc args)
    | Program.RegRead (dst, r, idx) ->
      let tbl = Hashtbl.find registers r in
      let st = comp_store dst and fi = comp_expr params idx in
      fun sc args ->
        st sc (Option.value ~default:0L (Hashtbl.find_opt tbl (fi sc args)))
  in
  let cactions = Hashtbl.create 16 in
  List.iter
    (fun (a : Program.action) ->
      let params = Array.of_list (List.map fst a.params) in
      let prims = Array.of_list (List.map (comp_prim params) a.body) in
      Hashtbl.replace cactions a.aname (fun sc args ->
          Array.iter (fun f -> f sc args) prims))
    program.actions;
  let caction_of name =
    match Hashtbl.find_opt cactions name with
    | Some f -> f
    | None -> error "unknown action %s" name
  in
  let rec comp_control (c : Program.control) : scratch -> unit =
    match c with
    | Program.Nop -> fun _ -> ()
    | Program.Seq (a, b) ->
      let fa = comp_control a and fb = comp_control b in
      fun sc ->
        fa sc;
        fb sc
    | Program.If (cond, a, b) ->
      let fc = comp_expr [||] cond in
      let fa = comp_control a and fb = comp_control b in
      fun sc -> if Int64.equal (fc sc no_args) 0L then fb sc else fa sc
    | Program.ApplyTable tname ->
      let ts =
        match Hashtbl.find_opt tables tname with
        | Some ts -> ts
        | None -> error "unknown table %s" tname
      in
      let key_slots =
        Array.of_list
          (List.map (fun (k : Program.key) -> slot_of k.kref) ts.table.keys)
      in
      let nkeys = Array.length key_slots in
      let tidx = ts.tidx in
      let dname, dargs = ts.table.default_action in
      let dfn = caction_of dname in
      let dargs = premask_args program dname dargs in
      fun sc ->
        let kb = sc.keybufs.(tidx) in
        for i = 0 to nkeys - 1 do
          kb.(i) <- sc.vals.(key_slots.(i))
        done;
        (match Matcher.find ts.matcher kb with
        | Some (_, prep) ->
          Atomic.incr ts.hits;
          Obs.Counter.incr ts.obs_hits;
          prep.p_fn sc prep.p_args
        | None ->
          Atomic.incr ts.misses;
          Obs.Counter.incr ts.obs_misses;
          dfn sc dargs)
  in
  (* parser: states as an array, transitions by index *)
  let pstates = Array.of_list program.parser.states in
  let sidx = Hashtbl.create 8 in
  Array.iteri
    (fun i (s : Program.parser_state) -> Hashtbl.replace sidx s.sname i)
    pstates;
  let state_idx name =
    match Hashtbl.find_opt sidx name with
    | Some i -> i
    | None -> error "unknown parser state %s" name
  in
  let c_states =
    Array.map
      (fun (s : Program.parser_state) ->
        let extracts =
          Array.of_list (List.map (fun h -> headers.(header_idx h)) s.extracts)
        in
        let trans =
          match s.transition with
          | Program.Accept -> CAccept
          | Program.Reject -> CReject
          | Program.Select (r, cases) ->
            (* the first None case catches everything after it, so
               later cases are unreachable, as in the interpreter *)
            let slot = slot_of r in
            let rec split acc = function
              | [] -> (List.rev acc, -1)
              | (Some c, tgt) :: rest -> split ((c, state_idx tgt) :: acc) rest
              | (None, tgt) :: _ -> (List.rev acc, state_idx tgt)
            in
            let consts, dflt = split [] cases in
            CSelect (slot, Array.of_list consts, dflt)
        in
        { cs_extracts = extracts; cs_trans = trans })
      pstates
  in
  let keybuf_arities = Array.make (List.length program.tables) 0 in
  Hashtbl.iter
    (fun _ ts -> keybuf_arities.(ts.tidx) <- Array.length ts.key_widths)
    tables;
  {
    c_pname = program.name;
    c_nslots = !nslots;
    c_nheaders = List.length program.headers;
    c_states;
    c_start = state_idx program.parser.start;
    c_headers = headers;
    c_actions = cactions;
    c_ingress = comp_control program.ingress;
    c_egress = comp_control program.egress;
    c_ingress_port = slot_of (Program.Meta "ingress_port");
    c_egress_port = slot_of (Program.Meta "egress_port");
    c_egress_spec = slot_egress_spec;
    c_mcast = slot_of (Program.Meta "mcast_grp");
    c_is_clone = slot_of (Program.Meta "is_clone");
    c_keybuf_arities = keybuf_arities;
    c_pool = Atomic.make None;
  }

let create ?(name = "sw0") ?(ports = []) ?(use_compiled = true)
    (program : Program.t) : t =
  (match Program.typecheck program with
  | Ok () -> ()
  | Error errs ->
    error "program %s does not type-check: %s" program.name
      (String.concat "; " errs));
  let tables = Hashtbl.create 16 in
  List.iteri
    (fun tidx (tbl : Program.table) ->
      let key_widths =
        Array.of_list
          (List.map
             (fun (k : Program.key) ->
               match Program.ref_width program k.kref with
               | Ok w -> w
               | Error e -> error "%s" e)
             tbl.keys)
      in
      let key_kinds =
        Array.of_list (List.map (fun (k : Program.key) -> k.kind) tbl.keys)
      in
      let key_refs =
        Array.of_list (List.map (fun (k : Program.key) -> k.kref) tbl.keys)
      in
      Hashtbl.add tables tbl.tname
        {
          table = tbl;
          tidx;
          key_widths;
          key_refs;
          entries = Hashtbl.create 64;
          matcher = Matcher.create { Matcher.widths = key_widths; kinds = key_kinds };
          hits = Atomic.make 0;
          misses = Atomic.make 0;
          obs_hits =
            Obs.Counter.create (Printf.sprintf "p4.table.%s.hits" tbl.tname);
          obs_misses =
            Obs.Counter.create (Printf.sprintf "p4.table.%s.misses" tbl.tname);
        })
    program.tables;
  let counters = Hashtbl.create 4 in
  List.iter
    (fun (c : Program.counter) -> Hashtbl.add counters c.cname (Hashtbl.create 16))
    program.counters;
  let registers = Hashtbl.create 4 in
  List.iter
    (fun (r : Program.register) -> Hashtbl.add registers r.rname (Hashtbl.create 16))
    program.registers;
  let digest_queue = ref [] in
  let compiled = compile program tables counters registers digest_queue in
  {
    program;
    name;
    ports;
    tables;
    mcast_groups = Hashtbl.create 8;
    counters;
    registers;
    digest_queue;
    packets_in = Atomic.make 0;
    packets_out = Atomic.make 0;
    compiled;
    use_compiled;
  }

let table_state sw name =
  match Hashtbl.find_opt sw.tables name with
  | Some ts -> ts
  | None -> error "switch %s: no table %s" sw.name name

(* ---------------- control-plane operations ---------------- *)

let validate_entry sw (ts : table_state) (e : Entry.t) =
  if List.length e.matches <> List.length ts.table.keys then
    error "table %s: expected %d match fields, got %d" ts.table.tname
      (List.length ts.table.keys) (List.length e.matches);
  List.iteri
    (fun i (k : Program.key) ->
      let mv = List.nth e.matches i in
      match k.kind, mv with
      | Program.Exact, Entry.MExact _
      | Program.Lpm, Entry.MLpm _
      | Program.Ternary, (Entry.MTernary _ | Entry.MExact _)
      | Program.Optional, (Entry.MExact _ | Entry.MAny) -> ()
      | _ ->
        error "table %s: match kind mismatch on key %d" ts.table.tname i)
    ts.table.keys;
  if not (List.mem e.action ts.table.actions) then
    error "table %s: action %s not allowed" ts.table.tname e.action;
  match Program.find_action sw.program e.action with
  | None -> error "unknown action %s" e.action
  | Some a ->
    if List.length a.params <> List.length e.args then
      error "action %s: expected %d args, got %d" e.action
        (List.length a.params) (List.length e.args)

let match_key (e : Entry.t) = (e.Entry.matches, e.Entry.priority)

(* A ternary key accepts MExact installs (P4Runtime maps exact field
   matches onto ternary columns); the matcher handles MExact in any
   column as a full-mask compare, so no translation is needed here. *)
let prepare sw (e : Entry.t) : prepared =
  { p_fn =
      (match Hashtbl.find_opt sw.compiled.c_actions e.Entry.action with
      | Some f -> f
      | None -> error "unknown action %s" e.Entry.action);
    p_args = premask_args sw.program e.Entry.action e.Entry.args;
  }

(** Install a table entry; replaces an existing entry with the same
    match part. *)
let insert_entry sw table (e : Entry.t) : unit =
  let ts = table_state sw table in
  validate_entry sw ts e;
  if Hashtbl.length ts.entries >= ts.table.size
     && not (Hashtbl.mem ts.entries (match_key e)) then
    error "table %s is full (%d entries)" table ts.table.size;
  Hashtbl.replace ts.entries (match_key e)
    { row_entry = e; row_lpm = Entry.lpm_length e };
  Matcher.insert ts.matcher e (prepare sw e)

(** Remove the entry with the same match part, if any. *)
let delete_entry sw table (e : Entry.t) : unit =
  let ts = table_state sw table in
  Hashtbl.remove ts.entries (match_key e);
  Matcher.remove ts.matcher e

let table_entries sw table =
  Hashtbl.fold (fun _ r acc -> r.row_entry :: acc) (table_state sw table).entries []

(** Entries in winner order — highest rank first under
    [Entry.rank_compare] — so folds over the list implement
    first-defined-wins.  [table_entries] has hashtable order. *)
let table_entries_ranked sw table =
  List.sort (fun a b -> Entry.rank_compare b a) (table_entries sw table)

(** Is an entry with the same match part installed? *)
let find_same_match sw table (e : Entry.t) : Entry.t option =
  Option.map
    (fun r -> r.row_entry)
    (Hashtbl.find_opt (table_state sw table).entries (match_key e))

let entry_count sw table = Hashtbl.length (table_state sw table).entries

let matcher_repr sw table = Matcher.repr (table_state sw table).matcher

let set_mcast_group sw group ports =
  (* an empty replica list removes the group: Some [] is unrepresentable *)
  if ports = [] then Hashtbl.remove sw.mcast_groups group
  else Hashtbl.replace sw.mcast_groups group ports

let mcast_group sw group = Hashtbl.find_opt sw.mcast_groups group

let mcast_groups_list sw =
  List.sort compare
    (Hashtbl.fold (fun g ps acc -> (g, ps) :: acc) sw.mcast_groups [])

(** Drain queued digests, oldest first. *)
let take_digests sw : digest_msg list =
  let ds = List.rev !(sw.digest_queue) in
  sw.digest_queue := [];
  ds

let counter_value sw name index =
  match Hashtbl.find_opt sw.counters name with
  | None -> error "no counter %s" name
  | Some tbl -> Option.value ~default:0L (Hashtbl.find_opt tbl index)

(** Current value of a register cell (0 if never written). *)
let register_value sw name index =
  match Hashtbl.find_opt sw.registers name with
  | None -> error "no register %s" name
  | Some tbl -> Option.value ~default:0L (Hashtbl.find_opt tbl index)

(** Control-plane write to a register cell. *)
let register_write sw name index v =
  match Hashtbl.find_opt sw.registers name with
  | None -> error "no register %s" name
  | Some tbl -> Hashtbl.replace tbl index v

(* ---------------- table lookup ---------------- *)

(* The naive reference scan: allocation-free per entry (no
   List.combine), cached LPM lengths, and the same total rank order as
   the compiled matchers ((lpm_length, priority, structural match
   tie-break), see Entry.rank_compare). *)

let scan_matches (key_widths : int array) (matches : Entry.match_value list)
    (values : int64 array) : bool =
  let rec go i = function
    | [] -> true
    | mv :: rest ->
      Entry.match_value_matches ~width:key_widths.(i) mv values.(i)
      && go (i + 1) rest
  in
  go 0 matches

let row_outranks (a : scan_row) (b : scan_row) : bool =
  a.row_lpm > b.row_lpm
  || (a.row_lpm = b.row_lpm
      && (a.row_entry.Entry.priority > b.row_entry.Entry.priority
          || (a.row_entry.Entry.priority = b.row_entry.Entry.priority
              && compare b.row_entry.Entry.matches a.row_entry.Entry.matches > 0)))

let lookup_scan (ts : table_state) (values : int64 array) : Entry.t option =
  let best =
    Hashtbl.fold
      (fun _ (r : scan_row) best ->
        if not (scan_matches ts.key_widths r.row_entry.Entry.matches values)
        then best
        else
          match best with
          | None -> Some r
          | Some b -> if row_outranks r b then Some r else best)
      ts.entries None
  in
  Option.map (fun r -> r.row_entry) best

(** Look up the winning entry for raw key values ([values.(i)] for key
    column i, truncated to the column width).  [use_compiled:false]
    forces the naive scan over the entry store, mirroring
    [Engine.query ~use_indexes]. *)
let lookup ?(use_compiled = true) sw tname (values : int64 array) :
    Entry.t option =
  let ts = table_state sw tname in
  if use_compiled then Option.map fst (Matcher.find ts.matcher values)
  else lookup_scan ts values

(* ---------------- the interpreter ---------------- *)

let read_ref sw (st : pkt_state) (r : Program.fref) : int64 =
  match r with
  | Program.Field (h, f) -> (
    match Hashtbl.find_opt st.fields (h, f) with
    | Some v -> v
    | None ->
      if Hashtbl.mem st.valid h then
        error "switch %s: field %s.%s unset" sw.name h f
      else 0L (* reading a field of an invalid header yields 0, as BMv2 *))
  | Program.Meta m -> Option.value ~default:0L (Hashtbl.find_opt st.meta m)

let ref_width_exn sw r =
  match Program.ref_width sw.program r with
  | Ok w -> w
  | Error e -> error "%s" e

let write_ref sw (st : pkt_state) (r : Program.fref) (v : int64) : unit =
  match r with
  | Program.Field (h, f) ->
    let w = ref_width_exn sw r in
    Hashtbl.replace st.fields (h, f) (mask w v)
  | Program.Meta m ->
    let w = ref_width_exn sw r in
    Hashtbl.replace st.meta m (mask w v)

let rec eval sw (st : pkt_state) (params : (string * int64) list)
    (e : Program.expr) : int64 =
  match e with
  | Program.EConst (w, v) -> mask w v
  | Program.ERef r -> read_ref sw st r
  | Program.EParam p -> (
    match List.assoc_opt p params with
    | Some v -> v
    | None -> error "unbound action parameter %s" p)
  | Program.EValid h -> if Hashtbl.mem st.valid h then 1L else 0L
  | Program.ENot e -> if eval sw st params e = 0L then 1L else 0L
  | Program.EBin (op, a, b) -> (
    let va = eval sw st params a and vb = eval sw st params b in
    let bool_of c = if c then 1L else 0L in
    match op with
    | Program.Add -> Int64.add va vb
    | Program.Sub -> Int64.sub va vb
    | Program.And -> Int64.logand va vb
    | Program.Or -> Int64.logor va vb
    | Program.Xor -> Int64.logxor va vb
    | Program.Shl -> Int64.shift_left va (Int64.to_int vb)
    | Program.Shr -> Int64.shift_right_logical va (Int64.to_int vb)
    | Program.Eq -> bool_of (Int64.equal va vb)
    | Program.Ne -> bool_of (not (Int64.equal va vb))
    | Program.Lt -> bool_of (Int64.unsigned_compare va vb < 0)
    | Program.Gt -> bool_of (Int64.unsigned_compare va vb > 0)
    | Program.Le -> bool_of (Int64.unsigned_compare va vb <= 0)
    | Program.Ge -> bool_of (Int64.unsigned_compare va vb >= 0)
    | Program.BoolAnd -> bool_of (va <> 0L && vb <> 0L)
    | Program.BoolOr -> bool_of (va <> 0L || vb <> 0L))

let run_action sw (st : pkt_state) (a : Program.action) (args : int64 list) :
    unit =
  let params = List.map2 (fun (n, w) v -> (n, mask w v)) a.params args in
  List.iter
    (fun prim ->
      match prim with
      | Program.Assign (r, e) -> write_ref sw st r (eval sw st params e)
      | Program.SetValid h ->
        Hashtbl.replace st.valid h ();
        (* initialise missing fields to zero *)
        (match Program.find_header sw.program h with
        | Some hd ->
          List.iter
            (fun (f : Program.field) ->
              if not (Hashtbl.mem st.fields (h, f.fname)) then
                Hashtbl.replace st.fields (h, f.fname) 0L)
            hd.fields
        | None -> ())
      | Program.SetInvalid h -> Hashtbl.remove st.valid h
      | Program.EmitDigest dname -> (
        match Program.find_digest sw.program dname with
        | None -> error "unknown digest %s" dname
        | Some d ->
          let values =
            List.map (fun (n, r) -> (n, read_ref sw st r)) d.dfields
          in
          Obs.Counter.incr m_digests;
          sw.digest_queue := { digest_name = dname; values } :: !(sw.digest_queue))
      | Program.Drop -> st.dropped <- true
      | Program.Forward e ->
        Hashtbl.replace st.meta "egress_spec" (eval sw st params e)
      | Program.Multicast e ->
        Hashtbl.replace st.meta "mcast_grp" (eval sw st params e)
      | Program.CloneTo e -> st.clones <- eval sw st params e :: st.clones
      | Program.Count (c, e) ->
        let idx = eval sw st params e in
        let tbl = Hashtbl.find sw.counters c in
        Hashtbl.replace tbl idx
          (Int64.add 1L (Option.value ~default:0L (Hashtbl.find_opt tbl idx)))
      | Program.RegWrite (r, idx, v) ->
        let tbl = Hashtbl.find sw.registers r in
        Hashtbl.replace tbl (eval sw st params idx) (eval sw st params v)
      | Program.RegRead (dst, r, idx) ->
        let tbl = Hashtbl.find sw.registers r in
        let v =
          Option.value ~default:0L (Hashtbl.find_opt tbl (eval sw st params idx))
        in
        write_ref sw st dst v)
    a.body

let apply_table sw (st : pkt_state) (tname : string) : unit =
  let ts = table_state sw tname in
  let values = Array.map (fun r -> read_ref sw st r) ts.key_refs in
  let action, args =
    match lookup_scan ts values with
    | Some e ->
      Atomic.incr ts.hits;
      Obs.Counter.incr ts.obs_hits;
      (e.action, e.args)
    | None ->
      Atomic.incr ts.misses;
      Obs.Counter.incr ts.obs_misses;
      ts.table.default_action
  in
  match Program.find_action sw.program action with
  | Some a -> run_action sw st a args
  | None -> error "unknown action %s" action

let rec run_control sw (st : pkt_state) (c : Program.control) : unit =
  match c with
  | Program.Nop -> ()
  | Program.Seq (a, b) ->
    run_control sw st a;
    run_control sw st b
  | Program.ApplyTable t -> apply_table sw st t
  | Program.If (cond, a, b) ->
    if eval sw st [] cond <> 0L then run_control sw st a else run_control sw st b

let parse sw (pkt : Packet.t) (st : pkt_state) : bool =
  let bit = ref 0 in
  let extract hname =
    match Program.find_header sw.program hname with
    | None -> error "unknown header %s" hname
    | Some h ->
      if !bit + Program.header_width h > 8 * Packet.length pkt then false
      else begin
        List.iter
          (fun (f : Program.field) ->
            let v = Packet.get_bits pkt ~bit_offset:!bit ~width:f.fwidth in
            Hashtbl.replace st.fields (hname, f.fname) v;
            bit := !bit + f.fwidth)
          h.fields;
        Hashtbl.replace st.valid hname ();
        true
      end
  in
  let rec run state_name fuel =
    if fuel <= 0 then error "parser loop in program %s" sw.program.name
    else
      match Program.find_state sw.program state_name with
      | None -> error "unknown parser state %s" state_name
      | Some s ->
        if not (List.for_all extract s.extracts) then false (* truncated *)
        else begin
          match s.transition with
          | Program.Accept ->
            st.payload <- Packet.drop_bytes pkt ((!bit + 7) / 8);
            true
          | Program.Reject -> false
          | Program.Select (r, cases) ->
            let v = read_ref sw st r in
            let rec pick = function
              | [] -> false
              | (Some c, target) :: rest ->
                if Int64.equal c v then run target (fuel - 1) else pick rest
              | (None, target) :: _ -> run target (fuel - 1)
            in
            pick cases
        end
  in
  run sw.program.parser.start 64

let deparse sw (st : pkt_state) : Packet.t =
  let width =
    List.fold_left
      (fun acc (h : Program.header) ->
        if Hashtbl.mem st.valid h.hname then acc + Program.header_width h else acc)
      0 sw.program.headers
  in
  let hdr_bytes = (width + 7) / 8 in
  let out = Packet.create hdr_bytes in
  let bit = ref 0 in
  List.iter
    (fun (h : Program.header) ->
      if Hashtbl.mem st.valid h.hname then
        List.iter
          (fun (f : Program.field) ->
            let v =
              Option.value ~default:0L (Hashtbl.find_opt st.fields (h.hname, f.fname))
            in
            Packet.set_bits out ~bit_offset:!bit ~width:f.fwidth v;
            bit := !bit + f.fwidth)
          h.fields)
    sw.program.headers;
  Packet.concat out st.payload

let copy_state (st : pkt_state) : pkt_state =
  {
    fields = Hashtbl.copy st.fields;
    valid = Hashtbl.copy st.valid;
    meta = Hashtbl.copy st.meta;
    payload = st.payload;
    dropped = st.dropped;
    clones = [];
  }

let process_interp (sw : t) ~(in_port : int) (pkt : Packet.t) :
    (int * Packet.t) list =
  let st =
    {
      fields = Hashtbl.create 32;
      valid = Hashtbl.create 8;
      meta = Hashtbl.create 8;
      payload = Packet.of_bytes Bytes.empty;
      dropped = false;
      clones = [];
    }
  in
  Hashtbl.replace st.meta "ingress_port" (Int64.of_int in_port);
  if not (parse sw pkt st) then [] (* parser reject *)
  else begin
    run_control sw st sw.program.ingress;
    (* Replication: unicast via egress_spec, multicast via mcast_grp,
       plus clones.  A Drop verdict is sticky: it suppresses all
       replication, including clones. *)
    let copies = ref [] in
    let mcast = Option.value ~default:0L (Hashtbl.find_opt st.meta "mcast_grp") in
    if not st.dropped then begin
      (match Hashtbl.find_opt st.meta "egress_spec" with
      | Some port when mcast = 0L -> copies := [ (port, copy_state st) ]
      | _ -> ());
      if mcast <> 0L then begin
        let ports = Option.value ~default:[] (mcast_group sw mcast) in
        List.iter
          (fun port ->
            (* do not reflect back to the ingress port *)
            if port <> Int64.of_int in_port then
              copies := (port, copy_state st) :: !copies)
          ports
      end;
      List.iter
        (fun port ->
          let c = copy_state st in
          Hashtbl.replace c.meta "is_clone" 1L;
          copies := (port, c) :: !copies)
        st.clones
    end;
    (* Egress control per copy, then deparse. *)
    List.filter_map
      (fun (port, c) ->
        Hashtbl.replace c.meta "egress_port" port;
        c.dropped <- false;
        run_control sw c sw.program.egress;
        if c.dropped then None else Some (Int64.to_int port, deparse sw c))
      (List.rev !copies)
  end

(* ---------------- the compiled fast path ---------------- *)

let empty_payload = Packet.of_bytes Bytes.empty

let fresh_scratch (cp : compiled) : scratch =
  {
    vals = Array.make cp.c_nslots 0L;
    hvalid = Array.make cp.c_nheaders false;
    s_payload = empty_payload;
    s_dropped = false;
    s_clones = [];
    s_egress_set = false;
    keybufs = Array.map (fun n -> Array.make n 0L) cp.c_keybuf_arities;
  }

let reset_scratch (sc : scratch) : unit =
  Array.fill sc.vals 0 (Array.length sc.vals) 0L;
  Array.fill sc.hvalid 0 (Array.length sc.hvalid) false;
  sc.s_payload <- empty_payload;
  sc.s_dropped <- false;
  sc.s_clones <- [];
  sc.s_egress_set <- false

let acquire_scratch (cp : compiled) : scratch =
  match Atomic.exchange cp.c_pool None with
  | Some sc ->
    reset_scratch sc;
    sc
  | None -> fresh_scratch cp

let release_scratch (cp : compiled) (sc : scratch) : unit =
  Atomic.set cp.c_pool (Some sc)

(* Replication copies run egress strictly sequentially, so they can
   share the parent's key buffers (fully rewritten before each probe). *)
let copy_scratch (sc : scratch) : scratch =
  {
    vals = Array.copy sc.vals;
    hvalid = Array.copy sc.hvalid;
    s_payload = sc.s_payload;
    s_dropped = sc.s_dropped;
    s_clones = [];
    s_egress_set = sc.s_egress_set;
    keybufs = sc.keybufs;
  }

let cparse (cp : compiled) (sc : scratch) (pkt : Packet.t) : bool =
  let pkt_bits = 8 * Packet.length pkt in
  let bit = ref 0 in
  let extract (h : chdr) =
    if !bit + h.ch_width > pkt_bits then false
    else begin
      Array.iter
        (fun (slot, w) ->
          sc.vals.(slot) <- Packet.get_bits pkt ~bit_offset:!bit ~width:w;
          bit := !bit + w)
        h.ch_fields;
      sc.hvalid.(h.ch_idx) <- true;
      true
    end
  in
  let rec run si fuel =
    if fuel <= 0 then error "parser loop in program %s" cp.c_pname
    else begin
      let s = cp.c_states.(si) in
      if not (Array.for_all extract s.cs_extracts) then false (* truncated *)
      else
        match s.cs_trans with
        | CAccept ->
          sc.s_payload <- Packet.drop_bytes pkt ((!bit + 7) / 8);
          true
        | CReject -> false
        | CSelect (slot, cases, dflt) ->
          let v = sc.vals.(slot) in
          let n = Array.length cases in
          let rec pick i =
            if i >= n then if dflt >= 0 then run dflt (fuel - 1) else false
            else
              let c, tgt = cases.(i) in
              if Int64.equal c v then run tgt (fuel - 1) else pick (i + 1)
          in
          pick 0
    end
  in
  run cp.c_start 64

let cdeparse (cp : compiled) (sc : scratch) : Packet.t =
  let width = ref 0 in
  Array.iter
    (fun h -> if sc.hvalid.(h.ch_idx) then width := !width + h.ch_width)
    cp.c_headers;
  let out = Packet.create ((!width + 7) / 8) in
  let bit = ref 0 in
  Array.iter
    (fun h ->
      if sc.hvalid.(h.ch_idx) then
        Array.iter
          (fun (slot, w) ->
            Packet.set_bits out ~bit_offset:!bit ~width:w sc.vals.(slot);
            bit := !bit + w)
          h.ch_fields)
    cp.c_headers;
  Packet.concat out sc.s_payload

(* Core of the fast path over an already-acquired scratch, so batch
   processing can amortise pool traffic across packets. *)
let process_fast_in (sw : t) (cp : compiled) (sc : scratch) ~(in_port : int)
    (pkt : Packet.t) : (int * Packet.t) list =
  sc.vals.(cp.c_ingress_port) <- Int64.of_int in_port;
  if not (cparse cp sc pkt) then [] (* parser reject *)
  else begin
      cp.c_ingress sc;
      let mcast = sc.vals.(cp.c_mcast) in
      if sc.s_dropped then []
      else if sc.s_egress_set && mcast = 0L && sc.s_clones = [] then begin
        (* the common case: exactly one unicast copy — run egress in
           place, no replication copy at all *)
        let port = sc.vals.(cp.c_egress_spec) in
        sc.vals.(cp.c_egress_port) <- port;
        cp.c_egress sc;
        if sc.s_dropped then [] else [ (Int64.to_int port, cdeparse cp sc) ]
      end
      else begin
        let copies = ref [] in
        if sc.s_egress_set && mcast = 0L then
          copies := [ (sc.vals.(cp.c_egress_spec), copy_scratch sc) ];
        if mcast <> 0L then begin
          let ports =
            Option.value ~default:[] (Hashtbl.find_opt sw.mcast_groups mcast)
          in
          List.iter
            (fun port ->
              (* do not reflect back to the ingress port *)
              if port <> Int64.of_int in_port then
                copies := (port, copy_scratch sc) :: !copies)
            ports
        end;
        List.iter
          (fun port ->
            let c = copy_scratch sc in
            c.vals.(cp.c_is_clone) <- 1L;
            copies := (port, c) :: !copies)
          sc.s_clones;
        List.filter_map
          (fun (port, c) ->
            c.vals.(cp.c_egress_port) <- port;
            c.s_dropped <- false;
            cp.c_egress c;
            if c.s_dropped then None else Some (Int64.to_int port, cdeparse cp c))
          (List.rev !copies)
      end
  end

let process_fast (sw : t) ~(in_port : int) (pkt : Packet.t) :
    (int * Packet.t) list =
  let cp = sw.compiled in
  let sc = acquire_scratch cp in
  let outputs = process_fast_in sw cp sc ~in_port pkt in
  release_scratch cp sc;
  outputs

(** Inject a packet on [in_port]; returns the (port, packet) copies the
    switch emits.  Digests emitted during processing are queued on the
    switch and retrieved with [take_digests]. *)
let process (sw : t) ~(in_port : int) (pkt : Packet.t) : (int * Packet.t) list =
  Atomic.incr sw.packets_in;
  Obs.Counter.incr m_packets_in;
  let outputs =
    if sw.use_compiled then process_fast sw ~in_port pkt
    else process_interp sw ~in_port pkt
  in
  ignore (Atomic.fetch_and_add sw.packets_out (List.length outputs));
  Obs.Counter.add m_packets_out (List.length outputs);
  outputs

(* ---------------- introspection ---------------- *)

type table_stats = { entries : int; hits : int; misses : int }

let stats sw tname =
  let ts = table_state sw tname in
  {
    entries = Hashtbl.length ts.entries;
    hits = Atomic.get ts.hits;
    misses = Atomic.get ts.misses;
  }
