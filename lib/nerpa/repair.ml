let diff (type a) ~(hash : a -> int) ~(equal : a -> a -> bool) ~(have : a list)
    ~(want : a list) : a list * a list =
  let module H = Hashtbl.Make (struct
    type t = a

    let equal = equal
    let hash = hash
  end) in
  let absent_from l =
    let tbl = H.create (List.length l) in
    List.iter (fun x -> H.replace tbl x ()) l;
    fun x -> not (H.mem tbl x)
  in
  (List.filter (absent_from want) have, List.filter (absent_from have) want)

exception Read_fail of string

let read_switch (link : Links.p4_link) (info : P4.P4info.t) =
  let reqs =
    List.map
      (fun (ti : P4.P4info.table_info) -> P4runtime.Wire.Read_table ti.table_id)
      info.tables
    @ [ P4runtime.Wire.Read_groups ]
  in
  let response = function
    | Ok (P4runtime.Wire.Error_reply msg) -> raise (Read_fail msg)
    | Ok resp -> resp
    | Error e -> raise (Read_fail (Transport.error_message e))
  in
  try
    match List.rev_map response (Transport.send_many link reqs) with
    | P4runtime.Wire.Groups gs :: tables_rev ->
      let entries =
        List.concat_map
          (function
            | P4runtime.Wire.Table es -> es
            | _ -> raise (Read_fail "protocol mismatch on read_table"))
          (List.rev tables_rev)
      in
      Ok (entries, List.map (fun (g, ps) -> (g, List.sort Int64.compare ps)) gs)
    | _ -> Error "protocol mismatch on read_groups"
  with Read_fail msg -> Error msg
