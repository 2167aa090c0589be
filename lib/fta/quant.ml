type probabilities = (string * float) list

let event_probabilities ?(mission_hours = 10_000.0) tree =
  List.map
    (fun (e : Fault_tree.event) ->
      let p =
        match e.Fault_tree.rate_fit with
        | Some fit -> Reliability.Fit.failure_probability fit ~mission_hours
        | None -> 0.0
      in
      (e.Fault_tree.event_id, p))
    (Fault_tree.basic_events tree)

(* Hashed once per call: the bounds look up every member of every cut
   set, tens of thousands of lookups on wide trees.  The first binding of
   an id wins, as with [List.assoc]. *)
let lookup probabilities =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (id, p) -> if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id p)
    probabilities;
  fun id -> Option.value ~default:0.0 (Hashtbl.find_opt tbl id)

(* BDD-exact quantification: one Shannon-expansion pass.  Shared events
   collapse on the canonical BDD, so repetition is handled exactly. *)
let top_probability_exact tree probabilities =
  Bdd.probability (Bdd.build tree) (lookup probabilities)

let birnbaum tree probabilities =
  Bdd.birnbaum (Bdd.build tree) (lookup probabilities)

let fussell_vesely tree probabilities =
  Bdd.fussell_vesely (Bdd.build tree) (lookup probabilities)

let cut_set_probability prob set =
  List.fold_left (fun acc id -> acc *. prob id) 1.0 set

let rare_event_sum prob sets =
  List.fold_left (fun acc s -> acc +. cut_set_probability prob s) 0.0 sets

let rare_event_bound sets probabilities =
  rare_event_sum (lookup probabilities) sets

let esary_proschan sets probabilities =
  let prob = lookup probabilities in
  1.0
  -. List.fold_left
       (fun acc s -> acc *. (1.0 -. cut_set_probability prob s))
       1.0 sets

let importance sets probabilities =
  let prob = lookup probabilities in
  let total = rare_event_sum prob sets in
  if total <= 0.0 then []
  else
    let events =
      List.sort_uniq String.compare (List.concat sets)
    in
    List.map
      (fun id ->
        let contribution =
          List.fold_left
            (fun acc s ->
              if List.mem id s then acc +. cut_set_probability prob s
              else acc)
            0.0 sets
        in
        (id, contribution /. total))
      events
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
