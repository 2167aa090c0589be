open Fta

let top_probability tree probabilities =
  let prob id = Option.value ~default:0.0 (List.assoc_opt id probabilities) in
  let rec go = function
    | Fault_tree.Basic e -> prob e.Fault_tree.event_id
    | Fault_tree.And (_, cs) -> List.fold_left (fun acc c -> acc *. go c) 1.0 cs
    | Fault_tree.Or (_, cs) ->
        1.0 -. List.fold_left (fun acc c -> acc *. (1.0 -. go c)) 1.0 cs
    | Fault_tree.Koon (_, k, cs) ->
        (* P(at least k children fail), over every outcome combination *)
        let rec at_least ps needed =
          match ps with
          | [] -> if needed <= 0 then 1.0 else 0.0
          | p :: rest ->
              (p *. at_least rest (needed - 1))
              +. ((1.0 -. p) *. at_least rest needed)
        in
        at_least (List.map go cs) k
  in
  go tree
