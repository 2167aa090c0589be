open Fta

(* All k-subsets of a list, in list order. *)
let rec choose k items =
  if k = 0 then [ [] ]
  else
    match items with
    | [] -> []
    | x :: rest ->
        List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

let minimal ?(max_sets = 100_000) tree =
  let check n =
    if n > max_sets then
      invalid_arg
        (Printf.sprintf "Mocus.minimal: intermediate size %d exceeds %d" n
           max_sets)
  in
  (* Bottom-up: each node yields its list of cut sets (a DNF). *)
  let rec go node : Cut_sets.cut_set list =
    match node with
    | Fault_tree.Basic e -> [ [ e.Fault_tree.event_id ] ]
    | Fault_tree.Or (_, cs) ->
        let union = List.concat_map go cs in
        check (List.length union);
        Cut_set_minimize.minimize (List.map Cut_set_minimize.normalize union)
    | Fault_tree.And (_, cs) ->
        let parts = List.map go cs in
        (* Minimise after every factor: repeated events across factors
           collapse early, which keeps the product from exploding on
           deep series-parallel structures. *)
        let product =
          List.fold_left
            (fun acc part ->
              let combined =
                List.concat_map
                  (fun a ->
                    List.map (fun b -> Cut_set_minimize.normalize (a @ b)) part)
                  acc
              in
              check (List.length combined);
              Cut_set_minimize.minimize combined)
            [ [] ] parts
        in
        Cut_set_minimize.minimize product
    | Fault_tree.Koon (id, k, cs) ->
        go
          (Fault_tree.Or
             ( id ^ ":expanded",
               List.mapi
                 (fun i subset ->
                   Fault_tree.And (Printf.sprintf "%s:%d" id i, subset))
                 (choose k cs) ))
  in
  List.sort
    (fun a b ->
      match Int.compare (List.length a) (List.length b) with
      | 0 -> List.compare String.compare a b
      | n -> n)
    (go tree)
