type cut_set = string list

type engine = [ `Auto | `Bdd ]

let minimal ?(engine = `Auto) tree =
  match (engine : engine) with
  | `Auto | `Bdd -> Bdd.minimal_cut_sets (Bdd.build tree)

let singletons sets =
  List.filter_map (function [ e ] -> Some e | _ -> None) sets

let order_histogram sets =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let n = List.length s in
      Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    sets;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
