let text ?max_cardinality ~route tree =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "%s\n" (Format.asprintf "%a" Fault_tree.pp_ascii tree);
  (match route with
  | `Structural -> ()
  | `Paths ->
      bpf "note: cyclic connection structure — lowered by path enumeration\n");
  (* The cut sets and the probabilities come from two compilations, so
     the ZBDD tables behind the sets are garbage before the importances
     run: peak memory stays that of one compilation. *)
  let all_sets = Cut_sets.minimal tree in
  let sets =
    match max_cardinality with
    | None -> all_sets
    | Some k -> List.filter (fun s -> List.length s <= k) all_sets
  in
  bpf "minimal cut sets (%d%s):\n" (List.length sets)
    (match max_cardinality with
    | None -> ""
    | Some k ->
        Printf.sprintf " of %d, cardinality <= %d" (List.length all_sets) k);
  List.iter (fun s -> bpf "  {%s}\n" (String.concat ", " s)) sets;
  let bdd = Bdd.build tree in
  let probs = Quant.event_probabilities tree in
  let p = Quant.lookup probs in
  bpf "top event (BDD-exact, 10,000 h): %.3e\n" (Bdd.probability bdd p);
  bpf "top event (rare-event bound):    %.3e\n"
    (Quant.rare_event_bound all_sets probs);
  let birnbaum, fussell_vesely = Bdd.importances bdd p in
  let top5 xs = List.filteri (fun i _ -> i < 5) xs in
  List.iter
    (fun (e, v) -> bpf "  birnbaum       %-28s %.3e\n" e v)
    (top5 birnbaum);
  List.iter
    (fun (e, v) -> bpf "  fussell-vesely %-28s %.3e\n" e v)
    (top5 fussell_vesely);
  Buffer.contents buf
