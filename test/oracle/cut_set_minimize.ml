let normalize set = List.sort_uniq String.compare set

(* Subset test over {!normalize}d (sorted, duplicate-free) sets: a
   single merge pass instead of the [List.mem]-per-element quadratic
   scan, bailing out as soon as the remaining suffix of [a] cannot fit
   in what is left of [b].  Every set reaching {!minimize} has been
   normalized, so the ordering precondition holds. *)
let rec subset_sorted la a lb b =
  if la > lb then false
  else
    match (a, b) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: a', y :: b' ->
        let c = String.compare x y in
        if c = 0 then subset_sorted (la - 1) a' (lb - 1) b'
        else if c > 0 then subset_sorted la a (lb - 1) b'
        else false

(* Keep only sets with no proper (or equal, earlier) subset present.
   Lengths are computed once per set, so each pairwise check is a merge
   bounded by the shorter set instead of O(|k| * |s|) membership scans. *)
let minimize sets =
  let sorted =
    List.sort (fun a b -> Int.compare (List.length a) (List.length b)) sets
  in
  let kept =
    List.fold_left
      (fun kept s ->
        let ls = List.length s in
        if List.exists (fun (lk, k) -> subset_sorted lk k ls s) kept then kept
        else (ls, s) :: kept)
      [] sorted
  in
  List.rev_map snd kept
