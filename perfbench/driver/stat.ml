(* Order statistics used by every workload. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth s (Int.max 0 (Int.min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

(* Samples strictly above the p-th percentile, printed with every run so
   that a p90's support (ten or more samples beyond it) can be checked. *)
let beyond p xs =
  let v = percentile p xs in
  List.length (List.filter (fun x -> x > v) xs)

let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)
