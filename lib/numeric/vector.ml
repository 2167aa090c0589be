type t = float array

let create n = Array.make n 0.0

let of_list = Array.of_list

let dim = Array.length

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vector.%s: dimension mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let add x y =
  check_dims "add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let scale k x = Array.map (fun xi -> k *. xi) x

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0.0 x

let norm2 x = sqrt (dot x x)

let max_abs_diff x y =
  check_dims "max_abs_diff" x y;
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m
