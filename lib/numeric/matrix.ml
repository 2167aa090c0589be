type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows

let cols m = m.cols

let index m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix: index (%d,%d) out of bounds for %dx%d" i j
         m.rows m.cols);
  (i * m.cols) + j

let get m i j = m.data.(index m i j)

let set m i j v = m.data.(index m i j) <- v

let add_to m i j v =
  let k = index m i j in
  m.data.(k) <- m.data.(k) +. v

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let of_rows rows_list =
  match rows_list with
  | [] -> invalid_arg "Matrix.of_rows: empty"
  | first :: _ ->
      let cols = List.length first in
      if cols = 0 then invalid_arg "Matrix.of_rows: empty row";
      let rows = List.length rows_list in
      let m = create rows cols in
      List.iteri
        (fun i row ->
          if List.length row <> cols then
            invalid_arg "Matrix.of_rows: ragged rows";
          List.iteri (fun j v -> set m i j v) row)
        rows_list;
      m

let copy m = { m with data = Array.copy m.data }

let transpose m =
  let r = create m.cols m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set r j i (get m i j)
    done
  done;
  r

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let r = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          add_to r i j (aik *. get b k j)
        done
    done
  done;
  r

let mul_vec m x =
  if m.cols <> Array.length x then
    invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (get m i j *. x.(j))
      done;
      !acc)

let equal ?(eps = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data
