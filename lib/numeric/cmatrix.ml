type t = { rows : int; cols : int; data : Complex.t array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmatrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) Complex.zero }

let index m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Cmatrix: index (%d,%d) out of bounds for %dx%d" i j
         m.rows m.cols);
  (i * m.cols) + j

let get m i j = m.data.(index m i j)

let set m i j v = m.data.(index m i j) <- v

let add_to m i j v =
  let k = index m i j in
  m.data.(k) <- Complex.add m.data.(k) v

let copy m = { m with data = Array.copy m.data }

exception Singular of int

let pivot_threshold = 1e-13

let solve a b =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Cmatrix.solve: not square";
  if Array.length b <> n then invalid_arg "Cmatrix.solve: dimension mismatch";
  (* Work on copies. *)
  let m = { a with data = Array.copy a.data } in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    (* Partial pivot by modulus. *)
    let pivot_row = ref k in
    let pivot_mag = ref (Complex.norm (get m k k)) in
    for i = k + 1 to n - 1 do
      let mag = Complex.norm (get m i k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag < pivot_threshold then raise (Singular k);
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let tmp = get m k j in
        set m k j (get m !pivot_row j);
        set m !pivot_row j tmp
      done;
      let tmp = x.(k) in
      x.(k) <- x.(!pivot_row);
      x.(!pivot_row) <- tmp
    end;
    let pivot = get m k k in
    for i = k + 1 to n - 1 do
      let factor = Complex.div (get m i k) pivot in
      if factor <> Complex.zero then begin
        for j = k to n - 1 do
          set m i j (Complex.sub (get m i j) (Complex.mul factor (get m k j)))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul factor x.(k))
      end
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- Complex.sub x.(i) (Complex.mul (get m i j) x.(j))
    done;
    x.(i) <- Complex.div x.(i) (get m i i)
  done;
  x
