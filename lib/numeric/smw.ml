type sparse_vec = (int * float) array

type t = {
  k : int;
  v : sparse_vec array;
  z : float array array; (* z.(i) = A⁻¹ uᵢ, dense columns, read only *)
  cf : Lu.factors; (* LU of the k×k capacitance matrix I + VᵀZ *)
}

let dot_sparse (sv : sparse_vec) (dense : float array) =
  Array.fold_left (fun acc (i, x) -> acc +. (x *. dense.(i))) 0.0 sv

let response ~n ~solve (u : sparse_vec) =
  let d = Array.make n 0.0 in
  Array.iter (fun (i, x) -> d.(i) <- d.(i) +. x) u;
  solve d

let make ~z ~v =
  let k = Array.length z in
  if Array.length v <> k then invalid_arg "Smw.make: rank mismatch";
  let c = Matrix.identity k in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      Matrix.add_to c i j (dot_sparse v.(i) z.(j))
    done
  done;
  { k; v; z; cf = Lu.decompose c }

let rank t = t.k

let update t y =
  if t.k > 0 then begin
    let w = Array.init t.k (fun i -> dot_sparse t.v.(i) y) in
    let s = Lu.solve_factored t.cf w in
    for j = 0 to t.k - 1 do
      let sj = s.(j) in
      if sj <> 0.0 then begin
        let zj = t.z.(j) in
        for i = 0 to Array.length y - 1 do
          y.(i) <- y.(i) -. (zj.(i) *. sj)
        done
      end
    done
  end
