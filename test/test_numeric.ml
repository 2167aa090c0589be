(* Tests for the linear-algebra substrate. *)

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" what expected actual)
    true (approx ~eps expected actual)

(* ---------- Vector ---------- *)

let test_vector_basics () =
  let v = Numeric.Vector.of_list [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "dim" 3 (Numeric.Vector.dim v);
  check_float "dot" 14.0 (Numeric.Vector.dot v v);
  check_float "norm_inf" 3.0 (Numeric.Vector.norm_inf v);
  check_float "norm2" (sqrt 14.0) (Numeric.Vector.norm2 v);
  let w = Numeric.Vector.add v (Numeric.Vector.scale (-1.0) v) in
  check_float "add/scale" 0.0 (Numeric.Vector.norm_inf w)

let test_vector_mismatch () =
  let v = Numeric.Vector.of_list [ 1.0 ] in
  let w = Numeric.Vector.of_list [ 1.0; 2.0 ] in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vector.add: dimension mismatch (1 vs 2)") (fun () ->
      ignore (Numeric.Vector.add v w))

let test_max_abs_diff () =
  let v = Numeric.Vector.of_list [ 1.0; 5.0 ] in
  let w = Numeric.Vector.of_list [ 2.0; 3.0 ] in
  check_float "max_abs_diff" 2.0 (Numeric.Vector.max_abs_diff v w)

(* ---------- Matrix ---------- *)

let test_matrix_basics () =
  let m = Numeric.Matrix.of_rows [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  Alcotest.(check int) "rows" 2 (Numeric.Matrix.rows m);
  Alcotest.(check int) "cols" 2 (Numeric.Matrix.cols m);
  check_float "get" 3.0 (Numeric.Matrix.get m 1 0);
  Numeric.Matrix.add_to m 1 0 1.0;
  check_float "add_to" 4.0 (Numeric.Matrix.get m 1 0)

let test_matrix_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows")
    (fun () -> ignore (Numeric.Matrix.of_rows [ [ 1.0 ]; [ 1.0; 2.0 ] ]))

let test_matrix_mul () =
  let a = Numeric.Matrix.of_rows [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let i = Numeric.Matrix.identity 2 in
  Alcotest.(check bool) "a * I = a" true (Numeric.Matrix.equal (Numeric.Matrix.mul a i) a);
  let b = Numeric.Matrix.of_rows [ [ 5.0; 6.0 ]; [ 7.0; 8.0 ] ] in
  let ab = Numeric.Matrix.mul a b in
  check_float "(ab)00" 19.0 (Numeric.Matrix.get ab 0 0);
  check_float "(ab)11" 50.0 (Numeric.Matrix.get ab 1 1)

let test_transpose_involution () =
  let a = Numeric.Matrix.of_rows [ [ 1.0; 2.0; 3.0 ]; [ 4.0; 5.0; 6.0 ] ] in
  let att = Numeric.Matrix.transpose (Numeric.Matrix.transpose a) in
  Alcotest.(check bool) "transpose twice" true (Numeric.Matrix.equal a att)

let test_mul_vec () =
  let a = Numeric.Matrix.of_rows [ [ 2.0; 0.0 ]; [ 0.0; 3.0 ] ] in
  let y = Numeric.Matrix.mul_vec a [| 1.0; 1.0 |] in
  check_float "y0" 2.0 y.(0);
  check_float "y1" 3.0 y.(1)

(* ---------- LU ---------- *)

let test_lu_solve_known () =
  (* 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3 *)
  let a = Numeric.Matrix.of_rows [ [ 2.0; 1.0 ]; [ 1.0; 3.0 ] ] in
  let x = Numeric.Lu.solve a [| 5.0; 10.0 |] in
  check_float "x" 1.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_lu_needs_pivoting () =
  (* Zero on the initial diagonal forces a row swap. *)
  let a = Numeric.Matrix.of_rows [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ] in
  let x = Numeric.Lu.solve a [| 2.0; 3.0 |] in
  check_float "x" 3.0 x.(0);
  check_float "y" 2.0 x.(1)

let test_lu_singular () =
  let a = Numeric.Matrix.of_rows [ [ 1.0; 2.0 ]; [ 2.0; 4.0 ] ] in
  (match Numeric.Lu.decompose a with
  | exception Numeric.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular");
  check_float "det singular" 0.0 (Numeric.Lu.det a)

let test_det () =
  let a = Numeric.Matrix.of_rows [ [ 3.0; 1.0 ]; [ 4.0; 2.0 ] ] in
  check_float "det" 2.0 (Numeric.Lu.det a);
  (* Permutation parity: swapping rows negates the determinant. *)
  let b = Numeric.Matrix.of_rows [ [ 4.0; 2.0 ]; [ 3.0; 1.0 ] ] in
  check_float "det swapped" (-2.0) (Numeric.Lu.det b)

let test_inverse () =
  let a = Numeric.Matrix.of_rows [ [ 4.0; 7.0 ]; [ 2.0; 6.0 ] ] in
  let inv = Numeric.Lu.inverse a in
  let prod = Numeric.Matrix.mul a inv in
  Alcotest.(check bool) "a * a^-1 = I" true
    (Numeric.Matrix.equal ~eps:1e-9 prod (Numeric.Matrix.identity 2))

let test_not_square () =
  let a = Numeric.Matrix.create 2 3 in
  Alcotest.check_raises "not square" (Invalid_argument "Lu.decompose: not square")
    (fun () -> ignore (Numeric.Lu.decompose a))

(* Property: LU solves diagonally dominant random systems to high accuracy. *)
let prop_lu_random =
  QCheck.Test.make ~name:"lu solves diagonally dominant systems" ~count:100
    QCheck.(pair (int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand =
        let state = ref (seed + 1) in
        fun () ->
          state := (!state * 1103515245) + 12345;
          float_of_int (abs !state mod 2000 - 1000) /. 100.0
      in
      let a = Numeric.Matrix.create n n in
      for i = 0 to n - 1 do
        let mutable_sum = ref 0.0 in
        for j = 0 to n - 1 do
          if i <> j then begin
            let v = rand () in
            Numeric.Matrix.set a i j v;
            mutable_sum := !mutable_sum +. Float.abs v
          end
        done;
        Numeric.Matrix.set a i i (!mutable_sum +. 1.0 +. Float.abs (rand ()))
      done;
      let x_true = Array.init n (fun _ -> rand ()) in
      let b = Numeric.Matrix.mul_vec a x_true in
      let x = Numeric.Lu.solve a b in
      Numeric.Vector.max_abs_diff x x_true < 1e-6)

(* ---------- Sparse ---------- *)

(* Deterministic pseudo-random stream, as in prop_lu_random. *)
let make_rand seed =
  let state = ref (seed + 1) in
  fun () ->
    state := (!state * 1103515245) + 12345;
    float_of_int ((abs !state mod 2000) - 1000) /. 100.0

(* A random diagonally dominant sparse system with ~4 off-diagonals per
   row, returned as both triplets and the equivalent dense matrix. *)
let random_sparse_system n rand =
  let t = Numeric.Sparse.create n in
  let dense = Numeric.Matrix.create n n in
  for i = 0 to n - 1 do
    let row_sum = ref 0.0 in
    let offdiag = 1 + (abs (int_of_float (rand () *. 100.0)) mod 4) in
    for _ = 1 to offdiag do
      let j = abs (int_of_float (rand () *. 1000.0)) mod n in
      if j <> i then begin
        let v = rand () in
        Numeric.Sparse.add_to t i j v;
        Numeric.Matrix.add_to dense i j v;
        row_sum := !row_sum +. Float.abs v
      end
    done;
    let d = !row_sum +. 1.0 +. Float.abs (rand ()) in
    Numeric.Sparse.add_to t i i d;
    Numeric.Matrix.add_to dense i i d
  done;
  (Numeric.Sparse.compress t, dense)

let test_sparse_assembly () =
  let t = Numeric.Sparse.create 3 in
  Numeric.Sparse.add_to t 0 0 1.0;
  Numeric.Sparse.add_to t 0 0 2.0;
  (* duplicate sums *)
  Numeric.Sparse.add_to t 2 1 (-4.0);
  Numeric.Sparse.add_to t 1 2 0.0;
  (* explicit zero kept in pattern *)
  let a = Numeric.Sparse.compress t in
  Alcotest.(check int) "nnz" 3 (Numeric.Sparse.nnz a);
  check_float "summed" 3.0 (Numeric.Sparse.get a 0 0);
  check_float "entry" (-4.0) (Numeric.Sparse.get a 2 1);
  check_float "absent" 0.0 (Numeric.Sparse.get a 2 0);
  Alcotest.(check bool) "zero slot present" true
    (Numeric.Sparse.index a 1 2 <> None);
  Alcotest.(check bool) "absent slot" true (Numeric.Sparse.index a 2 0 = None);
  (match Numeric.Sparse.index a 1 2 with
  | Some p ->
      Numeric.Sparse.set_value a p 7.0;
      check_float "set_value" 7.0 (Numeric.Sparse.get a 1 2)
  | None -> Alcotest.fail "expected slot");
  let y = Numeric.Sparse.mul_vec a [| 1.0; 1.0; 1.0 |] in
  check_float "mul_vec row0" 3.0 y.(0);
  check_float "mul_vec row1" 7.0 y.(1)

let test_sparse_solve_known () =
  (* Same 2x2 as the dense test, plus a pivoting case. *)
  let t = Numeric.Sparse.create 2 in
  Numeric.Sparse.add_to t 0 0 2.0;
  Numeric.Sparse.add_to t 0 1 1.0;
  Numeric.Sparse.add_to t 1 0 1.0;
  Numeric.Sparse.add_to t 1 1 3.0;
  let x = Numeric.Sparse.solve (Numeric.Sparse.compress t) [| 5.0; 10.0 |] in
  check_float "x" 1.0 x.(0);
  check_float "y" 3.0 x.(1);
  let t = Numeric.Sparse.create 2 in
  Numeric.Sparse.add_to t 0 1 1.0;
  Numeric.Sparse.add_to t 1 0 1.0;
  let x = Numeric.Sparse.solve (Numeric.Sparse.compress t) [| 2.0; 3.0 |] in
  check_float "pivoted x" 3.0 x.(0);
  check_float "pivoted y" 2.0 x.(1)

let test_sparse_singular () =
  let t = Numeric.Sparse.create 2 in
  Numeric.Sparse.add_to t 0 0 1.0;
  Numeric.Sparse.add_to t 0 1 2.0;
  Numeric.Sparse.add_to t 1 0 2.0;
  Numeric.Sparse.add_to t 1 1 4.0;
  (match Numeric.Sparse.solve (Numeric.Sparse.compress t) [| 1.0; 1.0 |] with
  | exception Numeric.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular");
  (* An empty column is reported by its original index, whichever step
     of the column ordering reaches it. *)
  let t = Numeric.Sparse.create 3 in
  Numeric.Sparse.add_to t 0 0 1.0;
  Numeric.Sparse.add_to t 1 0 1.0;
  Numeric.Sparse.add_to t 2 2 1.0;
  let a = Numeric.Sparse.compress t in
  List.iter
    (fun order ->
      match Numeric.Sparse.decompose ~order a with
      | exception Numeric.Lu.Singular k ->
          Alcotest.(check int) "empty column named" 1 k
      | _ -> Alcotest.fail "expected Singular")
    [ [| 0; 1; 2 |]; [| 2; 1; 0 |]; [| 1; 0; 2 |] ]

let test_sparse_factor_reuse () =
  let rand = make_rand 7 in
  let a, _ = random_sparse_system 40 rand in
  let order = Numeric.Sparse.min_degree_order a in
  let f = Numeric.Sparse.decompose ~order a in
  Alcotest.(check int) "order round-trip" (Array.length order)
    (Array.length (Numeric.Sparse.factor_order f));
  (* Two right-hand sides against one factorisation. *)
  let b1 = Array.init 40 (fun i -> float_of_int i) in
  let b2 = Array.init 40 (fun i -> float_of_int (40 - i)) in
  let x1 = Numeric.Sparse.solve_factored f b1 in
  let x2 = Numeric.Sparse.solve_factored f b2 in
  check_float ~eps:1e-8 "residual b1" 0.0
    (Numeric.Vector.max_abs_diff (Numeric.Sparse.mul_vec a x1) b1);
  check_float ~eps:1e-8 "residual b2" 0.0
    (Numeric.Vector.max_abs_diff (Numeric.Sparse.mul_vec a x2) b2)

(* Property: sparse solve ≡ dense solve on the same system. *)
let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse solve matches dense solve" ~count:80
    QCheck.(pair (int_range 1 60) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand = make_rand seed in
      let a, dense = random_sparse_system n rand in
      let b = Array.init n (fun _ -> rand ()) in
      let xs = Numeric.Sparse.solve a (Array.copy b) in
      let xd = Numeric.Lu.solve dense (Array.copy b) in
      Numeric.Vector.max_abs_diff xs xd < 1e-9)

(* ---------- SMW ---------- *)

(* Property: the SMW re-solve against A's factors equals a full
   refactorise of A + U·Vᵀ. *)
let prop_smw_matches_refactorise =
  QCheck.Test.make ~name:"smw re-solve matches full refactorise" ~count:80
    QCheck.(triple (int_range 2 30) (int_range 0 2) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let rand = make_rand seed in
      let _, dense = random_sparse_system n rand in
      let f = Numeric.Lu.decompose dense in
      let spvec () =
        let len = 1 + (abs (int_of_float (rand () *. 10.0)) mod 2) in
        Array.init len (fun _ ->
            (abs (int_of_float (rand () *. 1000.0)) mod n, rand () /. 10.0))
      in
      let u = Array.init k (fun _ -> spvec ()) in
      let v = Array.init k (fun _ -> spvec ()) in
      let updated = Numeric.Matrix.copy dense in
      Array.iteri
        (fun idx ui ->
          Array.iter
            (fun (i, uv) ->
              Array.iter
                (fun (j, vv) -> Numeric.Matrix.add_to updated i j (uv *. vv))
                v.(idx))
            ui)
        u;
      let b = Array.init n (fun _ -> rand ()) in
      match Numeric.Lu.solve updated (Array.copy b) with
      | exception Numeric.Lu.Singular _ -> QCheck.assume_fail ()
      | x_full -> (
          match
            Numeric.Smw.prepare ~n
              ~solve:(Numeric.Lu.solve_factored f)
              ~u ~v
          with
          | exception Numeric.Lu.Singular _ -> QCheck.assume_fail ()
          | smw ->
              let x_smw = Numeric.Smw.solve smw (Array.copy b) in
              Numeric.Vector.max_abs_diff x_smw x_full < 1e-9))

let test_smw_rank1_known () =
  (* A = I (2x2), u = e0, v = e1: A' = [[1;1];[0;1]], b = [3;2] -> x = [1;2]. *)
  let a = Numeric.Matrix.identity 2 in
  let f = Numeric.Lu.decompose a in
  let smw =
    Numeric.Smw.prepare ~n:2
      ~solve:(Numeric.Lu.solve_factored f)
      ~u:[| [| (0, 1.0) |] |]
      ~v:[| [| (1, 1.0) |] |]
  in
  Alcotest.(check int) "rank" 1 (Numeric.Smw.rank smw);
  let x = Numeric.Smw.solve smw [| 3.0; 2.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 2.0 x.(1);
  let upd = Numeric.Smw.apply_update smw [| 0.0; 5.0 |] in
  check_float "update e0" 5.0 upd.(0);
  check_float "update e1" 0.0 upd.(1)

let test_smw_singular_update () =
  (* A = I, u = v = -e0: A' zeroes row/col 0 -> singular capacitance. *)
  let f = Numeric.Lu.decompose (Numeric.Matrix.identity 2) in
  match
    Numeric.Smw.prepare ~n:2
      ~solve:(Numeric.Lu.solve_factored f)
      ~u:[| [| (0, -1.0) |] |]
      ~v:[| [| (0, 1.0) |] |]
  with
  | exception Numeric.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let suite =
  [
    Alcotest.test_case "vector basics" `Quick test_vector_basics;
    Alcotest.test_case "vector mismatch" `Quick test_vector_mismatch;
    Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
    Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
    Alcotest.test_case "matrix ragged" `Quick test_matrix_ragged;
    Alcotest.test_case "matrix mul" `Quick test_matrix_mul;
    Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
    Alcotest.test_case "mul_vec" `Quick test_mul_vec;
    Alcotest.test_case "lu solve known" `Quick test_lu_solve_known;
    Alcotest.test_case "lu pivoting" `Quick test_lu_needs_pivoting;
    Alcotest.test_case "lu singular" `Quick test_lu_singular;
    Alcotest.test_case "determinant" `Quick test_det;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "not square" `Quick test_not_square;
    Alcotest.test_case "sparse assembly" `Quick test_sparse_assembly;
    Alcotest.test_case "sparse solve known" `Quick test_sparse_solve_known;
    Alcotest.test_case "sparse singular" `Quick test_sparse_singular;
    Alcotest.test_case "sparse factor reuse" `Quick test_sparse_factor_reuse;
    Alcotest.test_case "smw rank-1 known" `Quick test_smw_rank1_known;
    Alcotest.test_case "smw singular update" `Quick test_smw_singular_update;
    QCheck_alcotest.to_alcotest prop_lu_random;
    QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
    QCheck_alcotest.to_alcotest prop_smw_matches_refactorise;
  ]
