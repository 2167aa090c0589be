(* Sparse CSR assembly and a left-looking (Gilbert–Peierls) sparse LU
   with partial pivoting.  The structure follows CSparse: per column, a
   reach (DFS over the L graph) finds the nonzero pattern of the sparse
   triangular solve, the numeric update runs in topological order, and
   the pivot is the largest-magnitude candidate not yet pivotal. *)

(* ---------- triplet accumulation ---------- *)

type triplets = {
  tn : int;
  mutable ti : int array;
  mutable tj : int array;
  mutable tv : float array;
  mutable tlen : int;
}

let create n =
  if n < 0 then invalid_arg "Sparse.create: negative dimension";
  {
    tn = n;
    ti = Array.make 16 0;
    tj = Array.make 16 0;
    tv = Array.make 16 0.0;
    tlen = 0;
  }

let add_to t i j v =
  if i < 0 || i >= t.tn || j < 0 || j >= t.tn then
    invalid_arg
      (Printf.sprintf "Sparse.add_to: (%d,%d) out of bounds for %dx%d" i j t.tn
         t.tn);
  let cap = Array.length t.ti in
  if t.tlen = cap then begin
    let ncap = max 16 (2 * cap) in
    let gi = Array.make ncap 0
    and gj = Array.make ncap 0
    and gv = Array.make ncap 0.0 in
    Array.blit t.ti 0 gi 0 t.tlen;
    Array.blit t.tj 0 gj 0 t.tlen;
    Array.blit t.tv 0 gv 0 t.tlen;
    t.ti <- gi;
    t.tj <- gj;
    t.tv <- gv
  end;
  t.ti.(t.tlen) <- i;
  t.tj.(t.tlen) <- j;
  t.tv.(t.tlen) <- v;
  t.tlen <- t.tlen + 1

(* ---------- CSR ---------- *)

type t = {
  sn : int;
  row_ptr : int array; (* length sn + 1 *)
  cols : int array; (* sorted within each row *)
  vals : float array;
}

let nnz a = a.row_ptr.(a.sn)

let compress t =
  let nn = t.tn in
  (* Bucket the triplets by row. *)
  let count = Array.make (nn + 1) 0 in
  for p = 0 to t.tlen - 1 do
    count.(t.ti.(p)) <- count.(t.ti.(p)) + 1
  done;
  let start = Array.make (nn + 1) 0 in
  for i = 0 to nn - 1 do
    start.(i + 1) <- start.(i) + count.(i)
  done;
  let fill = Array.copy start in
  let bc = Array.make t.tlen 0 and bv = Array.make t.tlen 0.0 in
  for p = 0 to t.tlen - 1 do
    let i = t.ti.(p) in
    bc.(fill.(i)) <- t.tj.(p);
    bv.(fill.(i)) <- t.tv.(p);
    fill.(i) <- fill.(i) + 1
  done;
  (* Sort each row by column and sum duplicates. *)
  let out_cols = ref (Array.make (max 16 t.tlen) 0) in
  let out_vals = ref (Array.make (max 16 t.tlen) 0.0) in
  let out_len = ref 0 in
  let push c v =
    !out_cols.(!out_len) <- c;
    !out_vals.(!out_len) <- v;
    incr out_len
  in
  let row_ptr = Array.make (nn + 1) 0 in
  for i = 0 to nn - 1 do
    let lo = start.(i) and hi = start.(i + 1) in
    let len = hi - lo in
    if len > 0 then begin
      let idx = Array.init len (fun k -> lo + k) in
      Array.sort (fun a b -> compare bc.(a) bc.(b)) idx;
      let k = ref 0 in
      while !k < len do
        let c = bc.(idx.(!k)) in
        let v = ref 0.0 in
        while !k < len && bc.(idx.(!k)) = c do
          v := !v +. bv.(idx.(!k));
          incr k
        done;
        push c !v
      done
    end;
    row_ptr.(i + 1) <- !out_len
  done;
  {
    sn = nn;
    row_ptr;
    cols = Array.sub !out_cols 0 !out_len;
    vals = Array.sub !out_vals 0 !out_len;
  }

let index a i j =
  if i < 0 || i >= a.sn || j < 0 || j >= a.sn then None
  else begin
    let lo = ref a.row_ptr.(i) and hi = ref (a.row_ptr.(i + 1) - 1) in
    let found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = a.cols.(mid) in
      if c = j then found := Some mid
      else if c < j then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let get a i j = match index a i j with Some p -> a.vals.(p) | None -> 0.0
let set_value a p v = a.vals.(p) <- v
let add_to_value a p v = a.vals.(p) <- a.vals.(p) +. v
let copy a = { a with vals = Array.copy a.vals }

let iter f a =
  for i = 0 to a.sn - 1 do
    for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      f i a.cols.(p) a.vals.(p)
    done
  done

let mul_vec a x =
  if Array.length x <> a.sn then invalid_arg "Sparse.mul_vec: dimension";
  Array.init a.sn (fun i ->
      let acc = ref 0.0 in
      for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
        acc := !acc +. (a.vals.(p) *. x.(a.cols.(p)))
      done;
      !acc)

(* ---------- minimum-degree ordering ---------- *)

(* Exact minimum degree on the pattern of A + Aᵀ, with an elimination
   graph of hash-set adjacency lists and a lazy-deletion binary heap.
   The clique formed by each elimination keeps fill in the factorisation
   close to what the graph structure forces. *)

let min_degree_order a =
  let nn = a.sn in
  let adj = Array.init nn (fun _ -> Hashtbl.create 8) in
  for i = 0 to nn - 1 do
    for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let j = a.cols.(p) in
      if i <> j then begin
        Hashtbl.replace adj.(i) j ();
        Hashtbl.replace adj.(j) i ()
      end
    done
  done;
  (* Binary min-heap of (degree, node) with lazy deletion. *)
  let heap = ref (Array.make (max 16 (2 * nn)) (0, 0)) in
  let heap_len = ref 0 in
  let swap i j =
    let tmp = !heap.(i) in
    !heap.(i) <- !heap.(j);
    !heap.(j) <- tmp
  in
  let push d v =
    if !heap_len = Array.length !heap then begin
      let bigger = Array.make (2 * !heap_len) (0, 0) in
      Array.blit !heap 0 bigger 0 !heap_len;
      heap := bigger
    end;
    !heap.(!heap_len) <- (d, v);
    incr heap_len;
    let i = ref (!heap_len - 1) in
    while !i > 0 && fst !heap.((!i - 1) / 2) > fst !heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = !heap.(0) in
    decr heap_len;
    !heap.(0) <- !heap.(!heap_len);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < !heap_len && fst !heap.(l) < fst !heap.(!smallest) then
        smallest := l;
      if r < !heap_len && fst !heap.(r) < fst !heap.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        swap !i !smallest;
        i := !smallest
      end
      else continue_ := false
    done;
    top
  in
  let alive = Array.make nn true in
  for v = 0 to nn - 1 do
    push (Hashtbl.length adj.(v)) v
  done;
  let order = Array.make nn 0 in
  let k = ref 0 in
  while !k < nn do
    let d, v = pop () in
    if alive.(v) && d = Hashtbl.length adj.(v) then begin
      order.(!k) <- v;
      incr k;
      alive.(v) <- false;
      let nbrs = Hashtbl.fold (fun u () acc -> u :: acc) adj.(v) [] in
      List.iter (fun u -> Hashtbl.remove adj.(u) v) nbrs;
      let rec clique = function
        | [] -> ()
        | u :: rest ->
            List.iter
              (fun w ->
                if not (Hashtbl.mem adj.(u) w) then begin
                  Hashtbl.replace adj.(u) w ();
                  Hashtbl.replace adj.(w) u ()
                end)
              rest;
            clique rest
      in
      clique nbrs;
      List.iter (fun u -> push (Hashtbl.length adj.(u)) u) nbrs
    end
  done;
  order

(* ---------- sparse LU ---------- *)

type factors = {
  fn : int;
  lp : int array;
  li : int array;
  lx : float array;
  up : int array;
  ui : int array;
  ux : float array;
  frowp : int array; (* permuted position -> original row *)
  fq : int array; (* column order *)
}

let factor_order f = Array.copy f.fq

let pivot_threshold = 1e-13

(* Growable parallel (int, float) arrays for the L/U columns. *)
type dyn = { mutable di : int array; mutable dx : float array; mutable dlen : int }

let dyn_make cap = { di = Array.make cap 0; dx = Array.make cap 0.0; dlen = 0 }

let dyn_push d i x =
  if d.dlen = Array.length d.di then begin
    let ncap = 2 * d.dlen in
    let gi = Array.make ncap 0 and gx = Array.make ncap 0.0 in
    Array.blit d.di 0 gi 0 d.dlen;
    Array.blit d.dx 0 gx 0 d.dlen;
    d.di <- gi;
    d.dx <- gx
  end;
  d.di.(d.dlen) <- i;
  d.dx.(d.dlen) <- x;
  d.dlen <- d.dlen + 1

(* CSR -> CSC (column pointers, row indices, values). *)
let csc_of a =
  let nn = a.sn in
  let m = nnz a in
  let cp = Array.make (nn + 1) 0 in
  for p = 0 to m - 1 do
    cp.(a.cols.(p) + 1) <- cp.(a.cols.(p) + 1) + 1
  done;
  for j = 0 to nn - 1 do
    cp.(j + 1) <- cp.(j + 1) + cp.(j)
  done;
  let fill = Array.copy cp in
  let ri = Array.make m 0 and vx = Array.make m 0.0 in
  for i = 0 to nn - 1 do
    for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let j = a.cols.(p) in
      ri.(fill.(j)) <- i;
      vx.(fill.(j)) <- a.vals.(p);
      fill.(j) <- fill.(j) + 1
    done
  done;
  (cp, ri, vx)

let decompose ?order a =
  let nn = a.sn in
  let q =
    match order with
    | Some o ->
        if Array.length o <> nn then
          invalid_arg "Sparse.decompose: ordering length mismatch";
        o
    | None -> min_degree_order a
  in
  let cp, cri, cvx = csc_of a in
  let cap = max 16 (4 * nnz a) in
  let l = dyn_make cap and u = dyn_make cap in
  let lp = Array.make (nn + 1) 0 and up = Array.make (nn + 1) 0 in
  let pinv = Array.make nn (-1) in
  let frowp = Array.make nn 0 in
  let x = Array.make nn 0.0 in
  let mark = Array.make nn (-1) in
  let stack = Array.make nn 0 in
  let cpos = Array.make nn 0 in
  let xi = Array.make nn 0 in
  for k = 0 to nn - 1 do
    let col = q.(k) in
    (* Reach: the nonzero pattern of L \ A(:,col), via DFS over the
       already-built columns of L, emitted in topological order into
       xi.(top..nn-1). *)
    let top = ref nn in
    for p = cp.(col) to cp.(col + 1) - 1 do
      let i0 = cri.(p) in
      if mark.(i0) <> k then begin
        let head = ref 0 in
        stack.(0) <- i0;
        while !head >= 0 do
          let i = stack.(!head) in
          let jn = pinv.(i) in
          if mark.(i) <> k then begin
            mark.(i) <- k;
            cpos.(!head) <- (if jn < 0 then 0 else lp.(jn))
          end;
          if jn < 0 then begin
            decr head;
            decr top;
            xi.(!top) <- i
          end
          else begin
            let pend = lp.(jn + 1) in
            let pp = ref cpos.(!head) in
            let pushed = ref false in
            while (not !pushed) && !pp < pend do
              let r = l.di.(!pp) in
              incr pp;
              if mark.(r) <> k then begin
                cpos.(!head) <- !pp;
                incr head;
                stack.(!head) <- r;
                pushed := true
              end
            done;
            if not !pushed then begin
              decr head;
              decr top;
              xi.(!top) <- i
            end
          end
        done
      end
    done;
    (* Numeric sparse triangular solve. *)
    for p = !top to nn - 1 do
      x.(xi.(p)) <- 0.0
    done;
    for p = cp.(col) to cp.(col + 1) - 1 do
      x.(cri.(p)) <- cvx.(p)
    done;
    for p = !top to nn - 1 do
      let i = xi.(p) in
      let jn = pinv.(i) in
      if jn >= 0 then begin
        let xv = x.(i) in
        if xv <> 0.0 then
          (* Skip the unit-diagonal entry stored first in each column. *)
          for pp = lp.(jn) + 1 to lp.(jn + 1) - 1 do
            x.(l.di.(pp)) <- x.(l.di.(pp)) -. (l.dx.(pp) *. xv)
          done
      end
    done;
    (* Partial pivoting over the not-yet-pivotal candidates; pivotal
       entries go to U in the same pass. *)
    let ipiv = ref (-1) and amax = ref (-1.0) in
    for p = !top to nn - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        let m = Float.abs x.(i) in
        if m > !amax then begin
          amax := m;
          ipiv := i
        end
      end
      else dyn_push u pinv.(i) x.(i)
    done;
    if !ipiv < 0 || !amax < pivot_threshold then raise (Lu.Singular col);
    let pivot = x.(!ipiv) in
    pinv.(!ipiv) <- k;
    frowp.(k) <- !ipiv;
    dyn_push l !ipiv 1.0;
    dyn_push u k pivot;
    for p = !top to nn - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then dyn_push l i (x.(i) /. pivot);
      x.(i) <- 0.0
    done;
    lp.(k + 1) <- l.dlen;
    up.(k + 1) <- u.dlen
  done;
  (* Renumber L's rows into pivotal order so the triangular solves run in
     permuted space. *)
  for p = 0 to l.dlen - 1 do
    l.di.(p) <- pinv.(l.di.(p))
  done;
  {
    fn = nn;
    lp;
    li = Array.sub l.di 0 l.dlen;
    lx = Array.sub l.dx 0 l.dlen;
    up;
    ui = Array.sub u.di 0 u.dlen;
    ux = Array.sub u.dx 0 u.dlen;
    frowp;
    fq = q;
  }

let solve_factored f b =
  let nn = f.fn in
  if Array.length b <> nn then invalid_arg "Sparse.solve_factored: dimension";
  let x = Array.init nn (fun k -> b.(f.frowp.(k))) in
  (* L x = Pb, unit diagonal stored first in each column. *)
  for j = 0 to nn - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for p = f.lp.(j) + 1 to f.lp.(j + 1) - 1 do
        x.(f.li.(p)) <- x.(f.li.(p)) -. (f.lx.(p) *. xj)
      done
  done;
  (* U y = x, diagonal stored last in each column. *)
  for j = nn - 1 downto 0 do
    let pend = f.up.(j + 1) - 1 in
    let xj = x.(j) /. f.ux.(pend) in
    x.(j) <- xj;
    if xj <> 0.0 then
      for p = f.up.(j) to pend - 1 do
        x.(f.ui.(p)) <- x.(f.ui.(p)) -. (f.ux.(p) *. xj)
      done
  done;
  (* Undo the column permutation. *)
  let r = Array.make nn 0.0 in
  for k = 0 to nn - 1 do
    r.(f.fq.(k)) <- x.(k)
  done;
  r

let solve ?order a b = solve_factored (decompose ?order a) b
