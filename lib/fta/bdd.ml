(* Hash-consed ROBDD + Minato-style ZBDD of the minimal cut sets.

   Variables are integers (0 = highest / tested first); terminals are
   shared across managers.  The unique table guarantees canonicity, so
   physical equality decides function equality and every traversal memos
   on node ids.  Fault trees are coherent (no negation), hence the BDD
   is monotone and Rauzy's recursion

     mcs(v ? h : l) = mcs(l)  ∪  v·(mcs(h) \ supersets-of mcs(l))

   yields exactly the minimal cut sets as a ZBDD. *)

type node =
  | Zero
  | One
  | Node of { id : int; var : int; low : node; high : node }

type zdd =
  | Zbot  (* the empty family *)
  | Ztop  (* the family {∅} *)
  | Znode of { zid : int; zvar : int; zlow : zdd; zhigh : zdd }

type t = {
  names : string array;  (* variable index -> basic-event id *)
  mutable root : node;
  unique : (int * int * int, node) Hashtbl.t;
  ite_memo : (int * int * int, node) Hashtbl.t;
  mutable next : int;
  zunique : (int * int * int, zdd) Hashtbl.t;
  zunion_memo : (int * int, zdd) Hashtbl.t;
  zsub_memo : (int * int, zdd) Hashtbl.t;
  mutable znext : int;
  mutable mcs : zdd option;  (* computed once, reused by every query *)
}

let node_id = function Zero -> 0 | One -> 1 | Node { id; _ } -> id
let node_var = function Zero | One -> max_int | Node { var; _ } -> var

let mk t var low high =
  if low == high then low
  else begin
    let key = (var, node_id low, node_id high) in
    match Hashtbl.find_opt t.unique key with
    | Some n -> n
    | None ->
        let n = Node { id = t.next; var; low; high } in
        t.next <- t.next + 1;
        Hashtbl.add t.unique key n;
        n
  end

let rec ite t f g h =
  if f == One then g
  else if f == Zero then h
  else if g == h then g
  else if g == One && h == Zero then f
  else begin
    let key = (node_id f, node_id g, node_id h) in
    match Hashtbl.find_opt t.ite_memo key with
    | Some r -> r
    | None ->
        let v = min (node_var f) (min (node_var g) (node_var h)) in
        let cof = function
          | Node { var; low; high; _ } when var = v -> (low, high)
          | n -> (n, n)
        in
        let f0, f1 = cof f and g0, g1 = cof g and h0, h1 = cof h in
        let r = mk t v (ite t f0 g0 h0) (ite t f1 g1 h1) in
        Hashtbl.add t.ite_memo key r;
        r
  end

let and_node t a b = ite t a b Zero
let or_node t a b = ite t a One b

(* ---------- compilation from the fault-tree IR ---------- *)

(* Physical-identity memo: trees produced by the structural lowering are
   DAGs in memory, and compiling shared subtrees once keeps the build
   linear in the DAG, not in its (possibly exponential) unfolding. *)
module Phys = Hashtbl.Make (struct
  type t = Fault_tree.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let dfs_event_order tree =
  let seen = Phys.create 64 in
  let taken = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go n =
    if not (Phys.mem seen n) then begin
      Phys.add seen n ();
      match n with
      | Fault_tree.Basic e ->
          if not (Hashtbl.mem taken e.Fault_tree.event_id) then begin
            Hashtbl.add taken e.Fault_tree.event_id ();
            acc := e.Fault_tree.event_id :: !acc
          end
      | Fault_tree.And (_, cs)
      | Fault_tree.Or (_, cs)
      | Fault_tree.Koon (_, _, cs) ->
          List.iter go cs
    end
  in
  go tree;
  List.rev !acc

let resolve_order ~events order =
  match order with
  | None -> events
  | Some given ->
      let in_tree = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace in_tree id ()) events;
      let taken = Hashtbl.create 16 in
      let head =
        List.filter
          (fun id ->
            if Hashtbl.mem in_tree id && not (Hashtbl.mem taken id) then begin
              Hashtbl.replace taken id ();
              true
            end
            else false)
          given
      in
      head @ List.filter (fun id -> not (Hashtbl.mem taken id)) events

let build ?order tree =
  let events = dfs_event_order tree in
  let names = Array.of_list (resolve_order ~events order) in
  let t =
    {
      names;
      root = Zero;
      unique = Hashtbl.create 256;
      ite_memo = Hashtbl.create 256;
      next = 2;
      zunique = Hashtbl.create 64;
      zunion_memo = Hashtbl.create 64;
      zsub_memo = Hashtbl.create 64;
      znext = 2;
      mcs = None;
    }
  in
  let var_index = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace var_index id i) names;
  let memo = Phys.create 64 in
  let rec compile n =
    match Phys.find_opt memo n with
    | Some b -> b
    | None ->
        let b =
          match n with
          | Fault_tree.Basic e ->
              mk t (Hashtbl.find var_index e.Fault_tree.event_id) Zero One
          | Fault_tree.And (_, cs) ->
              List.fold_left (fun acc c -> and_node t acc (compile c)) One cs
          | Fault_tree.Or (_, cs) ->
              List.fold_left (fun acc c -> or_node t acc (compile c)) Zero cs
          | Fault_tree.Koon (_, k, cs) ->
              (* at-least-k-of threshold composition over the children's
                 BDDs — no k-subset expansion. *)
              let arr = Array.of_list (List.map compile cs) in
              let n_ch = Array.length arr in
              let memo_k = Hashtbl.create 16 in
              let rec atleast i k =
                if k <= 0 then One
                else if n_ch - i < k then Zero
                else begin
                  match Hashtbl.find_opt memo_k (i, k) with
                  | Some r -> r
                  | None ->
                      let r =
                        or_node t
                          (and_node t arr.(i) (atleast (i + 1) (k - 1)))
                          (atleast (i + 1) k)
                      in
                      Hashtbl.add memo_k (i, k) r;
                      r
                end
              in
              atleast 0 k
        in
        Phys.add memo n b;
        b
  in
  t.root <- compile tree;
  t

let var_count t = Array.length t.names
let node_count t = t.next - 2

let constant t =
  match t.root with Zero -> Some false | One -> Some true | Node _ -> None

(* ---------- ZBDD of the minimal cut sets ---------- *)

let zid = function Zbot -> 0 | Ztop -> 1 | Znode { zid; _ } -> zid

let zmk t var low high =
  if high == Zbot then low
  else begin
    let key = (var, zid low, zid high) in
    match Hashtbl.find_opt t.zunique key with
    | Some z -> z
    | None ->
        let z = Znode { zid = t.znext; zvar = var; zlow = low; zhigh = high } in
        t.znext <- t.znext + 1;
        Hashtbl.add t.zunique key z;
        z
  end

let rec zunion t a b =
  if a == b then a
  else if a == Zbot then b
  else if b == Zbot then a
  else begin
    let ka = zid a and kb = zid b in
    let key = (min ka kb, max ka kb) in
    match Hashtbl.find_opt t.zunion_memo key with
    | Some r -> r
    | None ->
        let r =
          match (a, b) with
          | Ztop, Znode { zvar; zlow; zhigh; _ }
          | Znode { zvar; zlow; zhigh; _ }, Ztop ->
              zmk t zvar (zunion t Ztop zlow) zhigh
          | Znode na, Znode nb ->
              if na.zvar = nb.zvar then
                zmk t na.zvar
                  (zunion t na.zlow nb.zlow)
                  (zunion t na.zhigh nb.zhigh)
              else if na.zvar < nb.zvar then
                zmk t na.zvar (zunion t na.zlow b) na.zhigh
              else zmk t nb.zvar (zunion t nb.zlow a) nb.zhigh
          | Zbot, _ | _, Zbot | Ztop, Ztop -> assert false
        in
        Hashtbl.add t.zunion_memo key r;
        r
  end

let rec contains_empty = function
  | Zbot -> false
  | Ztop -> true
  | Znode { zlow; _ } -> contains_empty zlow

(* Sets of [a] that are supersets of no set in [b] — Minato's
   subsumption difference, the workhorse of the minimality recursion. *)
let rec zsub t a b =
  if a == Zbot then Zbot
  else if b == Zbot then a
  else if contains_empty b then Zbot
  else if a == Ztop then Ztop
  else begin
    let key = (zid a, zid b) in
    match Hashtbl.find_opt t.zsub_memo key with
    | Some r -> r
    | None ->
        let r =
          match (a, b) with
          | Znode na, Znode nb ->
              if na.zvar < nb.zvar then
                zmk t na.zvar (zsub t na.zlow b) (zsub t na.zhigh b)
              else if na.zvar > nb.zvar then
                (* b-sets containing nb.zvar cannot subsume a-sets that
                   lack it *)
                zsub t a nb.zlow
              else
                zmk t na.zvar (zsub t na.zlow nb.zlow)
                  (zsub t na.zhigh (zunion t nb.zlow nb.zhigh))
          | _ -> assert false
        in
        Hashtbl.add t.zsub_memo key r;
        r
  end

let mcs_zdd t =
  match t.mcs with
  | Some z -> z
  | None ->
      let memo = Hashtbl.create 256 in
      let rec go = function
        | Zero -> Zbot
        | One -> Ztop
        | Node { id; var; low; high } -> (
            match Hashtbl.find_opt memo id with
            | Some z -> z
            | None ->
                let l = go low in
                let h = go high in
                let z = zmk t var l (zsub t h l) in
                Hashtbl.add memo id z;
                z)
      in
      let z = go t.root in
      t.mcs <- Some z;
      z

let zcount z =
  let memo = Hashtbl.create 64 in
  let rec go = function
    | Zbot -> 0.0
    | Ztop -> 1.0
    | Znode { zid; zlow; zhigh; _ } -> (
        match Hashtbl.find_opt memo zid with
        | Some c -> c
        | None ->
            let c = go zlow +. go zhigh in
            Hashtbl.add memo zid c;
            c)
  in
  go z

let rec zupto t memo k z =
  match z with
  | Zbot -> Zbot
  | Ztop -> Ztop
  | Znode { zid; zvar; zlow; zhigh } ->
      if k <= 0 then if contains_empty z then Ztop else Zbot
      else begin
        match Hashtbl.find_opt memo (zid, k) with
        | Some r -> r
        | None ->
            let r =
              zmk t zvar (zupto t memo k zlow) (zupto t memo (k - 1) zhigh)
            in
            Hashtbl.add memo (zid, k) r;
            r
      end

let zdd_sets names z =
  let rec go acc prefix = function
    | Zbot -> acc
    | Ztop -> List.rev prefix :: acc
    | Znode { zvar; zlow; zhigh; _ } ->
        let acc = go acc (names.(zvar) :: prefix) zhigh in
        go acc prefix zlow
  in
  go [] [] z

let sort_sets sets =
  let sets = List.map (List.sort String.compare) sets in
  List.sort
    (fun a b ->
      match Int.compare (List.length a) (List.length b) with
      | 0 -> List.compare String.compare a b
      | n -> n)
    sets

let minimal_cut_sets t = sort_sets (zdd_sets t.names (mcs_zdd t))
let minimal_cut_set_count t = zcount (mcs_zdd t)

let minimal_critical_sets ?max_cardinality t =
  let z = mcs_zdd t in
  let z =
    match max_cardinality with
    | None -> z
    | Some k ->
        if k < 0 then invalid_arg "Bdd.minimal_critical_sets: max_cardinality"
        else zupto t (Hashtbl.create 64) k z
  in
  sort_sets (zdd_sets t.names z)

(* ---------- quantification ---------- *)

(* Memoised Shannon expansion with terminal values [zero] and [one]:
   (0, 1) gives P(n) and (1, 0) gives P(¬n), a complement that is never
   computed as a difference. *)
let shannon t p ~zero ~one =
  let memo = Hashtbl.create 64 in
  let rec go = function
    | Zero -> zero
    | One -> one
    | Node { id; var; low; high } -> (
        match Hashtbl.find_opt memo id with
        | Some x -> x
        | None ->
            let pv = p t.names.(var) in
            let x = (pv *. go high) +. ((1.0 -. pv) *. go low) in
            Hashtbl.add memo id x;
            x)
  in
  go

let probability t p = shannon t p ~zero:0.0 ~one:1.0 t.root

let by_importance results =
  List.sort
    (fun (na, a) (nb, b) ->
      match Float.compare b a with 0 -> String.compare na nb | c -> c)
    results

(* Birnbaum importance of every variable in one pass, without
   cancellation.  B_e is the sum over the decision nodes n on e of
   reach(n) · (P(high n) - P(low n)), where reach(n) is the probability
   of the assignments that lead from the root to n.  The diagram is
   monotone, so low n implies high n and the bracket is
   P(high n ∧ ¬low n), which [minus] expands like a probability: every
   term is a product of non-negative factors.  The difference
   P(f|e=1) - P(f|e=0) is rounding noise once B_e falls below P(top)
   times the float epsilon, as on rare-event trees. *)
let birnbaum_values t p =
  let prob = shannon t p ~zero:0.0 ~one:1.0
  and prob_not = shannon t p ~zero:1.0 ~one:0.0 in
  let memo = Hashtbl.create 64 in
  (* P(a ∧ ¬b), for b implies a *)
  let rec minus a b =
    if a == b || a == Zero then 0.0
    else if b == Zero then prob a
    else if a == One then prob_not b
    else begin
      let key = (node_id a, node_id b) in
      match Hashtbl.find_opt memo key with
      | Some x -> x
      | None ->
          let v = min (node_var a) (node_var b) in
          let cof = function
            | Node { var; low; high; _ } when var = v -> (low, high)
            | n -> (n, n)
          in
          let a0, a1 = cof a and b0, b1 = cof b in
          let pv = p t.names.(v) in
          let x = (pv *. minus a1 b1) +. ((1.0 -. pv) *. minus a0 b0) in
          Hashtbl.add memo key x;
          x
    end
  in
  let seen = Hashtbl.create 64 in
  let rec collect acc = function
    | Zero | One -> acc
    | Node { id; low; high; _ } as n ->
        if Hashtbl.mem seen id then acc
        else begin
          Hashtbl.add seen id ();
          collect (collect (n :: acc) low) high
        end
  in
  (* parents before children: a child's variable is always larger *)
  let nodes =
    List.sort
      (fun a b ->
        match Int.compare (node_var a) (node_var b) with
        | 0 -> Int.compare (node_id a) (node_id b)
        | c -> c)
      (collect [] t.root)
  in
  let reach = Hashtbl.create 64 in
  let add n r =
    match n with
    | Zero | One -> ()
    | Node { id; _ } ->
        Hashtbl.replace reach id
          (r +. Option.value ~default:0.0 (Hashtbl.find_opt reach id))
  in
  add t.root 1.0;
  let b = Array.make (Array.length t.names) 0.0 in
  List.iter
    (function
      | Node { id; var; low; high } ->
          let r = Hashtbl.find reach id and pv = p t.names.(var) in
          b.(var) <- b.(var) +. (r *. minus high low);
          add high (r *. pv);
          add low (r *. (1.0 -. pv))
      | Zero | One -> ())
    nodes;
  b

(* Fussell–Vesely from the same pass: P - P(f|e=0) = p_e · B_e. *)
let importances t p =
  let b = birnbaum_values t p in
  let birnbaum = Array.to_list (Array.mapi (fun i name -> (name, b.(i))) t.names) in
  let total = probability t p in
  let fussell_vesely =
    if total <= 0.0 then []
    else List.map (fun (name, bi) -> (name, p name *. bi /. total)) birnbaum
  in
  (by_importance birnbaum, by_importance fussell_vesely)

let birnbaum t p = fst (importances t p)
let fussell_vesely t p = snd (importances t p)
