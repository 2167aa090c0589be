type error = Singular_system of string | No_convergence of int

let pp_error ppf = function
  | Singular_system what ->
      Format.fprintf ppf "singular MNA system (%s)" what
  | No_convergence n ->
      Format.fprintf ppf "Newton iteration did not converge in %d steps" n

let closed_switch_resistance = 1e-3

(* Node-to-ground conductance: keeps fault-injected circuits (floating
   nodes after an open) solvable. *)
let default_gmin = 1e-9

(* Per-diode constants of the junction model: the scaled thermal voltage
   vt = n·Vt, and the critical junction voltage above which the
   exponential is linearised to avoid overflow (SPICE's pnjlim idea,
   simplified).  Prepared netlists compute them once per diode. *)
let diode_limits (p : Element.diode_params) =
  let vt = p.Element.thermal_voltage *. p.Element.emission in
  (vt, vt *. log (vt /. (Float.sqrt 2.0 *. p.Element.saturation_current)))

let current_with (vt, vcrit) (p : Element.diode_params) v =
  let v = if v > vcrit then vcrit +. (vt *. log (1.0 +. ((v -. vcrit) /. vt))) else v in
  p.Element.saturation_current *. (exp (v /. vt) -. 1.0)

(* True derivative of [current_with], including the limiter's chain-rule
   factor 1/r — an inconsistent Jacobian makes Newton oscillate around
   the operating point instead of converging. *)
let conductance_with (vt, vcrit) (p : Element.diode_params) v =
  let is = p.Element.saturation_current in
  if v > vcrit then
    let r = 1.0 +. ((v -. vcrit) /. vt) in
    is /. vt *. exp ((vcrit +. (vt *. log r)) /. vt) *. (1.0 /. r)
  else is /. vt *. exp (v /. vt)

let diode_current p v = current_with (diode_limits p) p v
let diode_conductance p v = conductance_with (diode_limits p) p v

(* ---------- prepared netlists ----------

   Everything that depends only on the topology — node/branch numbering,
   element partitioning and the stamps of the *linear* devices — is
   computed once per netlist and reused by every Newton iteration.
   Iterations then copy the base system and restamp only the diode
   companion entries, instead of re-walking the element list with
   hashtable lookups per rebuild.

   The base system is assembled in triplet form and compressed to CSR,
   with a cached minimum-degree ordering: a two-terminal element touches
   at most four entries, so dense factorisation would be almost entirely
   wasted work on structural zeros.  Diode companion stamps get explicit
   zero triplets so the sparse pattern — and therefore the cached
   ordering and the per-diode value indices — is stable across Newton
   iterations.  A circuit without diodes has one matrix, so it is
   factorised here, once, and every solve on it — under new source
   values too ({!with_sources}) — is a substitution. *)

type prepared = {
  elements : Element.t array;
  node_names : string list;
  node_index : (string, int) Hashtbl.t; (* node name -> unknown *)
  el_index : (string, int) Hashtbl.t; (* element id -> index *)
  n_nodes : int;
  size : int;
  gmin : float;
  (* Per-element resolved unknown indices: None = ground. *)
  el_a : int option array;
  el_b : int option array;
  (* MNA branch row per element, -1 when the element has none. *)
  el_branch : int array;
  (* Diodes as (element index, params); restamped each iteration. *)
  diodes : (int * Element.diode_params) array;
  diode_of : int array; (* per element, its index in [diodes] or -1 *)
  diode_lim : (float * float) array; (* per diode, [diode_limits] *)
  base_a : Numeric.Sparse.t;
  order : int array; (* cached fill-reducing ordering *)
  (* Per diode, the CSR value positions of its four companion stamps as
     (value index, ±1) — filled per Newton iteration. *)
  diode_pos : (int * float) array array;
  base_b : float array;
  (* The factors of [base_a] when there are no diodes; [None] otherwise. *)
  linear_factors : (Numeric.Sparse.factors, error) result option;
}

let size p = p.size

let backend_used _ = `Sparse

(* [Lu.Singular] carries the original column, i.e. the unknown. *)
let pivot_failure k =
  Singular_system (Printf.sprintf "pivot failure at unknown %d" k)

let factor_with order a =
  match Numeric.Sparse.decompose ~order a with
  | f -> Ok f
  | exception Numeric.Lu.Singular k -> Error (pivot_failure k)

(* The right-hand side: the values of the independent sources. *)
let source_rhs p =
  let b = Numeric.Vector.create p.size in
  Array.iteri
    (fun idx (e : Element.t) ->
      match e.Element.kind with
      | Element.Isource amps ->
          (* amps flows a -> b inside the source, i.e. out of node b. *)
          Option.iter (fun i -> b.(i) <- b.(i) -. amps) p.el_a.(idx);
          Option.iter (fun j -> b.(j) <- b.(j) +. amps) p.el_b.(idx)
      | Element.Vsource volts ->
          let k = p.el_branch.(idx) in
          b.(k) <- b.(k) +. volts
      | _ -> ())
    p.elements;
  b

(* [node_names] fixes the unknown numbering, so a faulted copy of the
   element array prepares onto the same unknowns as the golden one. *)
let prepare_with ~gmin ~node_names elements =
  let node_index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.add node_index n i) node_names;
  let n_nodes = List.length node_names in
  let n_elements = Array.length elements in
  let el_branch = Array.make n_elements (-1) in
  let next_branch = ref n_nodes in
  Array.iteri
    (fun i (e : Element.t) ->
      if Element.is_branch_element e.Element.kind then begin
        el_branch.(i) <- !next_branch;
        incr next_branch
      end)
    elements;
  let size = !next_branch in
  let el_index = Hashtbl.create (2 * n_elements) in
  Array.iteri
    (fun i (e : Element.t) -> Hashtbl.replace el_index e.Element.id i)
    elements;
  let node n =
    if String.equal n Netlist.ground then None else Hashtbl.find_opt node_index n
  in
  let el_a =
    Array.map (fun (e : Element.t) -> node e.Element.node_a) elements
  in
  let el_b =
    Array.map (fun (e : Element.t) -> node e.Element.node_b) elements
  in
  let diodes = ref [] in
  let trip = Numeric.Sparse.create size in
  let stamp_conductance ia ib g =
    (match ia with Some i -> Numeric.Sparse.add_to trip i i g | None -> ());
    (match ib with Some j -> Numeric.Sparse.add_to trip j j g | None -> ());
    match (ia, ib) with
    | Some i, Some j ->
        Numeric.Sparse.add_to trip i j (-.g);
        Numeric.Sparse.add_to trip j i (-.g)
    | _ -> ()
  in
  let stamp_voltage_branch k ia ib =
    (match ia with
    | Some i ->
        Numeric.Sparse.add_to trip i k 1.0;
        Numeric.Sparse.add_to trip k i 1.0
    | None -> ());
    (match ib with
    | Some j ->
        Numeric.Sparse.add_to trip j k (-1.0);
        Numeric.Sparse.add_to trip k j (-1.0)
    | None -> ())
  in
  Array.iteri
    (fun idx (e : Element.t) ->
      let ia = el_a.(idx) and ib = el_b.(idx) in
      match e.Element.kind with
      | Element.Resistor r | Element.Load r -> stamp_conductance ia ib (1.0 /. r)
      | Element.Switch true ->
          stamp_conductance ia ib (1.0 /. closed_switch_resistance)
      | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor
      | Element.Isource _ ->
          ()
      | Element.Vsource _ | Element.Inductor _ | Element.Current_sensor ->
          stamp_voltage_branch el_branch.(idx) ia ib
      | Element.Diode p ->
          (* Reserve the companion stamp positions with explicit zeros so
             the compressed pattern covers them. *)
          stamp_conductance ia ib 0.0;
          diodes := (idx, p) :: !diodes)
    elements;
  (* gmin to ground for solvability under fault injection. *)
  for i = 0 to n_nodes - 1 do
    Numeric.Sparse.add_to trip i i gmin
  done;
  let diodes = Array.of_list (List.rev !diodes) in
  let diode_of = Array.make n_elements (-1) in
  Array.iteri (fun di (idx, _) -> diode_of.(idx) <- di) diodes;
  let sa = Numeric.Sparse.compress trip in
  let pos i j =
    match Numeric.Sparse.index sa i j with
    | Some p -> p
    | None -> assert false (* reserved above *)
  in
  let diode_pos =
    Array.map
      (fun (idx, _) ->
        let ia = el_a.(idx) and ib = el_b.(idx) in
        let entries = ref [] in
        (match ia with Some i -> entries := (pos i i, 1.0) :: !entries | None -> ());
        (match ib with Some j -> entries := (pos j j, 1.0) :: !entries | None -> ());
        (match (ia, ib) with
        | Some i, Some j ->
            entries := (pos i j, -1.0) :: (pos j i, -1.0) :: !entries
        | _ -> ());
        Array.of_list !entries)
      diodes
  in
  let order = Numeric.Sparse.min_degree_order sa in
  let p =
    {
      elements;
      node_names;
      node_index;
      el_index;
      n_nodes;
      size;
      gmin;
      el_a;
      el_b;
      el_branch;
      diodes;
      diode_of;
      diode_lim = Array.map (fun (_, prm) -> diode_limits prm) diodes;
      base_a = sa;
      order;
      diode_pos;
      base_b = [||];
      linear_factors =
        (if Array.length diodes = 0 then Some (factor_with order sa) else None);
    }
  in
  { p with base_b = source_rhs p }

let prepare ?(gmin = default_gmin) netlist =
  prepare_with ~gmin ~node_names:(Netlist.nodes netlist)
    (Array.of_list (Netlist.elements netlist))

let prepare_elements ~node_names elements =
  prepare_with ~gmin:default_gmin ~node_names elements

let with_sources p elements =
  let same_stamps (old : Element.t) (e : Element.t) =
    old == e
    ||
    match (old.Element.kind, e.Element.kind) with
    | Element.Vsource _, Element.Vsource _ | Element.Isource _, Element.Isource _ ->
        Element.equal old { e with Element.kind = old.Element.kind }
    | _ -> Element.equal old e
  in
  if
    not
      (Array.length elements = Array.length p.elements
      && Array.for_all2 same_stamps p.elements elements)
  then invalid_arg "Dc.with_sources: elements differ in more than source values";
  let p = { p with elements } in
  { p with base_b = source_rhs p }

(* The unknown numbering: node voltages, then branch currents.  Ground
   ("gnd", or "0") has none. *)
let node_unknown p n =
  match Hashtbl.find_opt p.node_index n with
  | Some i -> Some i
  | None when String.equal n Netlist.ground || String.equal n "0" -> None
  | None -> raise Not_found

let branch_unknown p id =
  match Hashtbl.find_opt p.el_index id with
  | Some idx when p.el_branch.(idx) >= 0 -> p.el_branch.(idx)
  | Some _ | None -> raise Not_found

(* ---------- assembly and raw solves ---------- *)

let node_v v_guess = function Some i -> v_guess.(i) | None -> 0.0

(* coeff·(e_a − e_b) over an element's terminals, ground dropped. *)
let port_vec ia ib coeff : Numeric.Smw.sparse_vec =
  Array.of_list
    (List.filter_map Fun.id
       [ Option.map (fun i -> (i, coeff)) ia; Option.map (fun j -> (j, -.coeff)) ib ])

(* Junction voltage of diode [di] at the unknown vector [x]. *)
let diode_v p x di =
  let idx = fst p.diodes.(di) in
  node_v x p.el_a.(idx) -. node_v x p.el_b.(idx)

let diode_companion p v_guess di =
  (* Newton companion model: conductance g and current source
     i_eq = i(v) - g v, in parallel a -> b. *)
  let prm = snd p.diodes.(di) and lim = p.diode_lim.(di) in
  let v = diode_v p v_guess di in
  let g = Float.max (conductance_with lim prm v) 1e-12 in
  let i_eq = current_with lim prm v -. (g *. v) in
  (g, i_eq)

(* The MNA system at a given diode-voltage guess.  Linear circuits reuse
   the base arrays directly; circuits with diodes copy and restamp only
   the companion entries. *)
let assemble p v_guess =
  if Array.length p.diodes = 0 then (p.base_a, p.base_b)
  else begin
    let a = Numeric.Sparse.copy p.base_a in
    let b = Array.copy p.base_b in
    Array.iteri
      (fun di (idx, _) ->
        let g, i_eq = diode_companion p v_guess di in
        Array.iter
          (fun (vi, sign) -> Numeric.Sparse.add_to_value a vi (sign *. g))
          p.diode_pos.(di);
        (match p.el_a.(idx) with Some i -> b.(i) <- b.(i) -. i_eq | None -> ());
        match p.el_b.(idx) with Some j -> b.(j) <- b.(j) +. i_eq | None -> ())
      p.diodes;
    (a, b)
  end

(* A circuit without diodes has one matrix, factorised when prepared. *)
let factor p a =
  match p.linear_factors with Some fact -> fact | None -> factor_with p.order a

(* ---------- Newton iteration ---------- *)

let reltol = 1e-6
let vntol = 1e-6

(* Newton iteration budget, and the smallest step bound of a node (see
   [newton_loop]). *)
let max_iterations = 200
let min_step = 1.0

(* The one damped Newton driver: the prepared solve (and so every
   transient step) and the golden-factor injection re-solve.
   [solve_once] produces the next iterate from the current guess.  The
   result carries the number of iterates computed.

   Each node voltage may move by at most max(min_step, |v|) per
   iteration, |v| its value at the current guess.  A node near ground (a
   junction turning on or off) steps by at most [min_step], which with
   the junction limiter above keeps the diode exponential from
   overshooting; a node already at several volts may double or halve per
   iteration, so a fault that moves a rail by volts settles in a few
   steps rather than one per fixed clamp. *)
let newton_loop ~n_nodes solve_once guess0 =
  let rec go v_guess iter =
    if iter > max_iterations then Error (No_convergence max_iterations)
    else
      match solve_once v_guess with
      | Error _ as e -> e
      | Ok x ->
          let damped = Array.copy x in
          for i = 0 to n_nodes - 1 do
            let dv = x.(i) -. v_guess.(i) in
            let bound = Float.max min_step (Float.abs v_guess.(i)) in
            if Float.abs dv > bound then
              damped.(i) <- v_guess.(i) +. Float.copy_sign bound dv
          done;
          (* SPICE-style per-variable tolerance: |Δv| ≤ reltol·|v| + vntol.
             An absolute-only criterion is unreachable when the system is
             ill-conditioned (mΩ switches vs gmin span ~12 decades and the
             diode companion amplifies LU roundoff). *)
          let converged = ref true in
          for i = 0 to Array.length damped - 1 do
            let dv = Float.abs (damped.(i) -. v_guess.(i)) in
            if dv > (reltol *. Float.abs damped.(i)) +. vntol then
              converged := false
          done;
          if !converged then Ok (damped, iter + 1) else go damped (iter + 1)
  in
  go guess0 0

(* Raw solve: the unknown vector and the Newton iterations it took (0
   for a circuit without diodes), Newton starting from [guess]. *)
let solve_raw_from p guess =
  let solve_once v_guess =
    let a, b = assemble p v_guess in
    Result.map (fun f -> Numeric.Sparse.solve_factored f b) (factor p a)
  in
  if Array.length p.diodes = 0 then Result.map (fun x -> (x, 0)) (solve_once guess)
  else newton_loop ~n_nodes:p.n_nodes solve_once guess

let solve_raw p = solve_raw_from p (Array.make p.size 0.0)

(* ---------- solutions ----------

   A solution is the unknown vector together with the prepared topology
   it was solved on; every observable is read from the two on demand.  A
   faulted solution shares the golden topology and records the one
   element whose kind the fault swapped (node/branch numbering is
   unchanged by faults), so building one allocates nothing beyond the
   vector. *)

type solution = {
  s_p : prepared;
  s_x : float array;
  s_fault : (int * Element.kind) option; (* element index, faulted kind *)
  s_newton : int; (* Newton iterations the solve took *)
}

let newton_iterations s = s.s_newton

let kind_at s idx =
  match s.s_fault with
  | Some (j, kind) when j = idx -> kind
  | Some _ | None -> s.s_p.elements.(idx).Element.kind

let port_voltage s idx =
  let p = s.s_p in
  node_v s.s_x p.el_a.(idx) -. node_v s.s_x p.el_b.(idx)

let element_count s = Array.length s.s_p.elements

let element_current_at s idx =
  let p = s.s_p in
  match kind_at s idx with
  | Element.Resistor r | Element.Load r -> port_voltage s idx /. r
  | Element.Switch true -> port_voltage s idx /. closed_switch_resistance
  | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor -> 0.0
  | Element.Isource amps -> amps
  | Element.Diode prm ->
      current_with p.diode_lim.(p.diode_of.(idx)) prm (port_voltage s idx)
  | Element.Vsource _ | Element.Inductor _ | Element.Current_sensor ->
      s.s_x.(p.el_branch.(idx))

let sensor_reading_at s idx =
  match kind_at s idx with
  | Element.Current_sensor -> Some (element_current_at s idx)
  | Element.Voltage_sensor -> Some (port_voltage s idx)
  | _ -> None

let element_index s id =
  match Hashtbl.find_opt s.s_p.el_index id with
  | Some i -> i
  | None -> raise Not_found

let solve_from p guess =
  if Array.length guess <> p.size then invalid_arg "Dc.solve_from: guess size";
  Result.map
    (fun (x, n) -> { s_p = p; s_x = x; s_fault = None; s_newton = n })
    (solve_raw_from p guess)

let solve p = solve_from p (Array.make p.size 0.0)

let unknowns s = Array.copy s.s_x

let analyse ?gmin netlist = solve (prepare ?gmin netlist)

(* ---------- golden factorisation and low-rank fault re-solve ----------

   The fault-injection FMEA solves thousands of systems that differ from
   the golden one by a handful of stamps: an open, a short or a drift on
   one element is a rank-0/1/2 perturbation A + U·Vᵀ of the golden MNA
   matrix.  [factorise] captures the golden factors once, together with
   each diode's port response z_d = A⁻¹(e_a − e_b); [inject] classifies
   a fault into its low-rank delta and re-solves with
   Sherman–Morrison–Woodbury against the existing factors, instead of
   assembling and factorising a faulted system from scratch. *)

type golden = {
  g_p : prepared;
  g_a : Numeric.Sparse.t; (* final op-point matrix, for refinement residuals *)
  g_fact : Numeric.Sparse.factors;
  g_b : float array; (* final op-point RHS, incl. diode companions *)
  g_x : float array;
  (* Per p.diodes entry: port voltage at the operating point and the
     companion (g, i_eq) there, baked into g_a/g_b. *)
  g_diode_v : float array;
  g_diode_op : (float * float) array;
  (* Per p.diodes entry: its port response A⁻¹(e_a − e_b).  Read only,
     shared by every injection. *)
  g_diode_z : float array array;
  g_newton : int; (* Newton iterations of the golden solve *)
}

let factorise p =
  match solve_raw p with
  | Error err -> Error err
  | Ok (x_star, iterations) -> (
      (* Rebuild the system at the converged operating point: the golden
         factors must correspond exactly to the stamps recorded in
         [g_diode_op], since injection deltas are computed against them. *)
      let a, b = assemble p x_star in
      match factor p a with
      | Error err -> Error err
      | Ok fact ->
          let solve = Numeric.Sparse.solve_factored fact in
          Ok
            {
              g_p = p;
              g_a = a;
              g_fact = fact;
              g_b = b;
              g_x = solve b;
              g_diode_v = Array.mapi (fun di _ -> diode_v p x_star di) p.diodes;
              g_diode_op = Array.mapi (fun di _ -> diode_companion p x_star di) p.diodes;
              g_diode_z =
                Array.map
                  (fun (idx, _) ->
                    Numeric.Smw.response ~n:p.size ~solve
                      (port_vec p.el_a.(idx) p.el_b.(idx) 1.0))
                  p.diodes;
              g_newton = iterations;
            })

let golden_solution g =
  { s_p = g.g_p; s_x = g.g_x; s_fault = None; s_newton = g.g_newton }

let iter_operating_matrix g f = Numeric.Sparse.iter f g.g_a

(* A singular low-rank update is reported the way a full re-analysis of
   the faulted netlist reports it — naming the unknown that lost its
   pivot — whenever that re-analysis finds the system singular too. *)
let smw_singular_error p idx new_kind element_id fault =
  let faulted = Array.copy p.elements in
  faulted.(idx) <- { faulted.(idx) with Element.kind = new_kind };
  match
    solve_raw (prepare_with ~gmin:p.gmin ~node_names:p.node_names faulted)
  with
  | Error (Singular_system _ as e) -> e
  | Ok _ | Error (No_convergence _) ->
      Singular_system
        (Printf.sprintf "fault %s on %s makes the system singular"
           (Fault.to_string fault) element_id)

(* (U·Vᵀ)·x for sparse columns U and V. *)
let apply_update u v x =
  let r = Array.make (Array.length x) 0.0 in
  Array.iteri
    (fun j vj ->
      let c = Array.fold_left (fun acc (i, w) -> acc +. (w *. x.(i))) 0.0 vj in
      if c <> 0.0 then Array.iter (fun (i, uv) -> r.(i) <- r.(i) +. (uv *. c)) u.(j))
    v;
  r

let inject ?(on_path = fun _ -> ()) g ~element_id fault =
  let p = g.g_p in
  let idx =
    match Hashtbl.find_opt p.el_index element_id with
    | Some i -> i
    | None -> raise Not_found
  in
  let old_kind = p.elements.(idx).Element.kind in
  let new_kind = Fault.faulted_kind old_kind fault ~element:element_id in
  let solution ?(iterations = 0) x =
    { s_p = p; s_x = x; s_fault = Some (idx, new_kind); s_newton = iterations }
  in
  let ia = p.el_a.(idx) and ib = p.el_b.(idx) in
  let pair_vec = port_vec ia ib in
  (* Conductance stamped for a (non-branch, non-diode) kind. *)
  let static_g = function
    | Element.Resistor r | Element.Load r -> 1.0 /. r
    | Element.Switch true -> 1.0 /. closed_switch_resistance
    | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor
    | Element.Isource _ ->
        0.0
    | Element.Vsource _ | Element.Inductor _ | Element.Current_sensor
    | Element.Diode _ ->
        assert false
  in
  let my_diode = p.diode_of.(idx) in
  let updates = ref [] in
  let rhs = ref [] in
  let add_update u v =
    if Array.length u > 0 && Array.length v > 0 then
      updates := (u, v) :: !updates
  in
  let add_rhs i d =
    match i with
    | Some i when d <> 0.0 -> rhs := (i, d) :: !rhs
    | _ -> ()
  in
  let k = p.el_branch.(idx) in
  if k >= 0 then begin
    (* Branch element (Vsource / Inductor / Current_sensor): the branch
       row and column stay in the system; the fault rewrites the branch's
       defining equation.  *)
    let old_bk = match old_kind with Element.Vsource v -> v | _ -> 0.0 in
    match new_kind with
    | Element.Switch false ->
        (* Disable the branch: row k becomes x_k = 0 and the branch
           current drops out of the KCL rows.  With the original stamps
           A(k,a)=1, A(k,b)=-1, A(a,k)=1, A(b,k)=-1, A(k,k)=0, this is
           the rank-2 update e_k·(e_k − e_a + e_b)ᵀ + (e_b − e_a)·e_kᵀ. *)
        add_update [| (k, 1.0) |] (Array.append [| (k, 1.0) |] (pair_vec (-1.0)));
        add_update (pair_vec (-1.0)) [| (k, 1.0) |];
        if old_bk <> 0.0 then rhs := (k, -.old_bk) :: !rhs
    | Element.Resistor r ->
        (* Short: keep the branch current and turn the defining equation
           into v_a − v_b − r·i_k = 0, i.e. add −r at (k,k).  Reading the
           current as (va − vb)/r then equals x_k by construction. *)
        add_update [| (k, 1.0) |] [| (k, -.r) |];
        if old_bk <> 0.0 then rhs := (k, -.old_bk) :: !rhs
    | Element.Vsource v' -> if v' <> old_bk then rhs := (k, v' -. old_bk) :: !rhs
    | Element.Inductor _ -> (* still a DC short — identical stamps *) ()
    | _ -> assert false (* no fault maps a branch element elsewhere *)
  end
  else begin
    let g_old =
      match old_kind with
      | Element.Diode _ -> fst g.g_diode_op.(my_diode)
      | kind -> static_g kind
    in
    let dg = static_g new_kind -. g_old in
    if dg <> 0.0 then add_update (pair_vec dg) (pair_vec 1.0);
    (* Un-stamp the old RHS contribution, stamp the new one. *)
    (match old_kind with
    | Element.Isource amps ->
        add_rhs ia amps;
        add_rhs ib (-.amps)
    | Element.Diode _ ->
        let i_eq = snd g.g_diode_op.(my_diode) in
        add_rhs ia i_eq;
        add_rhs ib (-.i_eq)
    | _ -> ());
    match new_kind with
    | Element.Isource amps ->
        add_rhs ia (-.amps);
        add_rhs ib amps
    | _ -> ()
  end;
  let fault_updates = Array.of_list (List.rev !updates) in
  let fu = Array.map fst fault_updates and fv = Array.map snd fault_updates in
  if Array.length fu = 0 && !rhs = [] then begin
    (* The faulted stamps are identical (e.g. capacitor open, closed
       switch shorted): the golden solution is the faulted solution. *)
    on_path `Reused;
    Ok (solution g.g_x)
  end
  else begin
    let n = p.size in
    let base_solve b = Numeric.Sparse.solve_factored g.g_fact b in
    let b_fault = Array.copy g.g_b in
    List.iter (fun (i, d) -> b_fault.(i) <- b_fault.(i) +. d) !rhs;
    (* Solved once per fault against the golden factors: the fault's own
       response columns and the base solution of its right-hand side. *)
    let fz = Array.map (Numeric.Smw.response ~n ~solve:base_solve) fu in
    let y0 = base_solve b_fault in
    let singular () =
      Error (smw_singular_error p idx new_kind element_id fault)
    in
    (* One step of iterative refinement of x ≈ (A + U·Vᵀ)⁻¹b against the
       golden matrix: the residual in the original space, one triangular
       solve. *)
    let refine smw ~u ~v b x =
      let ax = Numeric.Sparse.mul_vec g.g_a x in
      let uvx = apply_update u v x in
      let r = Array.init n (fun i -> b.(i) -. ax.(i) -. uvx.(i)) in
      let dx = base_solve r in
      Numeric.Smw.update smw dx;
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. dx.(i)
      done
    in
    let n_active = Array.length p.diodes - if my_diode >= 0 then 1 else 0 in
    if n_active = 0 then begin
      (* Linear faulted circuit: one SMW re-solve plus one step of
         iterative refinement (gmin-scale cancellation on opens would
         otherwise cost a few digits). *)
      match Numeric.Smw.make ~z:fz ~v:fv with
      | exception Numeric.Lu.Singular _ -> singular ()
      | smw ->
          let x = y0 in
          Numeric.Smw.update smw x;
          refine smw ~u:fu ~v:fv b_fault x;
          on_path (`Rank_update (Numeric.Smw.rank smw));
          Ok (solution x)
    end
    else begin
      (* Diodes other than the faulted element stay active: their golden
         companion stamps are inside the factors, so at a guess v each
         contributes the rank-1 correction Δg_d·p_d·p_dᵀ (p_d its port
         vector) and moves its companion current by Δi_eq,d.  By
         linearity the iterate's base solution is
         y = y0 − Σ Δi_eq,d·z_d with z_d the port response solved at
         [factorise], and the moved diodes' update columns are z_d with
         Δg_d folded into V — no triangular solve per iteration.  At the
         warm start (the golden solution) every Δ is zero up to
         roundoff.

         The responses carry the golden factors' rounding.  When the
         faulted system is nearly singular — a node held only by gmin,
         such as the far side of an open supply resistor once every
         diode behind it is off — that rounding, amplified, can keep the
         iterate from settling within [vntol].  Such a fault runs again
         with one step of iterative refinement per iteration ([refine]
         with the iteration's full U, V and right-hand side), paying the
         one triangular solve per iteration the loop otherwise avoids. *)
      let rank_seen = ref (Array.length fu) in
      let solve_once ~refined v_guess =
        let y = Array.copy y0 in
        let b = if refined then Array.copy b_fault else [||] in
        let zs = ref [] and us = ref [] and vs = ref [] in
        for di = Array.length p.diodes - 1 downto 0 do
          let v = diode_v p v_guess di in
          (* A diode still at its operating-point voltage has Δg = Δi_eq
             = 0 exactly: skip the device evaluation. *)
          if di <> my_diode && v <> g.g_diode_v.(di) then begin
            let prm = snd p.diodes.(di) and lim = p.diode_lim.(di) in
            let g_op, ieq_op = g.g_diode_op.(di) in
            let gd = Float.max (conductance_with lim prm v) 1e-12 in
            let dieq = current_with lim prm v -. (gd *. v) -. ieq_op in
            let ei = fst p.diodes.(di) in
            let z = g.g_diode_z.(di) in
            if dieq <> 0.0 then begin
              for i = 0 to n - 1 do
                y.(i) <- y.(i) -. (dieq *. z.(i))
              done;
              if refined then
                Array.iter
                  (fun (i, c) -> b.(i) <- b.(i) -. (dieq *. c))
                  (port_vec p.el_a.(ei) p.el_b.(ei) 1.0)
            end;
            let dgd = gd -. g_op in
            if dgd <> 0.0 then begin
              zs := z :: !zs;
              vs := port_vec p.el_a.(ei) p.el_b.(ei) dgd :: !vs;
              if refined then us := port_vec p.el_a.(ei) p.el_b.(ei) 1.0 :: !us
            end
          end
        done;
        let z = Array.append fz (Array.of_list !zs) in
        let v = Array.append fv (Array.of_list !vs) in
        rank_seen := max !rank_seen (Array.length z);
        match Numeric.Smw.make ~z ~v with
        | exception Numeric.Lu.Singular _ -> singular ()
        | smw ->
            Numeric.Smw.update smw y;
            if refined then
              refine smw ~u:(Array.append fu (Array.of_list !us)) ~v b y;
            Ok y
      in
      let newton refined =
        newton_loop ~n_nodes:p.n_nodes (solve_once ~refined) (Array.copy g.g_x)
      in
      match
        match newton false with
        | Error (No_convergence _) ->
            (* The abandoned run's iterations count too. *)
            Result.map
              (fun (x, n) -> (x, n + max_iterations + 1))
              (newton true)
        | result -> result
      with
      | Error _ as err -> err
      | Ok (x, iterations) ->
          on_path (`Rank_update !rank_seen);
          Ok (solution ~iterations x)
    end
  end

(* ---------- observables ---------- *)

let node_voltage s n = node_v s.s_x (node_unknown s.s_p n)

let element_current s id = element_current_at s (element_index s id)

(* Sensors of one kind as (id, reading), in netlist order. *)
let sensor_readings s kind =
  let acc = ref [] in
  for idx = element_count s - 1 downto 0 do
    if Element.equal_kind (kind_at s idx) kind then
      match sensor_reading_at s idx with
      | Some r -> acc := (s.s_p.elements.(idx).Element.id, r) :: !acc
      | None -> ()
  done;
  !acc

let current_sensor_readings s = sensor_readings s Element.Current_sensor

let voltage_sensor_readings s = sensor_readings s Element.Voltage_sensor

let all_sensor_readings s = current_sensor_readings s @ voltage_sensor_readings s
