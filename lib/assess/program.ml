(* A fault tree flattened into a register tape of word-wide boolean
   operations.  One evaluation of the tape decides the top event for
   [word_bits] independent trials at once: every register holds one
   machine word whose bit l is the outcome of trial lane l. *)

let word_bits = 62 + 1
(* OCaml's native int: 63 usable bits (the tag bit is gone, the sign bit
   is an ordinary lane under land/lor/lsr). *)

let all_lanes = -1
(* All 63 bits set: the identity for AND-folds and the "every trial"
   mask.  As a native int this is simply -1 (two's complement). *)

type instr =
  | Load of { dst : int; var : int }
  | And2 of { dst : int; a : int; b : int }
  | Or2 of { dst : int; a : int; b : int }
  | Atleast of { dst : int; k : int; srcs : int array; planes : int }
      (** bit-sliced vote: lane l of [dst] is set iff >= k of the source
          registers have lane l set.  [planes] is the counter width. *)

type t = {
  instrs : instr array;
  n_regs : int;
  result : int;  (** register holding the top event *)
  events : Fta.Fault_tree.event array;  (** variable index -> event *)
  max_planes : int;  (** scratch needed by the widest Atleast *)
}

let events t = t.events

let n_instrs t = Array.length t.instrs

let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 1

module Node_identity = Hashtbl.Make (struct
  type t = Fta.Fault_tree.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let compile tree =
  let instrs = ref [] in
  let n_regs = ref 0 in
  let fresh () =
    let r = !n_regs in
    incr n_regs;
    r
  in
  let emit i = instrs := i :: !instrs in
  let max_planes = ref 0 in
  (* One variable (and one Load) per distinct event id, in the
     [basic_events] order the rest of the fta layer uses. *)
  let events = Array.of_list (Fta.Fault_tree.basic_events tree) in
  let var_of_id = Hashtbl.create 16 in
  let var_regs =
    Array.mapi
      (fun v (e : Fta.Fault_tree.event) ->
        Hashtbl.replace var_of_id e.Fta.Fault_tree.event_id v;
        let dst = fresh () in
        emit (Load { dst; var = v });
        dst)
      events
  in
  (* Shared subtrees (physical identity — repeated events are already
     collapsed by the variable table) compile once. *)
  let memo = Node_identity.create 64 in
  let fold2 mk = function
    | [] -> assert false (* smart constructors forbid empty gates *)
    | [ r ] -> r
    | r :: rest ->
        List.fold_left
          (fun acc b ->
            let dst = fresh () in
            emit (mk dst acc b);
            dst)
          r rest
  in
  let rec reg node =
    match Node_identity.find_opt memo node with
    | Some r -> r
    | None ->
        let r =
          match node with
          | Fta.Fault_tree.Basic e ->
              var_regs.(Hashtbl.find var_of_id e.Fta.Fault_tree.event_id)
          | Fta.Fault_tree.And (_, cs) ->
              fold2 (fun dst a b -> And2 { dst; a; b }) (List.map reg cs)
          | Fta.Fault_tree.Or (_, cs) ->
              fold2 (fun dst a b -> Or2 { dst; a; b }) (List.map reg cs)
          | Fta.Fault_tree.Koon (_, k, cs) ->
              let n = List.length cs in
              let srcs = Array.of_list (List.map reg cs) in
              if k = 1 then fold2 (fun dst a b -> Or2 { dst; a; b }) (Array.to_list srcs)
              else if k = n then
                fold2 (fun dst a b -> And2 { dst; a; b }) (Array.to_list srcs)
              else begin
                let planes = bits_for n in
                if planes > !max_planes then max_planes := planes;
                let dst = fresh () in
                emit (Atleast { dst; k; srcs; planes });
                dst
              end
        in
        Node_identity.replace memo node r;
        r
  in
  let result = reg tree in
  {
    instrs = Array.of_list (List.rev !instrs);
    n_regs = !n_regs;
    result;
    events;
    max_planes = !max_planes;
  }

type scratch = { regs : int array; planes : int array }

let scratch t =
  { regs = Array.make t.n_regs 0; planes = Array.make (max t.max_planes 1) 0 }

(* Hot path: straight-line array walk, integer ops only — no allocation,
   no floats, so the no-flambda build stays unboxed throughout. *)
let eval t { regs; planes } ~(vars : int array) =
  let instrs = t.instrs in
  for i = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs i with
    | Load { dst; var } -> Array.unsafe_set regs dst (Array.unsafe_get vars var)
    | And2 { dst; a; b } ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs a land Array.unsafe_get regs b)
    | Or2 { dst; a; b } ->
        Array.unsafe_set regs dst
          (Array.unsafe_get regs a lor Array.unsafe_get regs b)
    | Atleast { dst; k; srcs; planes = np } ->
        (* Bit-sliced counter: plane j holds bit j of the per-lane count
           of set sources.  Each source word ripples in carry-save
           style; np planes hold counts up to [2^np - 1 >= n]. *)
        for j = 0 to np - 1 do
          Array.unsafe_set planes j 0
        done;
        for s = 0 to Array.length srcs - 1 do
          let carry = ref (Array.unsafe_get regs (Array.unsafe_get srcs s)) in
          let j = ref 0 in
          while !carry <> 0 && !j < np do
            let p = Array.unsafe_get planes !j in
            Array.unsafe_set planes !j (p lxor !carry);
            carry := p land !carry;
            incr j
          done
        done;
        (* Per-lane comparator count >= k, MSB first: [eq] tracks lanes
           still tied with k on the bits seen so far, [ge] the lanes
           already strictly greater. *)
        let ge = ref 0 and eq = ref all_lanes in
        for j = np - 1 downto 0 do
          let p = Array.unsafe_get planes j in
          if (k lsr j) land 1 = 0 then ge := !ge lor (!eq land p)
          else eq := !eq land p
        done;
        Array.unsafe_set regs dst (!ge lor !eq)
  done;
  Array.unsafe_get regs t.result
