(* Host-speed probe.  The benchmark runs on shared virtual CPUs whose
   speed moves with the load of the machine underneath: a fixed CPU loop,
   pinned, takes between 1x and 1.5x its best time, switching every
   hundred milliseconds or so and drifting over tens of seconds and
   minutes, with no steal time recorded.  Every op's time moves with it,
   by as much as 40 % between runs minutes apart, so raw figures measure
   the host as much as the program.

   [sample] times a fixed kernel of the generator's own code (allocation,
   hashing, sorting and a small dense LU, the mix of the analyses it
   drives) on the same pinned CPU, next to the ops: one sample before the
   first op of a phase and one after every op (Loop.run), and one either
   side of every set-up ([timed]).  The kernel never calls the system
   under test, so no change to the program can move it.  A duration
   measured between two samples [a] and [b] is reported in reference
   seconds: multiplied by [factor a b], the kernel's reference time over
   its mean time in the two samples.  That is the duration the host would
   have given at its reference speed; a program that gets faster or
   slower moves the figure just as it moves the raw time. *)

(* About the kernel's time on an uncontended core of a 2 GHz Xeon KVM
   guest (1.9-2.1 ms): the scale of the reported figures, so that they
   read close to what such a core measures.  Nothing else depends on it. *)
let reference_s = 0.002

let lu n seed =
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let x = float_of_int (((i * 31) + (j * 17) + seed) mod 97) in
            if i = j then x +. float_of_int (4 * n) else x /. 97.0))
  in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    let t = a.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- t;
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      let ri = a.(i) and rk = a.(k) in
      for j = k to n - 1 do
        ri.(j) <- ri.(j) -. (f *. rk.(j))
      done
    done
  done;
  a.(n - 1).(n - 1)

let kernel () =
  let h = Hashtbl.create 64 in
  let l = List.init 4000 (fun i -> (i * 7919) mod 4001, string_of_int i) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  let s = List.sort compare l in
  let found = List.fold_left (fun n (k, _) -> if Hashtbl.mem h (k + 1) then n + 1 else n) 0 s in
  let d = lu 40 found in
  ignore (Sys.opaque_identity (found, d))

let sample () =
  let t0 = Sut.now () in
  kernel ();
  Sut.now () -. t0

let factor a b = reference_s /. ((a +. b) /. 2.0)

(* [f ()] and its duration in reference seconds, probed either side. *)
let timed f =
  let a = sample () in
  let t0 = Sut.now () in
  let v = f () in
  let t = Sut.now () -. t0 in
  (v, t *. factor a (sample ()))
