(* Lock-free accounting: the parallel store evaluators charge and release
   from several domains at once, so the counter is an [Atomic] updated by
   compare-and-set — a failed charge must leave the budget untouched, and
   concurrent charges must never over-commit past [max]. *)

type t = { max : int; used : int Atomic.t }

exception Overflow of { requested : int; available : int }

let create ~max_bytes =
  if max_bytes <= 0 then invalid_arg "Budget.create: non-positive budget";
  { max = max_bytes; used = Atomic.make 0 }

let bytes_per_element = 96

let rec charge_elements t n =
  let requested = n * bytes_per_element in
  let current = Atomic.get t.used in
  let available = t.max - current in
  if requested > available then raise (Overflow { requested; available });
  if not (Atomic.compare_and_set t.used current (current + requested)) then
    charge_elements t n

let rec release_elements t n =
  let current = Atomic.get t.used in
  let next = Int.max 0 (current - (n * bytes_per_element)) in
  if not (Atomic.compare_and_set t.used current next) then release_elements t n

let used_bytes t = Atomic.get t.used

let max_bytes t = t.max
