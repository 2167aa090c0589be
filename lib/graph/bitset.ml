type t = { size : int; words : int array }

let bits_per_word = 63

let create size =
  if size < 0 then invalid_arg "Bitset.create: negative size";
  { size; words = Array.make ((size + bits_per_word - 1) / bits_per_word) 0 }

let length t = t.size

let check t i =
  if i < 0 || i >= t.size then
    invalid_arg (Printf.sprintf "Bitset: index %d outside [0,%d)" i t.size)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* SWAR: bit-pair counts, then nibble and byte counts, then one multiply
   sums the bytes into the top byte.  The 64-bit masks lose their bit 63
   in a 63-bit int; the top byte (bits 56..62) still holds any count up
   to 63, and no table is built at module load. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let union_into ~into s =
  if into.size <> s.size then invalid_arg "Bitset.union_into: size mismatch";
  let changed = ref false in
  Array.iteri
    (fun i w ->
      let merged = into.words.(i) lor w in
      if merged <> into.words.(i) then begin
        into.words.(i) <- merged;
        changed := true
      end)
    s.words;
  !changed

let subset a b =
  if a.size <> b.size then invalid_arg "Bitset.subset: size mismatch";
  let n = Array.length a.words in
  let rec go i =
    i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

let equal a b = a.size = b.size && a.words = b.words

let iter f t =
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to bits_per_word - 1 do
          if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
        done)
    t.words

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let copy t = { size = t.size; words = Array.copy t.words }
