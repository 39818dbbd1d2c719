(** Growable bitsets over dense non-negative ints.

    These back every points-to set, host set and relation column in the
    analyses, so the representation is kept flat: an [int array] of 63-bit
    words plus a cached cardinality. All mutating operations keep the
    cardinality exact. *)

type t = {
  mutable words : int array;
  mutable card : int;
}

let word_bits = 63 (* 64-bit OCaml ints; [bit_index] and [popcount] rely on it *)

let create ?(capacity = 64) () =
  let nwords = (capacity + word_bits - 1) / word_bits in
  { words = Array.make (max nwords 1) 0; card = 0 }

let ensure t i =
  let w = i / word_bits in
  if w >= Array.length t.words then begin
    let n = ref (Array.length t.words * 2) in
    while w >= !n do n := !n * 2 done;
    let words = Array.make !n 0 in
    Array.blit t.words 0 words 0 (Array.length t.words);
    t.words <- words
  end

let mem t i =
  let w = i / word_bits in
  w < Array.length t.words
  && t.words.(w) land (1 lsl (i mod word_bits)) <> 0

(** [add t i] returns [true] iff [i] was not already present. *)
let add t i =
  ensure t i;
  let w = i / word_bits and b = i mod word_bits in
  let old = t.words.(w) in
  let nw = old lor (1 lsl b) in
  if nw = old then false
  else begin
    t.words.(w) <- nw;
    t.card <- t.card + 1;
    true
  end

let remove t i =
  let w = i / word_bits and b = i mod word_bits in
  if w < Array.length t.words then begin
    let old = t.words.(w) in
    let nw = old land lnot (1 lsl b) in
    if nw <> old then begin
      t.words.(w) <- nw;
      t.card <- t.card - 1
    end
  end

let cardinal t = t.card
let is_empty t = t.card = 0

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

let copy t = { words = Array.copy t.words; card = t.card }

(* Index of the single set bit of [b], a power of two: 2 is a primitive
   root modulo 67, so the residues of 2^0 .. 2^61 are distinct and index a
   table; the sign bit ([min_int], bit 62) is the one negative case. No
   branch depends on the position, unlike a binary search. *)
let bit_of_residue =
  let t = Array.make 67 0 in
  for i = 0 to 61 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

let bit_index b = if b < 0 then 62 else Array.unsafe_get bit_of_residue (b mod 67)

let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let x = ref words.(w) in
    let base = w * word_bits in
    while !x <> 0 do
      let b = !x land - !x in
      f (base + bit_index b);
      x := !x land lnot b
    done
  done

(** [add_image ~into f src] adds [f.(i)] to [into] for every [i] in [src]:
    the image of [src] under the int map [f], with no call per element. *)
let add_image ~into (f : int array) src =
  let words = src.words in
  for w = 0 to Array.length words - 1 do
    let x = ref words.(w) in
    let base = w * word_bits in
    while !x <> 0 do
      let b = !x land - !x in
      ignore (add into f.(base + bit_index b));
      x := !x land lnot b
    done
  done

(* set bits of a word, counted in parallel within pairs, nibbles and
   bytes, then summed by one multiply into the top byte *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i l -> i :: l) t [])

let of_list l =
  let t = create () in
  List.iter (fun i -> ignore (add t i)) l;
  t

let exists p t =
  try
    iter (fun i -> if p i then raise Exit) t;
    false
  with Exit -> true

let for_all p t = not (exists (fun i -> not (p i)) t)

let choose t =
  if is_empty t then None
  else
    let r = ref (-1) in
    (try iter (fun i -> r := i; raise Exit) t with Exit -> ());
    Some !r

(** [union_into ~into src] adds every element of [src] to [into] and returns
    the delta (elements newly added), or [None] when nothing changed. The
    delta is allocated once, as wide as the last word with fresh bits. *)
let union_into ~into src =
  let sw = src.words in
  let rec last_fresh w =
    if w < 0 then w
    else
      let d = if w < Array.length into.words then into.words.(w) else 0 in
      if sw.(w) land lnot d <> 0 then w else last_fresh (w - 1)
  in
  let hi = last_fresh (Array.length sw - 1) in
  if hi < 0 then None
  else begin
    ensure into ((hi + 1) * word_bits - 1);
    let iw = into.words and dw = Array.make (hi + 1) 0 in
    let card = ref 0 in
    for w = 0 to hi do
      let s = sw.(w) and d = iw.(w) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        iw.(w) <- d lor fresh;
        dw.(w) <- fresh;
        card := !card + popcount fresh
      end
    done;
    into.card <- into.card + !card;
    Some { words = dw; card = !card }
  end

(** [union_quiet ~into src] adds every element of [src] to [into] without
    materializing a delta — the no-allocation variant of {!union_into} for
    callers that don't need to know what changed. *)
let union_quiet ~into src =
  let n = Array.length src.words in
  ensure into ((n * word_bits) - 1);
  for w = 0 to n - 1 do
    let s = src.words.(w) and d = into.words.(w) in
    let fresh = s land lnot d in
    if fresh <> 0 then begin
      into.words.(w) <- d lor fresh;
      into.card <- into.card + popcount fresh
    end
  done

let inter a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let words = Array.make (max n 1) 0 and card = ref 0 in
  for w = 0 to n - 1 do
    let x = a.words.(w) land b.words.(w) in
    words.(w) <- x;
    card := !card + popcount x
  done;
  { words; card = !card }

let inter_nonempty a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let w = ref 0 in
  while !w < n && a.words.(!w) land b.words.(!w) = 0 do
    incr w
  done;
  !w < n

let equal a b =
  let n = max (Array.length a.words) (Array.length b.words) in
  let word t w = if w < Array.length t.words then t.words.(w) else 0 in
  a.card = b.card
  &&
  let rec go w = w >= n || (word a w = word b w && go (w + 1)) in
  go 0

let subset a b =
  (* cardinality early-exit, then a word loop that stops scanning [b] at its
     own length: any word of [a] beyond [b]'s words must be zero *)
  a.card <= b.card
  &&
  let aw = a.words and bw = b.words in
  let na = Array.length aw and nb = Array.length bw in
  let shared = if na < nb then na else nb in
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < shared do
    if aw.(!w) land lnot bw.(!w) <> 0 then ok := false;
    incr w
  done;
  while !ok && !w < na do
    if aw.(!w) <> 0 then ok := false;
    incr w
  done;
  !ok

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (to_list t)
