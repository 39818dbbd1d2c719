(** Growable bitsets over non-negative ints.

    These back every points-to set, host set and relation column in the
    analyses, so the representation is kept flat: an [int array] of 63-bit
    words plus a base word and a cached cardinality. [words.(k)] holds the
    elements of word [lo + k], so a set stores only the words from its
    lowest to its highest element (plus growth slack) and a set of a few
    high ids costs a few words. All mutating operations keep the
    cardinality exact. *)

type t = {
  mutable lo : int;  (* word index of [words.(0)] *)
  mutable words : int array;
  mutable card : int;
}

let word_bits = 63 (* 64-bit OCaml ints; [bit_index] and [popcount] rely on it *)

let create ?(capacity = 0) () =
  let nwords = (capacity + word_bits - 1) / word_bits in
  { lo = 0; words = Array.make nwords 0; card = 0 }

(* word [a] (absolute) of [t]; zero outside its range *)
let word t a =
  let k = a - t.lo in
  if k >= 0 && k < Array.length t.words then Array.unsafe_get t.words k else 0

(* Make [t] cover words [wlo, whi]. An empty set's words are all zero, so
   it is rebased there instead (its array reused when long enough). A
   nonempty set grows each overflowing side by at least its length, so
   adds stay amortized O(1); the low side stops at word 0. *)
let ensure t wlo whi =
  let len = Array.length t.words in
  let hi = t.lo + len in
  if wlo < t.lo || whi >= hi then
    if t.card = 0 then begin
      if whi - wlo >= len then t.words <- Array.make (whi - wlo + 1) 0;
      t.lo <- wlo
    end
    else begin
      let nlo = if wlo < t.lo then max 0 (min wlo (t.lo - len)) else t.lo in
      let nhi = if whi >= hi then max (whi + 1) (hi + len) else hi in
      let words = Array.make (nhi - nlo) 0 in
      Array.blit t.words 0 words (t.lo - nlo) len;
      t.lo <- nlo;
      t.words <- words
    end

let mem t i = word t (i / word_bits) land (1 lsl (i mod word_bits)) <> 0

(** [add t i] returns [true] iff [i] was not already present. *)
let add t i =
  let w = i / word_bits in
  ensure t w w;
  let k = w - t.lo in
  let old = t.words.(k) in
  let nw = old lor (1 lsl (i mod word_bits)) in
  if nw = old then false
  else begin
    t.words.(k) <- nw;
    t.card <- t.card + 1;
    true
  end

let remove t i =
  let k = (i / word_bits) - t.lo in
  if k >= 0 && k < Array.length t.words then begin
    let old = t.words.(k) in
    let nw = old land lnot (1 lsl (i mod word_bits)) in
    if nw <> old then begin
      t.words.(k) <- nw;
      t.card <- t.card - 1
    end
  end

let cardinal t = t.card
let is_empty t = t.card = 0

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

(* first and last nonzero word of [ws], as indices; [(n, -1)] if none *)
let nonzero_span ws =
  let n = Array.length ws in
  let f = ref 0 in
  while !f < n && ws.(!f) = 0 do incr f done;
  let l = ref (n - 1) in
  while !l > !f && ws.(!l) = 0 do decr l done;
  if !f = n then (n, -1) else (!f, !l)

(* the copy drops the zero words at either end *)
let copy t =
  let f, l = nonzero_span t.words in
  if l < 0 then create ()
  else { lo = t.lo + f; words = Array.sub t.words f (l - f + 1); card = t.card }

(* the record, and the word array unless it is [[||]], a static atom *)
let footprint t =
  let n = Array.length t.words in
  4 + if n = 0 then 0 else n + 1

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
    let base = (t.lo + w) * word_bits in
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
    let base = (src.lo + w) * word_bits in
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
    the delta (elements newly added), or [None] when nothing changed. Only
    [src]'s words are scanned; the delta is allocated once, over the words
    from the first to the last with fresh bits. *)
let union_into ~into src =
  let sw = src.words and off = src.lo in
  let fresh k = sw.(k) land lnot (word into (off + k)) in
  let n = Array.length sw in
  let f = ref 0 in
  while !f < n && fresh !f = 0 do incr f done;
  if !f = n then None
  else begin
    let l = ref (n - 1) in
    while fresh !l = 0 do decr l done;
    let f = !f and l = !l in
    ensure into (off + f) (off + l);
    let iw = into.words and ioff = off - into.lo in
    let dw = Array.make (l - f + 1) 0 in
    let card = ref 0 in
    for k = f to l do
      let d = iw.(ioff + k) in
      let fresh = sw.(k) land lnot d in
      if fresh <> 0 then begin
        iw.(ioff + k) <- d lor fresh;
        dw.(k - f) <- fresh;
        card := !card + popcount fresh
      end
    done;
    into.card <- into.card + !card;
    Some { lo = off + f; words = dw; card = !card }
  end

(** [union_quiet ~into src] adds every element of [src] to [into] without
    materializing a delta — the no-allocation variant of {!union_into} for
    callers that don't need to know what changed. [into] grows to cover
    [src]'s nonzero words only. *)
let union_quiet ~into src =
  let sw = src.words in
  let f, l = nonzero_span sw in
  if l >= 0 then begin
    ensure into (src.lo + f) (src.lo + l);
    let iw = into.words and ioff = src.lo - into.lo in
    for k = f to l do
      let s = sw.(k) and d = iw.(ioff + k) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        iw.(ioff + k) <- d lor fresh;
        into.card <- into.card + popcount fresh
      end
    done
  end

(* words [olo, ohi) (absolute) where both ranges overlap; empty if none *)
let overlap a b =
  (max a.lo b.lo, min (a.lo + Array.length a.words) (b.lo + Array.length b.words))

let inter a b =
  let olo, ohi = overlap a b in
  let both w = a.words.(w - a.lo) land b.words.(w - b.lo) in
  let f = ref olo in
  while !f < ohi && both !f = 0 do incr f done;
  if !f >= ohi then create ()
  else begin
    let l = ref (ohi - 1) in
    while both !l = 0 do decr l done;
    let f = !f in
    let words = Array.init (!l - f + 1) (fun k -> both (f + k)) in
    let card = Array.fold_left (fun c x -> c + popcount x) 0 words in
    { lo = f; words; card }
  end

let inter_nonempty a b =
  let olo, ohi = overlap a b in
  let w = ref olo in
  while !w < ohi && a.words.(!w - a.lo) land b.words.(!w - b.lo) = 0 do
    incr w
  done;
  !w < ohi

let subset a b =
  (* cardinality early-exit, then a word loop over [a]'s range that stops at
     the first word with an element missing from [b] *)
  a.card <= b.card
  &&
  let aw = a.words in
  let n = Array.length aw in
  let w = ref 0 in
  while !w < n && aw.(!w) land lnot (word b (a.lo + !w)) = 0 do
    incr w
  done;
  !w = n

(* equal cardinalities and one inclusion make the sets equal *)
let equal a b = a.card = b.card && subset a b

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (to_list t)
