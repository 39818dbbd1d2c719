(** Growable bitsets over dense non-negative ints.

    These back every points-to set, host set and relation column in the
    analyses, so the representation is kept flat: an [int array] of 63-bit
    words plus a cached cardinality. All mutating operations keep the
    cardinality exact. *)

type t = {
  mutable words : int array;
  mutable card : int;
}

let word_bits = Sys.int_size (* 63 on 64-bit *)

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

(* Index of the single set bit of [b], a power of two ([min_int], the sign
   bit, included), by binary search: six steps whatever the position. *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFF_FFFF = 0 then begin n := 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then n := !n + 1;
  !n

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

(** [iter_diff f src excl] visits every element of [src \ excl] in increasing
    order without allocating a difference set. *)
let iter_diff f src excl =
  let words = src.words and ew = excl.words in
  let ne = Array.length ew in
  for w = 0 to Array.length words - 1 do
    let x = ref (words.(w) land lnot (if w < ne then ew.(w) else 0)) in
    let base = w * word_bits in
    while !x <> 0 do
      let b = !x land - !x in
      f (base + bit_index b);
      x := !x land lnot b
    done
  done

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
    the delta (elements newly added), or [None] when nothing changed. *)
let union_into ~into src =
  let delta = ref None in
  let get_delta () =
    match !delta with
    | Some d -> d
    | None ->
      let d = create () in
      delta := Some d;
      d
  in
  let n = Array.length src.words in
  ensure into ((n * word_bits) - 1);
  for w = 0 to n - 1 do
    let s = src.words.(w) and d = into.words.(w) in
    let fresh = s land lnot d in
    if fresh <> 0 then begin
      into.words.(w) <- d lor fresh;
      let x = ref fresh in
      let cnt = ref 0 in
      while !x <> 0 do
        incr cnt;
        x := !x land (!x - 1)
      done;
      into.card <- into.card + !cnt;
      let dl = get_delta () in
      ensure dl ((w + 1) * word_bits - 1);
      dl.words.(w) <- fresh;
      dl.card <- dl.card + !cnt
    end
  done;
  !delta

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
      let x = ref fresh in
      let cnt = ref 0 in
      while !x <> 0 do
        incr cnt;
        x := !x land (!x - 1)
      done;
      into.card <- into.card + !cnt
    end
  done

let inter_nonempty a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go w = w < n && (a.words.(w) land b.words.(w) <> 0 || go (w + 1)) in
  go 0

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
