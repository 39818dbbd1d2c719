(* Open addressing with linear probing. [keys] has a power-of-two length
   and holds [empty] in every free slot; a map's values sit at the same
   index in [vals], which stays [||] until the first value is stored so
   that it can be built from a real value of the right type. *)

let empty = -1

(* Fibonacci hashing: the multiplier is 2^64 / golden ratio, cut to fit a
   63-bit int and kept odd; the product's high half is folded into the low
   bits that the mask keeps *)
let hash k =
  let h = k * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 32)

let check k = if k < 0 then invalid_arg "Inttbl: negative key"

(* smallest power of two (at least 8) that holds [n] keys at load 3/4 *)
let capacity n =
  let c = ref 8 in
  while !c * 3 < n * 4 do
    c := !c * 2
  done;
  !c

(* index of [k] in [keys], or of the free slot where it would go; load
   3/4 guarantees a free slot, so the probe ends *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i else probe keys mask k ((i + 1) land mask)

let slot keys k =
  let mask = Array.length keys - 1 in
  probe keys mask k (hash k land mask)

let full size keys = (size + 1) * 4 > Array.length keys * 3

type 'a t = { mutable keys : int array; mutable vals : 'a array; mutable size : int }

let create n = { keys = Array.make (capacity n) empty; vals = [||]; size = 0 }
let length t = t.size

let find t k =
  check k;
  let i = slot t.keys k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
  else raise Not_found

let find_opt t k =
  check k;
  let i = slot t.keys k in
  if Array.unsafe_get t.keys i = k then Some (Array.unsafe_get t.vals i)
  else None

let mem t k =
  check k;
  Array.unsafe_get t.keys (slot t.keys k) = k

let grow t v =
  let keys = Array.make (2 * Array.length t.keys) empty in
  let vals = Array.make (Array.length keys) v in
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = slot keys k in
        Array.unsafe_set keys j k;
        Array.unsafe_set vals j (Array.unsafe_get t.vals i)
      end)
    t.keys;
  t.keys <- keys;
  t.vals <- vals

let replace t k v =
  check k;
  if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) v;
  let i = slot t.keys k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
  else begin
    let i = if full t.size t.keys then (grow t v; slot t.keys k) else i in
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1
  end

let add = replace

(* longest probe sequence: slots visited to find the worst-placed key *)
let max_probe_of keys =
  let mask = Array.length keys - 1 in
  let worst = ref 0 in
  Array.iteri
    (fun i k ->
      if k <> empty then worst := max !worst (((i - hash k) land mask) + 1))
    keys;
  !worst

let max_probe t = max_probe_of t.keys

let iter f t =
  Array.iteri
    (fun i k -> if k <> empty then f k (Array.unsafe_get t.vals i))
    t.keys

(* an array block is its length plus a header word; [||] is an atom *)
let array_words a = if Array.length a = 0 then 0 else Array.length a + 1
let words t = 4 + array_words t.keys + array_words t.vals

module Set = struct
  type t = { mutable keys : int array; mutable size : int }

  let create n = { keys = Array.make (capacity n) empty; size = 0 }
  let length t = t.size

  let mem t k =
    check k;
    Array.unsafe_get t.keys (slot t.keys k) = k

  let grow t =
    let keys = Array.make (2 * Array.length t.keys) empty in
    Array.iter
      (fun k -> if k <> empty then Array.unsafe_set keys (slot keys k) k)
      t.keys;
    t.keys <- keys

  let add t k =
    check k;
    let i = slot t.keys k in
    Array.unsafe_get t.keys i <> k
    && begin
      let i = if full t.size t.keys then (grow t; slot t.keys k) else i in
      Array.unsafe_set t.keys i k;
      t.size <- t.size + 1;
      true
    end

  let max_probe t = max_probe_of t.keys
  let words t = 3 + array_words t.keys
end
