(** Deterministic splitmix64 PRNG.

    The workload generator must be reproducible across runs and platforms, so
    we avoid [Random] and implement splitmix64 (Steele et al.) directly. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

(** [chance t p] is true with probability [p] (percent, 0-100). *)
let chance t p = int t 100 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick";
  arr.(int t (Array.length arr))

let pick_list t l = pick t (Array.of_list l)

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range";
  lo + int t (hi - lo + 1)
