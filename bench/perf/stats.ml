(** Order statistics shared by the metrics and by [perf.exe compare]. *)

(** First quartile, median and third quartile, computed like Python's
    [statistics.quantiles(xs, n=4)] (the default exclusive method), so the
    spreads printed here are the ones an external check of the runs gets. A
    single value is its own quartiles. *)
let quartiles (xs : float list) : float * float * float =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no data"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(** [percentile p xs] with linear interpolation between closest ranks,
    [p] in [0, 100]. *)
let percentile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no data";
  let r = p /. 100. *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no data"
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
