include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Fibonacci hashing: the multiplier is 2^64 / golden ratio, cut to fit
     a 63-bit int and kept odd *)
  let hash k =
    let h = k * 0x1E3779B97F4A7C15 in
    h lxor (h lsr 32)
end)
