(** Deterministic splitmix64 PRNG (Steele et al.).

    The workload generator must be reproducible across runs and platforms,
    so [Stdlib.Random] is avoided. Same seed, same sequence, everywhere.

    There is no global generator: all state lives in the [t] handle, which
    callers thread explicitly (the fuzzer derives one generator per program
    from the campaign seed). *)

type t

val create : int -> t

(** Next raw 64-bit output. *)
val next : t -> int64

(** Uniform in [0, bound); raises on [bound <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** True with probability [p] percent. *)
val chance : t -> int -> bool

val pick : t -> 'a array -> 'a
val pick_list : t -> 'a list -> 'a

(** Uniform in [lo, hi] inclusive. *)
val range : t -> int -> int -> int
