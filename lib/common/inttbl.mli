(** Hash tables and sets keyed by non-negative [int]s.

    The analyses key their hot tables (PFG edge dedup, pointer interning,
    reachability, call edges, dispatch, CSC bookkeeping) by packed ints.
    These tables use open addressing with linear probing: keys sit unboxed
    in one power-of-two array, so a lookup is a multiply, a mask and a
    scan of adjacent slots, and an insertion allocates nothing until the
    table doubles at load 3/4. A free slot holds [-1], so keys must be
    non-negative: every operation raises [Invalid_argument] on a negative
    key. A key is bound at most once; there is no removal and no
    shadowing. *)

type 'a t

(** [create n] is an empty table sized for [n] keys without growing. *)
val create : int -> 'a t

(** Bind [k] to [v], replacing any earlier binding. *)
val replace : 'a t -> int -> 'a -> unit

(** Same as {!replace}: the callers bind a key only after a lookup
    missed, so a binding never needs to hide an earlier one. *)
val add : 'a t -> int -> 'a -> unit

(** Raises [Not_found] if [k] is unbound. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** Number of bound keys. *)
val length : 'a t -> int

(** Longest probe sequence over the bound keys: how many slots a lookup
    of the worst-placed key visits (1 when every key sits in its home
    slot). A measure of how well the hash spreads the keys. *)
val max_probe : 'a t -> int

(** [iter f t] applies [f] to every binding, in slot order. *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

(** Heap words of the table's own blocks (its record and arrays, headers
    included), not of the values it holds. *)
val words : 'a t -> int

(** Sets of non-negative ints, the same table without values. *)
module Set : sig
  type t

  val create : int -> t

  (** [add s k] inserts [k]; [true] iff it was not already present. *)
  val add : t -> int -> bool

  val mem : t -> int -> bool
  val length : t -> int
  val max_probe : t -> int

  (** Heap words of the set's record and key array. *)
  val words : t -> int
end
