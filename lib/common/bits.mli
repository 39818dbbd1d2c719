(** Growable bitsets over non-negative ints.

    These back every points-to set, host set and relation projection in the
    analyses. A set stores only the words between its lowest and its highest
    element, so a few high ids cost a few words. All operations keep the
    cached cardinality exact; [add] and [union_into] report what changed,
    which drives the solver's delta propagation. *)

type t

(** [create ?capacity ()] is an empty set. [capacity] (default 0) pre-sizes
    the words for the elements [0, capacity), for sets that will be dense
    from 0; elements may fall outside freely. *)
val create : ?capacity:int -> unit -> t

(** [add t i] inserts [i]; returns [true] iff it was not already present. *)
val add : t -> int -> bool

(** [remove t i] deletes [i] if present. *)
val remove : t -> int -> unit

val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool

(** Empties the set and keeps its words, so reusing it allocates nothing
    until an element falls outside them. *)
val clear : t -> unit

(** The copy stores only the words from the lowest to the highest element. *)
val copy : t -> t

(** Heap words the set occupies, headers included. *)
val footprint : t -> int

(** Iterates elements in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [add_image ~into f src] adds [f.(i)] to [into] for every [i] in [src]
    (the image of [src] under the map [f]); no closure call per element. *)
val add_image : into:t -> int array -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int list -> t
val exists : (int -> bool) -> t -> bool
val for_all : (int -> bool) -> t -> bool

(** Smallest element, if any. *)
val choose : t -> int option

(** [union_into ~into src] adds every element of [src] to [into]; returns
    the delta (elements newly added) or [None] if nothing changed. The delta
    is fresh, owned by the caller, and spans only its own words. *)
val union_into : into:t -> t -> t option

(** [union_quiet ~into src] adds every element of [src] to [into] without
    materializing a delta. (No allocation beyond growing [into].) *)
val union_quiet : into:t -> t -> unit

(** [inter a b] is a fresh set of the elements in both. *)
val inter : t -> t -> t

(** Do the two sets share an element? (No allocation.) *)
val inter_nonempty : t -> t -> bool

val equal : t -> t -> bool

(** [subset a b] : is every element of [a] in [b]? *)
val subset : t -> t -> bool

val pp : Format.formatter -> t -> unit
