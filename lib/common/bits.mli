(** Growable bitsets over dense non-negative ints.

    These back every points-to set, host set and relation projection in the
    analyses. All operations keep the cached cardinality exact; [add] and
    [union_into] report what changed, which drives the solver's delta
    propagation. *)

type t

(** [create ?capacity ()] is an empty set; [capacity] pre-sizes the backing
    words (elements may exceed it freely). *)
val create : ?capacity:int -> unit -> t

(** [add t i] inserts [i]; returns [true] iff it was not already present. *)
val add : t -> int -> bool

(** [remove t i] deletes [i] if present. *)
val remove : t -> int -> unit

val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val clear : t -> unit
val copy : t -> t

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
    is fresh and owned by the caller. *)
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
