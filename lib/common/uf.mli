(** Growable union-find over dense non-negative ints.

    Backs the solver's online cycle collapsing: pointer nodes found on an
    unfiltered copy cycle are merged into one representative and every
    subsequent table access is redirected through {!find}. Ids outside the
    current capacity are implicitly singleton roots, so the structure can be
    created empty and grown lazily as ids are interned. *)

type t

(** [create ?capacity ()] — every id starts as its own root. *)
val create : ?capacity:int -> unit -> t

(** Representative of [i]'s class (path-halving; amortized ~O(1)).
    Ids never unioned are their own representative. *)
val find : t -> int -> int

(** [union t a b] merges the classes of [a] and [b]. Returns
    [Some (rep, absorbed)] where [rep] is the surviving representative and
    [absorbed] the root that lost (union by rank), or [None] when the two
    were already in the same class. *)
val union : t -> int -> int -> (int * int) option

(** Is [i] its own representative? (True for never-unioned ids.) *)
val is_rep : t -> int -> bool

(** Number of ids merged away so far (= unions that returned [Some _]). *)
val merged_count : t -> int

(** [members t ~universe] groups the ids [0 .. universe-1] by class:
    every representative with a class of size [>= 2] is paired with all its
    members (itself included), in increasing id order. *)
val members : t -> universe:int -> (int * int list) list
