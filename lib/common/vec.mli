(** Growable arrays ("vectors") used for dense id-indexed tables. *)

type 'a t

(** [create ?capacity dummy] — [dummy] fills auto-grown slots and backs the
    storage; it is never returned unless stored or grown into. *)
val create : ?capacity:int -> 'a -> 'a t

val length : 'a t -> int

(** Heap words of the vector's record and backing array, headers
    included, not of the elements it points to. *)
val words : 'a t -> int
val push : 'a t -> 'a -> unit

(** Push and return the new element's index. *)
val push_idx : 'a t -> 'a -> int

(** Bounds-checked access; raises [Invalid_argument]. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** Like [get] but returns the dummy beyond the end. *)
val get_or : 'a t -> int -> 'a

(** [set_grow t i x] extends with the dummy up to [i] if needed. *)
val set_grow : 'a t -> int -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a -> 'a list -> 'a t
val clear : 'a t -> unit
val pop : 'a t -> 'a option
