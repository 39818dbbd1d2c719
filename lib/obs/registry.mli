(** A registry of typed metrics with direct-mutation handles.

    Hot loops obtain a {!counter}/{!gauge} handle once (at solver creation)
    and update it with a single field write — no hashing on the hot path, so
    instrumentation costs the same as the mutable-record stats it replaces.
    {!snapshot} freezes the registry into a {!Snapshot.t} at any time, even
    mid-run (the solver's timeout path snapshots the aborted state). *)

type t
type counter
type gauge
type histogram

val create : unit -> t

(** Handles are memoized per (name, labels): a second registration returns
    the same handle. *)
val counter : t -> ?labels:(string * string) list -> string -> counter

val gauge : t -> ?labels:(string * string) list -> string -> gauge

(** [buckets] are ascending upper bounds; an overflow bucket is implicit. *)
val histogram :
  t -> ?labels:(string * string) list -> buckets:float list -> string -> histogram

val incr : ?by:int -> counter -> unit
val value : counter -> int

val set : gauge -> float -> unit

(** Keep the maximum of all observations (e.g. peak heap). *)
val set_max : gauge -> float -> unit

val gauge_value : gauge -> float
val observe : histogram -> float -> unit
val snapshot : t -> Snapshot.t
