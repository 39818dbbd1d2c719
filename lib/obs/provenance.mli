(** A first-derivation recorder for fixpoint engines.

    The solver (opt-in, for the [explain] command) records, for every
    points-to fact [(ptr, obj)], the event that first derived it. Because facts only enter the engine through recorded events and the
    first record wins, following {!reason} parents always terminates in a
    {!reason.Seed}, giving a (worklist-order, hence near-shortest) derivation
    chain — the "why does [x] point to [o]" answer Doop and Tai-e users get
    from their provenance tooling.

    Identifiers are opaque ints (pointer ids, object ids, site ids); the
    engine renders them. *)

type reason =
  | Seed of { label : string }
      (** the fact entered directly: ["alloc"], ["receiver"], ["relay"] … *)
  | Flow of { src : int; via : string }
      (** flowed from pointer [src] along a PFG edge of kind [via] *)

type t

(** [max_records] bounds the recorder's memory (default: unbounded). Once
    [size t] reaches the bound, *new* facts are counted in {!dropped} instead
    of being stored — re-records of already-held facts are still no-ops, so
    everything recorded below the bound keeps its full chain. Chains through
    a dropped fact simply end early, exactly like a chain queried for an
    unrecorded fact. *)
val create : ?max_records:int -> unit -> t

(** First write wins; later records of the same fact are ignored. *)
val record_seed : t -> ptr:int -> obj:int -> label:string -> unit

val record_flow : t -> ptr:int -> obj:int -> src:int -> via:string -> unit

val reason : t -> ptr:int -> obj:int -> reason option

(** Derivation chain from [(ptr, obj)] back to its seed: the queried pointer
    first. Empty if the fact was never recorded; truncated at [limit]
    (default 64) or on a (theoretically impossible) cycle. *)
val chain : ?limit:int -> t -> ptr:int -> obj:int -> (int * reason) list

(** Number of recorded points-to facts. *)
val size : t -> int

(** Number of facts refused because the [max_records] bound was hit. *)
val dropped : t -> int
