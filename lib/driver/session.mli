(** A resident analysis session: compiled programs and solved outcomes kept
    warm across requests.

    This is the session-oriented face of the driver. Batch CLI runs create
    one, use it for the process lifetime and throw it away; the analysis
    server ([Csc_server]) keeps one alive across requests so a repeat query
    is answered straight from cache. Two caches sit inside:

    - programs, keyed by the MD5 digest of their MiniJava source (so an
      edited file re-compiles and an unchanged one never does), capped by
      entry count;
    - solved {!Run.outcome}s, keyed by [(source digest, Run.spec_key spec)],
      evicted least-recently-used once the estimated resident size exceeds
      the [max_mem_bytes] bound.

    Sizes are estimated with [Obj.reachable_words] on the cached outcome — an
    over-approximation (entries share the program and may share solver
    structure) that errs toward evicting early, never toward unbounded
    growth. The session is single-writer: callers serialize access (the
    server handles one request at a time; the CLI is sequential), so there
    is no internal locking. *)

module Ir = Csc_ir.Ir
module Json = Csc_obs.Json

type t

(** [create ()] with [max_mem_bytes] bounding the result cache (default
    1 GiB). The session counters (hits, misses, evictions, entries, bytes)
    live in [registry], so they show up in its snapshots; without one the
    session keeps a private registry. *)
val create : ?max_mem_bytes:int -> ?registry:Csc_obs.Registry.t -> unit -> t

(** Hex MD5 of a source text — the program-cache key. *)
val digest_of_source : string -> string

(** Compile [source] and check the lowered IR with
    {!Csc_ir.Validate.check}, once per digest: the program cache keeps only
    programs that pass both. [name] is used in error messages only. [Error]
    carries the compiler's message, which for a syntax or semantic error
    reads [<name>:<line>:<col>: <message>], or the validator's findings. *)
val load_source :
  t -> name:string -> string -> (Ir.program * string, string) result

(** Resolve [spec] as a workload-suite name, else as a path to a [.mjava]
    file, and compile through the program cache. [`Not_found] when [spec]
    is neither, or names a path that cannot be read (a directory, say);
    [`Compile] carries {!load_source}'s message. *)
val load :
  t ->
  string ->
  (Ir.program * string, [ `Not_found of string | `Compile of string ]) result

(** [outcome t ~digest spec p] returns the cached outcome for
    [(digest, Run.spec_key spec)], solving (and caching) on a miss. The
    boolean is [true] on a cache hit. Timeout outcomes are cached too — the
    budget is part of the key. *)
val outcome : t -> digest:string -> Run.spec -> Ir.program -> Run.outcome * bool

(** {2 Edited revisions} *)

type update_result = {
  up_outcome : Run.outcome;
  up_digest : string;  (** digest of the edited program *)
  up_info : Csc_pta.Inc.info;
      (** always {!Csc_pta.Inc.fresh_info}. Kept only so that [bench/perf]
          still compiles unmodified; to be removed with the benchmark's next
          change. *)
  up_cached : bool;  (** the edited program's outcome was already cached *)
}

(** [update t ~digest spec ~edits] analyzes an edited revision of the cached
    program [digest]: the new source is [?source] when given, else the base
    source with [edits] applied ({!Csc_lang.Edit.apply}). The new source
    compiles through the program cache and solves through {!outcome}, so the
    answer is the one an [outcome] call on the edited source gives, cached
    under the new digest, and an update back to an already-solved revision
    is a cache hit. [Error]s: unknown digest, unappliable edit, compile
    failure. *)
val update :
  t ->
  digest:string ->
  ?source:string ->
  ?edits:Csc_lang.Edit.t list ->
  Run.spec ->
  (update_result, string) result

(** {2 Introspection} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** Cached result entries / programs. *)
val entries : t -> int

val programs : t -> int

(** The session block of the server's [stats] reply:
    [{"hits": _, "misses": _, "evictions": _, "entries": _, "programs": _,
      "bytes": _, "max_bytes": _}]. *)
val stats_json : t -> Json.t
