(** Cost-attribution tables: where does the solver spend its effort?

    Global counters ({!Registry}) say *how much* work a run did; this layer
    says *where* — per method, per pointer, and per rule. Engines that hold a
    [t option] record every worklist pop (with its delta cardinality),
    shortcut firing, and rule evaluation into int-keyed
    mutable rows; a disabled engine pays one [None] branch per site and a
    profiled one no allocation after the first touch of a key.

    The raw tables are keyed by opaque engine ids; {!render} resolves them to
    names and produces an immutable, deterministically-ordered {!profile}
    for text/JSON output ([profile] subcommand and server command,
    [bench --json] embedding). *)

type t

val create : unit -> t

(** {1 Recording} *)

(** One worklist pop of pointer [ptr] (owned by method [meth], [-1] for
    statics) whose coalesced delta carried [delta] objects. *)
val observe_pop : t -> meth:int -> ptr:int -> delta:int -> unit

(** A CSC shortcut edge was installed with target [ptr]. *)
val observe_shortcut : t -> meth:int -> ptr:int -> unit

(** Per-rule cost rows (CSC patterns, Datalog rules and strata). Handles are
    memoized per name — hold one and bump it with field writes. *)
type rule

val rule : t -> string -> rule
val rule_fire : rule -> unit
val rule_tuples : ?by:int -> rule -> unit

(** Add candidate tuples scanned (Datalog joins; CSC patterns scan none). *)
val rule_scans : rule -> int -> unit
val rule_time : rule -> float -> unit

(** {1 Delta-size histogram}

    Log2-bucketed: bucket [0] holds deltas [<= 1], bucket [i > 0] holds
    cardinalities in [(2^(i-1), 2^i]] (i.e. [ceil (log2 delta)]), clamped to
    the last bucket. *)

val n_buckets : int
val bucket_of : int -> int
val bucket_label : int -> string

(** {1 Totals} *)

val pops : t -> int
val props : t -> int
val shortcuts : t -> int

(** {1 Rendering} *)

type entry = {
  e_name : string;
  e_pops : int;
  e_props : int;
  e_shortcuts : int;
}

type rule_entry = {
  re_name : string;
  re_fires : int;
  re_tuples : int;
  re_scans : int;  (** candidate tuples scanned *)
  re_time : float;
}

type profile = {
  p_engine : string;
  p_methods : entry list;  (** hottest first *)
  p_pointers : entry list;
  p_rules : rule_entry list;
  p_hist : (string * int) list;  (** (bucket label, pop count), ascending *)
  p_pops : int;
  p_props : int;
  p_shortcuts : int;
}

(** Resolve ids through [meth_name]/[ptr_name] and keep the [top] hottest
    rows of each table (default 10). Ordering is total (props desc, pops
    desc, name asc; rules: tuples desc, fires desc, name asc),
    so the result is deterministic for a deterministic run. *)
val render :
  ?top:int ->
  t ->
  engine:string ->
  meth_name:(int -> string) ->
  ptr_name:(int -> string) ->
  profile

(** Stable key order; lists stay in [render]'s sorted order. *)
val profile_json : profile -> Json.t

(** Human-readable tables; [top] trims each section further. *)
val profile_text : ?top:int -> profile -> string
