(** The mini-JDK: container classes and utilities written in MiniJava,
    standing in for JDK 1.6 (DESIGN.md, substitution 2).

    Real implementations — an array-backed [ArrayList], node-based
    [LinkedList] and [ArrayDeque], entry-chain [HashMap] with [keySet]/
    [values] views, delegating [HashSet]/[Stack]/[Queue], iterators,
    [Optional], [StringBuilder], [Collections], [Box]/[Pair]/[Util] — so a
    context-insensitive analysis genuinely merges element flows inside them.
    The Entrance/Exit/Transfer classification lives in {!Csc_core.Spec}. *)

val source : string

(** Is [name] a mini-JDK class? Lets clients (call-graph export, the
    {!Csc_checks} diagnostics) hide library internals from user output. *)
val is_jdk_class : string -> bool

(** [is_jdk_method p] decides {!is_jdk_class} once per class of [p]; the
    predicate it returns is an array read per method id, for filters that
    run per variable or per diagnostic. *)
val is_jdk_method : Csc_ir.Ir.program -> Csc_ir.Ir.method_id -> bool
