(** Deterministic generator of executable MiniJava workloads (DESIGN.md,
    substitution 3).

    Each program mixes the shapes the paper's three patterns target —
    setter/getter entities, nested-constructor wrappers, polymorphic
    hierarchies, registry classes over containers, direct container use with
    iterators/views/downcasts, local-flow utilities — plus two calibrated
    "context bombs": a single-class factory web (blows up object-sensitive
    contexts; type sensitivity is immune) and a multi-class mesh (blows up
    both). Same shape + seed, byte-identical source; all loops are bounded
    so every program terminates under the interpreter. *)

type shape = {
  seed : int;
  n_entity : int;       (** entity classes *)
  n_fields : int;       (** fields (and accessor pairs) per entity *)
  n_wrap : int;         (** wrapper classes *)
  n_hier : int;         (** polymorphic hierarchies *)
  hier_width : int;     (** subclasses per hierarchy *)
  n_registry : int;     (** container-owning classes *)
  n_util : int;         (** static utility classes *)
  n_driver : int;       (** driver classes *)
  ops_per_driver : int; (** operation methods per driver *)
  loop_iters : int;     (** runtime loop bound in main *)
  fork_sites : int;     (** size of the object-sensitivity context bomb *)
  mesh_classes : int;   (** size of the type-sensitivity context bomb *)
}

(** A small shape used by tests. *)
val small_shape : shape

(** Generate a full MiniJava program (the frontend prepends the JDK).
    [variant > 0] appends fixed, variant-keyed statements to the body of
    [Driver0.op0_0] without consuming RNG draws, so two variants of the same
    shape differ in exactly that one method body — a single-method edit.
    Kept only for [bench/perf]'s edit workload (via
    {!Suite.source_variant}); to be removed with the benchmark's next
    change. *)
val generate : ?variant:int -> shape -> string

(** Randomized, type-correct program generation for the soundness fuzzer.

    [Rand] draws a random *plan* — a tree of typed statements (allocations,
    widening copies, virtual calls, accessor calls, guarded and unguarded
    casts, containers, arrays, bounded loops, round-varying branches) over a
    random class table with inheritance — and renders it to MiniJava source.
    Variables are globally numbered and defined exactly once, receivers are
    always definitely non-null, and container reads only target definitely
    populated containers, so generated programs compile, validate and
    (almost always) run to completion; the rare unguarded downcast may fail
    at runtime, which the fuzzer's partial-trace oracle tolerates.

    Shrinking operates on plans, not source text: removing a statement
    cascades through its def-use closure and rendering garbage-collects
    classes and methods no surviving statement needs, so every candidate is
    again a well-formed program. Same seed, same plan, byte-identical
    source. *)
module Rand : sig
  type plan

  (** Seed the plan was generated from (echoed into fuzz reports). *)
  val seed_of : plan -> int

  (** Ground-truth taint flows planted at generation time (a leaking
      source->pipe->sink chain / a sanitized source->scrub->sink chain, at
      the end of the program). Counts describe the *original* plan —
      shrinking may remove the chains without updating them. *)
  val planted_leaks : plan -> int

  val planted_sanitized : plan -> int

  (** Number of plan statements (nested bodies included). *)
  val stmt_count : plan -> int

  (** [generate ~seed ~max_size] draws a plan of roughly [max_size]
      statements (floored at 8, so the coverage prelude always fits). *)
  val generate : seed:int -> max_size:int -> plan

  (** Render to MiniJava source (the frontend prepends the JDK). *)
  val render : plan -> string

  (** Simplified variants of a failing plan, roughly most-aggressive first:
      rounds-loop collapse, top-level chunk removal, then single-statement
      removal anywhere in the tree. Every candidate is well-formed. *)
  val shrink_candidates : plan -> plan list
end
