(** The benchmark suite: ten generated programs named after the paper's
    evaluation subjects, with sizes mirroring the paper's relative hardness
    (hsqldb/findbugs smallest, soot/columba largest) and context-bomb knobs
    calibrated so the paper's scalability pattern reproduces (see
    EXPERIMENTS.md). *)

(** Program names, smallest first:
    hsqldb, findbugs, jython, eclipse, jedit, briss, gruntspud, freecol,
    soot, columba. *)
val names : string list

val programs : (string * Gen.shape) list

(** Raises [Invalid_argument] for unknown names. *)
val shape_of : string -> Gen.shape

(** Deterministic MiniJava source of a suite program (without the JDK). *)
val source : string -> string

(** [source_variant name v] is [source name] with fixed variant-[v] keyed
    statements appended to the body of [Driver0.op0_0] — a reproducible
    single-method edit (identical to [source name] when [v = 0]). Kept only
    for [bench/perf]'s edit workload; to be removed with the benchmark's
    next change. *)
val source_variant : string -> int -> string

(** Compile a suite program (with the mini-JDK). *)
val compile : string -> Csc_ir.Ir.program
