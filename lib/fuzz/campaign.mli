(** Fuzzing campaigns: generate → execute → check → (on violation) shrink.

    Deterministic for a fixed seed: the campaign seed derives every
    per-program generator seed, and nothing in the pipeline consults wall
    clock or ambient randomness. Counterexamples are written to the corpus
    directory as minimized source + JSON metadata. *)

module Gen = Csc_workloads.Gen
module Ir = Csc_ir.Ir
module Snapshot = Csc_obs.Snapshot

type cfg = {
  n : int;            (** programs to generate *)
  seed : int;         (** campaign seed: same seed, same campaign *)
  max_size : int;     (** target plan size per program *)
  minimize : bool;    (** delta-debug failing programs *)
  out_dir : string option;  (** corpus directory for counterexamples *)
  max_shrink_checks : int;  (** oracle-run budget per minimization *)
  inject_unsound : bool;
      (** enable {!Csc_core.Csc.sabotage_drop_shortcuts} for the whole
          campaign — a self-test that the oracle catches a real bug *)
  progress : bool;    (** print a progress line every few hundred programs *)
}

(** n=100, seed=42, max_size=30, minimize, no corpus, 300 shrink checks. *)
val default_cfg : cfg

type case = {
  c_seed : int;  (** per-program generator seed (replays the case) *)
  c_violations : Soundness.violation list;
  c_source : string;
  c_min_source : string option;
  c_min_app_stmts : int option;
  c_planted_leaks : int;      (** taint chains planted by the generator *)
  c_planted_sanitized : int;  (** sanitized chains planted by the generator *)
}

type report = {
  r_total : int;
  r_failed : case list;
  r_gen_errors : int;  (** programs that failed to compile/validate *)
  r_halted : int;      (** traces that ended in a runtime error *)
  r_elapsed : float;
  r_progs_per_s : float;
  r_snapshot : Snapshot.t;  (** fuzz_* counters for telemetry consumers *)
}

(** Shrink [plan] while [oracle] keeps failing on the compiled program,
    spending at most [max_checks] (default 300) oracle runs; returns the
    smallest failing plan found and the number of checks used. *)
val minimize :
  ?max_checks:int ->
  oracle:(Ir.program -> bool) ->
  Gen.Rand.plan ->
  Gen.Rand.plan * int

(** Run a campaign. Restores {!Csc_core.Csc.sabotage_drop_shortcuts} on
    exit even if a check raises. *)
val run : cfg -> report
