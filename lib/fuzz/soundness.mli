(** The soundness oracle: concrete execution vs. the static analysis matrix.

    Executes a program once (partial traces from runtime errors are still
    valid lower bounds), then checks dynamic ⊆ static — reachable methods,
    call edges, per-variable points-to sets, failing casts, and taint sink
    hits vs. the static leak report — for every engine/configuration in
    {!default_matrix}, plus an exact-agreement cross-check (imperative vs.
    Datalog CI). *)

module Ir = Csc_ir.Ir
module Run = Csc_driver.Run

(** Violation taxonomy (documented in EXPERIMENTS.md E12). *)
type kind =
  | Unsound_reach  (** dynamically entered method not statically reachable *)
  | Unsound_edge   (** dynamic call edge missing from the static call graph *)
  | Unsound_pt     (** observed allocation site missing from a points-to set *)
  | Unsound_cast   (** cast failed at runtime but not in [may_fail_casts] *)
  | Unsound_taint  (** dynamic sink hit missing from the static leak report *)
  | Engine_mismatch    (** imperative and Datalog CI results differ *)
  | Incremental_mismatch
      (** updating a solved state over an edit differs from a fresh solve *)
  | Analysis_crash     (** an analysis raised or timed out on a tiny program *)

val kind_name : kind -> string

type violation = {
  v_kind : kind;
  v_analysis : string;  (** analysis (or pair of analyses) implicated *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** Imperative × Datalog × CSC on/off. *)
val default_matrix : Run.spec list

(** IR statements in application (non-JDK) methods — the size metric for
    minimized counterexamples. *)
val app_stmt_count : Ir.program -> int

(** Run the full oracle on one program; empty list = no bug exposed.
    [matrix] defaults to {!default_matrix}; [max_steps] (default 2M) bounds
    the concrete run. *)
val check :
  ?matrix:Run.spec list ->
  ?max_steps:int ->
  Ir.program ->
  violation list

(** Exact equality of two results on the same program — reachable methods,
    call edges and every variable's points-to set; [None] means identical,
    [Some detail] names the first difference. This is the comparison behind
    the engine cross-check and {!check_incremental}. *)
val identical :
  Ir.program ->
  Csc_pta.Solver.result ->
  Csc_pta.Solver.result ->
  string option

(** The incremental oracle: walk a chain of program revisions (each the
    edited successor of the previous), carry the incremental engine's
    retained state across every step ({!Run.update}), and require each
    updated result to be bit-identical to a from-scratch solve of the same
    revision. Since the state entering a step was itself verified against
    scratch, a mismatch at step [k] pins the failure to the single edit
    [(rev k-1, rev k)]. [analyses] defaults to the specs of [Imp_ci] and
    [Imp_csc]. Empty list = no divergence. *)
val check_incremental :
  ?analyses:Run.spec list ->
  Ir.program list ->
  violation list
