(** Analysis driver: run any of the evaluated analyses on a program and
    collect time + precision metrics in one uniform record. The CLI, the
    examples and the benchmark harness all sit on this layer. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Csc = Csc_core.Csc
module Metrics = Csc_clients.Metrics

(** The analyses of the paper's evaluation plus extensions. [Imp_*] run on
    the imperative engine (Tai-e analog, Table 2), [Doop_*] on the Datalog
    engine (Doop analog, Table 1). *)
type analysis =
  | Imp_ci
  | Imp_csc
  | Imp_csc_cfg of Csc.config  (** ablations (§5.1 pattern-impact study) *)
  | Imp_kobj of int
  | Imp_ktype of int
  | Imp_kcall of int
  | Imp_2obj  (** the same plan and name as [Imp_kobj 2] *)
  | Imp_zipper
  | Doop_ci
  | Doop_csc
  | Doop_2obj
  | Doop_2type
  | Doop_zipper

val name : analysis -> string
val all_imperative : analysis list
val all_datalog : analysis list

(** The canonical analysis spellings (for help text); {!analysis_of_string}
    accepts these plus the generalized forms below. *)
val analysis_names : string list

(** Parse an analysis name. Grammar (one shared parser for the CLI, the
    bench harness and the analysis server):

    {v
    analysis ::= "ci" | "csc" | "csc-field" | "csc-container"
               | "csc-localflow" | "zipper-e"
               | "csc-"<b>"-"<b>"-"<b>                  (b: true, false; the
                                                         other CSC configs)
               | <K>"obj" | <K>"type" | <K>"call"        (positive K)
               | "kobj:"<K> | "ktype:"<K> | "kcall:"<K>  (same, colon form)
               | "doop-"<d> | "doop:"<d>                 (d: ci, csc, 2obj,
                                                          2type, zipper-e)
    v}

    [Error msg] describes the failure and restates the grammar. The parse is
    compatible with {!name}: [analysis_of_string (name a)] succeeds for
    every [a], with the same name and the same {!plan_name}. *)
val analysis_of_string : string -> (analysis, string) result

(** The decoded execution plan of an analysis, rendered: engine, context
    selector, CSC plugin config or Datalog kind, and Zipper's staging. Two
    analyses with the same plan name run identically. The plan itself is
    private to this module; no other module maps an analysis to a selector
    or a Datalog kind. *)
val plan_name : analysis -> string

(** True for the Doop-engine analyses (their times are not comparable with
    the imperative engine's; dispatch on this, not on name prefixes). *)
val is_datalog : analysis -> bool

type outcome = {
  o_analysis : string;
  o_timeout : bool;
  o_time : float;       (** total wall-clock (pre + main) *)
  o_pre_time : float;   (** pre-analysis + selection (Zipper only) *)
  o_main_time : float;
  o_result : Solver.result option;  (** None on timeout *)
  o_metrics : Metrics.t option;
  o_selected : Bits.t option;  (** Zipper: selected methods *)
  o_involved : Bits.t option;  (** CSC: methods in cut/shortcut edges *)
  o_shortcuts : int;
  o_snapshot : Csc_obs.Snapshot.t option;
      (** structured engine metrics; present even when the run timed out
          (the aborted engine's state, on either engine) *)
  o_profile : Csc_obs.Attr.profile option;
      (** cost attribution (hot methods/pointers/rules), present iff the run
          was started with [sp_profile] and did not time out *)
}

(** An explicit run request: the analysis to run plus every knob {!run_spec}
    honours. This record is the driver's session-facing API — the CLI
    subcommands, the bench harness and the analysis server all build a
    [spec] and hand it to {!run_spec} (or to [Session.outcome], which caches
    on it). Construct with {!spec} and override fields with [{ ... with }]
    so new knobs don't break callers. *)
type spec = {
  sp_analysis : analysis;
  sp_budget_s : float option;
      (** wall-clock budget in seconds, [None] = no deadline. Either way a
          4 GB heap cap applies ({!Csc_common.Timer.budget}): a solve whose
          heap grows past it times out. Timeouts are reported in the
          outcome, not raised — like the paper's ">2h" cells. *)
  sp_profile : bool;
      (** cost attribution into [o_profile]: per-method/per-pointer
          propagation on the imperative engine (for Zipper, the main
          selective analysis), per-rule/per-stratum tuples and time on the
          Datalog engine (pre + main phases combined) *)
  sp_profile_top : int;        (** rows per rendered profile table *)
  sp_jobs : int;
      (** ignored: every solve runs on one domain. Kept only so that
          [bench/perf] still compiles unmodified; {!spec_key} resets it, so
          it never splits the session cache. To be removed with the
          benchmark's next change. *)
}

(** [spec a] is the default request for analysis [a]: no budget, no
    profile (top 25). *)
val spec : analysis -> spec

(** Cache-key normalization: the ignored [sp_jobs], which cannot change the
    outcome, resets to its default and [Imp_2obj] becomes [Imp_kobj 2], so a
    result cache keyed on [spec_key s] is shared across them. *)
val spec_key : spec -> spec

(** Run one analysis as described by the request record. *)
val run_spec : spec -> Ir.program -> outcome

(** {!run_spec} on an analysis with a single imperative solve, with
    points-to provenance recorded, also returning the finished solver
    ([None] on timeout) so callers can query that provenance. [Error `Staged] for Zipper^e (two
    solves) and [Error `Datalog] for the Datalog engine, before any work. *)
val run_spec_solver :
  spec ->
  Ir.program ->
  (outcome * Solver.t option, [ `Staged | `Datalog ]) result

(** Fraction of CSC-involved methods also selected by Zipper^e (Table 3's
    "overlap" column). *)
val overlap : involved:Bits.t -> selected:Bits.t -> float
