(** The declarative pointer analyses (the Doop analog): Andersen CI,
    Cut-Shortcut, and context sensitivity expressed as Datalog rules over
    the EDB of {!Facts}, evaluated by {!Engine}.

    Faithful to the paper's Doop implementation, the declarative Cut-Shortcut
    omits the field-*load* pattern (its [CutPropLoad] needs negation inside
    the recursive pt cycle, §5 "Implementation"); [cutStores]/[cutReturns]
    are static relations of stratum 0, so every negation is stratified.
    Context-sensitive variants intern contexts and abstract objects through
    builtin functors, like Doop's context constructors. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

type kind =
  | Ci
  | Csc_doop  (** store + container + local-flow patterns, no load pattern *)
  | Obj2
  | Type2
  | Selective2obj of Bits.t  (** Zipper^e main analysis: selected methods *)

val kind_name : kind -> string

(** Budget expiry, carrying the aborted engine's snapshot (tuples derived
    so far and elapsed time), as the imperative solver's timeout does. *)
exception Timeout of Csc_obs.Snapshot.t

(** Run a declarative analysis end to end, producing the same
    engine-agnostic result shape as the imperative solver (tested to be
    *identical* to it for CI / 2obj / 2type). [attr] collects per-rule and
    per-stratum cost attribution (tuple counts and wall time); [progress_s]
    emits a heartbeat line to stderr every that-many seconds. *)
val run :
  ?budget:Timer.budget ->
  ?attr:Csc_obs.Attr.t ->
  ?progress_s:float ->
  Ir.program ->
  kind ->
  Solver.result
