(** The declarative pointer analyses (the Doop analog): Andersen CI,
    Cut-Shortcut, and context sensitivity expressed as Datalog rules over
    the EDB of {!Facts}, evaluated by {!Engine}.

    Faithful to the paper's Doop implementation, the declarative Cut-Shortcut
    omits the field-*load* pattern (its [CutPropLoad] needs negation inside
    the recursive pt cycle, §5 "Implementation"); [cutStores]/[cutReturns]
    are static relations of stratum 0, so every negation is stratified.
    The context-sensitive rules take a {!Csc_pta.Context.t}, the selector
    the imperative solver takes: its builtins [mkobj], [calleectx] and
    [staticctx] make heap and callee contexts through it, as Doop's
    context constructors do over one shared rule set, in the
    {!Csc_pta.Context.env} store the imperative solver keeps its contexts
    and objects in. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

type kind =
  | Ci
  | Csc_doop  (** store + container + local-flow patterns, no load pattern *)
  | Cs of Csc_pta.Context.t  (** the context-sensitive rules under a selector *)

(** ["doop-ci"], ["doop-csc"], or ["doop-"] followed by the selector's name *)
val kind_name : kind -> string

(** Budget expiry, carrying the aborted engine's snapshot (tuples derived
    so far and elapsed time), as the imperative solver's timeout does. *)
exception Timeout of Csc_obs.Snapshot.t

(** Run a declarative analysis end to end, producing the same
    engine-agnostic result shape as the imperative solver. [attr] collects per-rule and
    per-stratum cost attribution (tuple counts and wall time); [progress_s]
    emits a heartbeat line to stderr every that-many seconds. *)
val run :
  ?budget:Timer.budget ->
  ?attr:Csc_obs.Attr.t ->
  ?progress_s:float ->
  Ir.program ->
  kind ->
  Solver.result
