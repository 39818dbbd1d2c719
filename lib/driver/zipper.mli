(** Zipper^e-style selective context sensitivity (the paper's main selective
    baseline; DESIGN.md substitution 4).

    Selects precision-critical methods from a context-insensitive
    pre-analysis via direct / wrapped / unwrapped object-flow patterns, then
    drops scalability threats by points-to volume (the "express" cap). The
    main analysis applies 2obj to the selected methods only
    ({!Csc_pta.Context.selective}). *)

open Csc_common
module Ir = Csc_ir.Ir

type selection = {
  selected : Bits.t;
  n_candidates : int;  (** precision-critical methods before the cap *)
  n_dropped : int;     (** dropped as scalability threats *)
}

(** Select methods from a CI pre-analysis result. [cap_fraction] (default
    0.05) bounds any single method's share of the total points-to volume. *)
val select :
  ?cap_fraction:float -> Ir.program -> Csc_pta.Solver.result -> selection
