(** Static (IR-only) ingredients of the Cut-Shortcut patterns: the
    [Arg2Var] parameter test, per-method store/load patterns, the CHA-based
    pre-approximation of the load pattern's [cutReturns], and the local-flow
    analysis ([Param2Var]/[Param2VarRec], Figure 11). See csc.ml for how
    the dynamic machinery consumes these. *)

open Csc_common
module Ir = Csc_ir.Ir

(** Parameter index of a never-redefined parameter (0 = [this]); [None] if
    the variable is not a parameter or is redefined (the [def_x = ∅] premise
    of [Arg2Var]). *)
val param_index : Ir.program -> Ir.var_id -> int option

(** Variable at argument position [k] of a call site (0 = receiver). *)
val arg_at : Ir.program -> Ir.call_site -> int -> Ir.var_id option

(** [(k_base, field, k_rhs)] for each store [x.f = y] whose base and rhs are
    never-redefined parameters — exactly the statements in [cutStores]. *)
val store_patterns : Ir.program -> Ir.metho -> (int * Ir.field_id * int) list

(** Is the store [base.f = rhs] in [cutStores]? *)
val is_cut_store : Ir.program -> base:Ir.var_id -> rhs:Ir.var_id -> bool

(** [(k_base, field)] for loads [ret = base.f] of the single return variable
    from a never-redefined parameter ([CutPropLoad]'s base case). *)
val load_patterns : Ir.program -> Ir.metho -> (int * Ir.field_id) list

(** CHA possible callees of a call site. *)
val cha_callees : Ir.program -> Ir.call_site -> Ir.method_id list

type load_info = {
  li_pats : (Ir.method_id, (int * Ir.field_id) list) Hashtbl.t;
      (** closure patterns (static + CHA-propagated) *)
  li_cut : Bits.t;
      (** methods whose return the load pattern may cut; over-approximates
          the dynamic [cutReturns] (sound: uncovered in-edges are relayed) *)
  li_static_ok : (Ir.method_id * Ir.field_id, unit) Hashtbl.t;
      (** (m, f) whose in-method load edges may be classified as
          returnLoadEdges (exempt from relaying) without ambiguity *)
  li_site_ok : (Ir.call_id * Ir.field_id, unit) Hashtbl.t;
      (** likewise for propagated ShortcutLoad edges at a call site *)
}

val load_info : Ir.program -> load_info

(** For the return variable: the set of parameter indices its values may
    come from via local copies (and null constants) only, or [None] if some
    value may come from another source. [Some ks] makes the method a
    local-flow cut with [ShortcutLFlow] sources [ks]. *)
val local_flow_sources : Ir.program -> Ir.metho -> int list option
