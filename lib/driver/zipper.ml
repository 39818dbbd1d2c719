(** A Zipper^e-style selective context-sensitivity baseline (DESIGN.md S7,
    substitution 4).

    Zipper [Li et al. 2020a] selects *precision-critical* methods by finding
    object-flow patterns over a context-insensitive pre-analysis — direct
    flows (parameter to return), wrapped flows (parameter stored into a heap
    reachable from a parameter) and unwrapped flows (heap of a parameter
    loaded towards the return) — and its express variant (Zipper^e)
    additionally drops *scalability-threatening* methods whose
    points-to volume exceeds a budget. The main analysis then applies 2obj
    only to the selected methods.

    This module implements that recipe against our IR: the three flow
    patterns are detected syntactically on the IR (the paper's are computed
    on a precision-flow graph; ours is a faithful simplification), and the
    express cap drops the heaviest methods by CI points-to volume. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Static = Csc_core.Static

type selection = {
  selected : Bits.t;
  n_candidates : int;      (** precision-critical before the express cap *)
  n_dropped : int;         (** dropped as scalability threats *)
}

(* Intra-procedural "parameter-derived" variables: parameters, plus anything
   reached from them through copies, casts and (array) loads. This is a
   cheap stand-in for Zipper's object flow graph reachability. *)
let derived_vars (p : Ir.program) (m : Ir.metho) : (Ir.var_id, unit) Hashtbl.t =
  let d = Hashtbl.create 16 in
  (match m.m_this with Some t -> Hashtbl.replace d t () | None -> ());
  Array.iter (fun v -> Hashtbl.replace d v ()) m.m_params;
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.iter_stmts
      (fun s ->
        let flow from into =
          if Hashtbl.mem d from && not (Hashtbl.mem d into) then begin
            Hashtbl.replace d into ();
            changed := true
          end
        in
        match s with
        | Copy { lhs; rhs } -> flow rhs lhs
        | Cast { lhs; rhs; _ } -> flow rhs lhs
        | Load { lhs; base; _ } -> flow base lhs
        | ALoad { lhs; arr; _ } -> flow arr lhs
        | _ -> ())
      m.m_body;
    ignore p
  done;
  d

(** Wrapped flow: a parameter-derived value is stored into the heap, or
    something is stored into parameter-derived heap (covers constructors
    installing backing stores, container add/grow, setters). *)
let has_wrapped_flow (p : Ir.program) (m : Ir.metho) : bool =
  let d = derived_vars p m in
  let found = ref false in
  Ir.iter_stmts
    (fun s ->
      match s with
      | Store { base; rhs; _ } ->
        if Hashtbl.mem d rhs || Hashtbl.mem d base then found := true
      | AStore { arr; rhs; _ } ->
        if Hashtbl.mem d rhs || Hashtbl.mem d arr then found := true
      | _ -> ())
    m.m_body;
  !found

(** Unwrapped flow: the method returns values loaded out of
    parameter-derived heap (getters, container get/next). *)
let has_unwrapped_flow (p : Ir.program) (m : Ir.metho) : bool =
  m.m_ret_var <> None
  &&
  let d = derived_vars p m in
  let found = ref false in
  Ir.iter_stmts
    (fun s ->
      match s with
      | Load { base; _ } -> if Hashtbl.mem d base then found := true
      | ALoad { arr; _ } -> if Hashtbl.mem d arr then found := true
      | _ -> ())
    m.m_body;
  !found

(** Direct flow: parameter values reach the return variable. *)
let has_direct_flow (p : Ir.program) (m : Ir.metho) : bool =
  Static.local_flow_sources p m <> None
  ||
  match m.m_ret_var with
  | Some rv -> Hashtbl.mem (derived_vars p m) rv
  | None -> false

(** Points-to volume of every method under the pre-analysis, indexed by
    method id: the size of its variables' points-to sets, from one pass
    over the variables. Zipper^e's scalability heuristic. *)
let volumes (p : Ir.program) (pre : Solver.result) : int array =
  let vol = Array.make (Array.length p.methods) 0 in
  Array.iter
    (fun (v : Ir.var) ->
      vol.(v.v_method) <- vol.(v.v_method) + Bits.cardinal (pre.r_pt v.v_id))
    p.vars;
  vol

(** Select methods from a CI pre-analysis result.
    [cap_fraction] bounds any single method's share of the total points-to
    volume (the "express" part); methods above it are not selected. *)
let select ?(cap_fraction = 0.05) (p : Ir.program) (pre : Solver.result) :
    selection =
  let candidates = ref [] in
  Array.iter
    (fun (m : Ir.metho) ->
      if
        Bits.mem pre.r_reach m.m_id
        && (has_wrapped_flow p m || has_unwrapped_flow p m || has_direct_flow p m)
      then candidates := m :: !candidates)
    p.methods;
  let vol = volumes p pre in
  let total_volume =
    Array.fold_left
      (fun acc (m : Ir.metho) ->
        if Bits.mem pre.r_reach m.m_id then acc + vol.(m.m_id) else acc)
      0 p.methods
  in
  let cap =
    max 100 (int_of_float (cap_fraction *. float total_volume))
  in
  let selected = Bits.create () in
  let dropped = ref 0 in
  List.iter
    (fun (m : Ir.metho) ->
      if vol.(m.m_id) <= cap then ignore (Bits.add selected m.m_id)
      else incr dropped)
    !candidates;
  { selected; n_candidates = List.length !candidates; n_dropped = !dropped }
