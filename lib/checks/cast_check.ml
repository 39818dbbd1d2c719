(** Flow-refined fail-cast checker.

    The paper's #fail-cast client ({!Csc_clients.Metrics}) counts a reachable
    [Cast] as may-fail when some allocation in the operand's points-to set is
    not a subtype of the target type. That is flow-*in*sensitive: the
    points-to set merges every assignment to the operand anywhere in the
    method. This checker re-checks each cast against the *reaching
    definitions* of its operand:

    - if every reaching definition has a statically known type (allocation,
      string or null constant), the cast is judged purely flow-sensitively —
      alarm iff some reaching type fails the subtype test;
    - otherwise (a reaching definition reads the heap, calls a method, or the
      operand is a parameter) the points-to test decides, as in [Metrics].

    Every alarm this checker raises is also raised by [Metrics.fail_cast];
    the flow refinement only removes alarms (e.g. a cast dominated by a
    same-method allocation of the right class). Precision of the pointer
    analysis shows up as fewer alarms on the PTA-decided casts — the paper's
    CI-vs-CSC gap, per diagnostic. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

let check_name = "fail-cast"

(** Statically known type of a defining statement, [None] if it must be
    resolved through the points-to set. [ConstNull] yields [Tnull]: casting
    null never fails. *)
let def_type (p : Ir.program) (s : Ir.stmt) : Ir.typ option =
  match s with
  | New { cls; _ } -> Some (Ir.Tclass cls)
  | NewArray { elem; _ } -> Some (Ir.Tarray elem)
  | StrConst _ -> Some (Ir.Tclass p.Ir.string_cls)
  | ConstNull _ -> Some Ir.Tnull
  | _ -> None

let pp_typ_str p ty = Fmt.str "%a" (Ir.pp_typ p) ty

let check_method (p : Ir.program) (r : Solver.result) (mid : Ir.method_id) :
    Diagnostic.t list =
  let cfg = Cfg.of_method p mid in
  let reach = Reaching.compute cfg in
  let out = ref [] in
  Reaching.iter reach cfg (fun path s ~reaching ->
      match s with
      | Cast { ty; rhs; _ } when Ir.is_ref_type ty -> (
        let defs = Reaching.defs_of_var reach reaching rhs in
        let types = List.map (fun d -> def_type p d.Reaching.def_stmt) defs in
        let all_known = defs <> [] && List.for_all Option.is_some types in
        let alarm =
          if all_known then
            (* pure flow-sensitive judgement *)
            let failing =
              List.filter_map
                (fun t ->
                  match t with
                  | Some t when not (Ir.subtype p t ty) -> Some (pp_typ_str p t)
                  | _ -> None)
                types
            in
            if failing = [] then None
            else
              Some
                (Printf.sprintf "reaching definitions of type %s"
                   (String.concat ", " (List.sort_uniq compare failing)))
          else
            (* points-to judgement, as in Metrics.fail_cast *)
            let failing = ref [] in
            Bits.iter
              (fun a ->
                let t = Ir.alloc_typ p a in
                if not (Ir.subtype p t ty) then failing := pp_typ_str p t :: !failing)
              (r.Solver.r_pt rhs);
            if !failing = [] then None
            else
              let names = List.sort_uniq compare !failing in
              let shown =
                match names with
                | a :: b :: c :: _ :: _ -> [ a; b; c; "..." ]
                | l -> l
              in
              Some
                (Printf.sprintf "pt under %s contains %s" r.Solver.r_name
                   (String.concat ", " shown))
        in
        match alarm with
        | None -> ()
        | Some witness ->
          out :=
            Diagnostic.
              {
                d_check = check_name;
                d_severity = Warning;
                d_method = mid;
                d_path = path;
                d_message =
                  Printf.sprintf "cast to %s may fail" (pp_typ_str p ty);
                d_witness = Some witness;
              }
            :: !out)
      | _ -> ());
  List.rev !out

(* Does the body contain a reference cast? Most methods have none, and
   they need no CFG or reaching definitions. *)
let rec has_ref_cast (body : Ir.stmt array) : bool =
  Array.exists
    (function
      | Ir.Cast { ty; _ } -> Ir.is_ref_type ty
      | Ir.If { cond_pre; then_; else_; _ } ->
        has_ref_cast cond_pre || has_ref_cast then_ || has_ref_cast else_
      | Ir.While { cond_pre; body; _ } ->
        has_ref_cast cond_pre || has_ref_cast body
      | _ -> false)
    body

let check (p : Ir.program) (r : Solver.result) : Diagnostic.t list =
  Bits.fold
    (fun mid acc ->
      if has_ref_cast (Ir.metho p mid).Ir.m_body then
        List.rev_append (check_method p r mid) acc
      else acc)
    r.Solver.r_reach []
  |> List.sort Diagnostic.compare
