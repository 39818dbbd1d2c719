(** Dead-store / unused-variable lint, driven by {!Liveness}.

    - A *dead store* is a side-effect-free definition of a variable that is
      not live afterwards (the value can never be observed). Definitions
      with their own effects — calls, casts (which may throw) — are skipped.
    - An *unused variable* is a named local that is never read anywhere in
      its method; its stores are reported once, at method level, instead of
      per store.

    Compiler temporaries ([`Temp]), [this] and the synthetic return variable
    are excluded; parameters are only checked for dead stores (an unused
    parameter is part of the method's signature, not a local mistake).
    This checker is independent of the pointer analysis: its counts are
    identical under CI and CSC, which the bench table shows as a control. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

let check_name = "dead-store"

(** May the statement's definition be dropped without losing behaviour?
    Allocations are kept reportable (the object is unreachable anyway if the
    variable is dead and never aliased — which a dead store guarantees at
    this definition point). *)
let pure_def (s : Ir.stmt) : bool =
  match s with
  | New _ | NewArray _ | StrConst _ | ConstInt _ | ConstBool _ | ConstNull _
  | Copy _ | Load _ | ALoad _ | ALen _ | SLoad _ | Binop _ | Unop _
  | InstanceOf _ ->
    true
  | Cast _ (* may throw *) | Invoke _ (* callee effects *) -> false
  | Store _ | AStore _ | SStore _ | Return _ | If _ | While _ | Print _ | Nop
    ->
    false

(** [locals] lists the method's named locals in id order (see {!check}). *)
let check_method (p : Ir.program) ~(locals : Ir.var list) (mid : Ir.method_id)
    : Diagnostic.t list =
  let m = Ir.metho p mid in
  let cfg = Cfg.of_method p mid in
  let live = Liveness.compute cfg in
  let out = ref [] in
  let checkable v =
    let vi = Ir.var p v in
    vi.Ir.v_method = mid
    &&
    match vi.Ir.v_kind with
    | `Local -> true
    | `Param _ -> true
    | `Temp | `This | `Ret -> false
  in
  (* variables read anywhere in the method *)
  let used = Bits.create () in
  Ir.iter_stmts
    (fun s -> List.iter (fun v -> ignore (Bits.add used v)) (Ir.uses_of s))
    m.Ir.m_body;
  (* method-level: named locals never read at all *)
  let unused_vars = Bits.create () in
  List.iter
    (fun (vi : Ir.var) ->
      if
        (not (Bits.mem used vi.Ir.v_id)) && p.Ir.def_counts.(vi.Ir.v_id) > 0
      then begin
        ignore (Bits.add unused_vars vi.Ir.v_id);
        out :=
          Diagnostic.
            {
              d_check = check_name;
              d_severity = Warning;
              d_method = mid;
              d_path = [];
              d_message =
                Printf.sprintf "variable %s is assigned but never read"
                  vi.Ir.v_name;
              d_witness = None;
            }
          :: !out
      end)
    locals;
  (* per-statement dead stores (skipping wholly-unused vars, reported above) *)
  Liveness.iter live cfg (fun path s ~live_before:_ ~live_after ->
      match Ir.def_of s with
      | Some v
        when pure_def s && checkable v
             && (not (Bits.mem unused_vars v))
             && not (Bits.mem live_after v) ->
        out :=
          Diagnostic.
            {
              d_check = check_name;
              d_severity = Warning;
              d_method = mid;
              d_path = path;
              d_message =
                Printf.sprintf "value assigned to %s is never used"
                  (Ir.var_name p v);
              d_witness = None;
            }
          :: !out
      | _ -> ());
  List.rev !out

(* named locals per method, grouped in one pass over [p.vars] so no
   per-method pass rescans the whole program *)
let locals_by_method (p : Ir.program) : Ir.var list array =
  let by_method = Array.make (Array.length p.Ir.methods) [] in
  for v = Array.length p.Ir.vars - 1 downto 0 do
    let vi = p.Ir.vars.(v) in
    if vi.Ir.v_kind = `Local then
      by_method.(vi.Ir.v_method) <- vi :: by_method.(vi.Ir.v_method)
  done;
  by_method

let check (p : Ir.program) (r : Solver.result) : Diagnostic.t list =
  let locals = locals_by_method p in
  Bits.fold
    (fun mid acc ->
      List.rev_append (check_method p ~locals:locals.(mid) mid) acc)
    r.Solver.r_reach []
  |> List.sort Diagnostic.compare
