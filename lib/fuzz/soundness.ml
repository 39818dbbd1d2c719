(** The soundness oracle: concrete execution vs. the static analysis matrix.

    A pointer analysis is sound iff everything observed in a concrete run is
    over-approximated by the static result: reachable methods, call edges,
    per-variable points-to sets and failing casts. The oracle executes the
    program once under {!Csc_interp.Interp.run_trace} (partial traces from
    runtime errors are still valid lower bounds) and checks that containment
    for every engine/configuration in {!default_matrix}; on top it
    cross-checks results that must agree exactly — the imperative vs. the
    Datalog context-insensitive baseline. *)

open Csc_common
module Ir = Csc_ir.Ir
module Interp = Csc_interp.Interp
module Solver = Csc_pta.Solver
module Run = Csc_driver.Run
module Metrics = Csc_clients.Metrics
module Jdk = Csc_lang.Jdk
module Taint = Csc_taint.Taint
module Taint_spec = Csc_taint.Taint_spec

type kind =
  | Unsound_reach  (** dynamically entered method not statically reachable *)
  | Unsound_edge   (** dynamic call edge missing from the static call graph *)
  | Unsound_pt     (** observed allocation site missing from a points-to set *)
  | Unsound_cast   (** cast failed at runtime but not in [may_fail_casts] *)
  | Unsound_taint  (** dynamic sink hit missing from the static leak report *)
  | Engine_mismatch    (** imperative and Datalog CI results differ *)
  | Analysis_crash     (** an analysis raised or timed out on a tiny program *)

let kind_name = function
  | Unsound_reach -> "unsound-reach"
  | Unsound_edge -> "unsound-edge"
  | Unsound_pt -> "unsound-pt"
  | Unsound_cast -> "unsound-cast"
  | Unsound_taint -> "unsound-taint"
  | Engine_mismatch -> "engine-mismatch"
  | Analysis_crash -> "analysis-crash"

type violation = {
  v_kind : kind;
  v_analysis : string;  (** analysis (or pair of analyses) implicated *)
  v_detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %s" (kind_name v.v_kind) v.v_analysis v.v_detail

(** The engine/configuration matrix every generated program is checked
    against: imperative and Datalog engines, CSC off and on. *)
let default_matrix : Run.spec list =
  [
    Run.spec Run.Imp_ci;
    Run.spec Run.Imp_csc;
    Run.spec Run.Doop_ci;
    Run.spec Run.Doop_csc;
  ]

(** IR statements in application (non-JDK) methods — the size metric for
    minimized counterexamples. The prepended mini-JDK contributes hundreds
    of statements that no shrink can remove, so it is excluded. *)
let app_stmt_count (p : Ir.program) : int =
  let n = ref 0 in
  let is_jdk = Jdk.is_jdk_method p in
  Ir.iter_all_stmts (fun mid _ -> if not (is_jdk mid) then incr n) p;
  !n

(* ---- containment checks: dynamic ⊆ static ---- *)

let check_result (p : Ir.program) (dyn : Interp.outcome) aname
    (r : Solver.result) : violation list =
  let out = ref [] in
  let push v_kind v_detail =
    out := { v_kind; v_analysis = aname; v_detail } :: !out
  in
  Bits.iter
    (fun m ->
      if not (Bits.mem r.Solver.r_reach m) then
        push Unsound_reach
          (Fmt.str "dynamic method %s not statically reachable"
             (Ir.method_name p m)))
    dyn.Interp.dyn_reachable;
  List.iter
    (fun (site, callee) ->
      if not (List.mem (site, callee) r.Solver.r_edges) then
        push Unsound_edge
          (Fmt.str "dynamic call edge cs%d -> %s missing" site
             (Ir.method_name p callee)))
    dyn.Interp.dyn_edges;
  Array.iteri
    (fun v obs ->
      if not (Bits.subset obs (r.Solver.r_pt v)) then begin
        let missing =
          Bits.fold
            (fun a acc ->
              if Bits.mem (r.Solver.r_pt v) a then acc else a :: acc)
            obs []
        in
        let vr = p.Ir.vars.(v) in
        push Unsound_pt
          (Fmt.str "var %s of %s: observed sites {%s} missing from pt"
             vr.Ir.v_name
             (Ir.method_name p vr.Ir.v_method)
             (String.concat "," (List.map string_of_int missing)))
      end)
    dyn.Interp.dyn_pt;
  let static_fail = Metrics.may_fail_casts p r in
  Bits.iter
    (fun site ->
      if not (Bits.mem static_fail site) then
        push Unsound_cast
          (Fmt.str "cast site x%d failed at runtime but is statically safe"
             site))
    dyn.Interp.dyn_fail_casts;
  List.rev !out

(* ---- taint oracle: dynamic sink hits ⊆ static leak sites ---- *)

let check_taint (p : Ir.program) (dyn : Interp.outcome) aname
    (r : Solver.result) : violation list =
  if Bits.is_empty dyn.Interp.dyn_taint_sinks then []
  else
    match Taint.analyze p r with
    | tres ->
      Bits.fold
        (fun site acc ->
          if Bits.mem tres.Taint.t_leak_sites site then acc
          else
            {
              v_kind = Unsound_taint;
              v_analysis = aname;
              v_detail =
                Fmt.str
                  "tainted value reached sink at cs%d but no leak is reported"
                  site;
            }
            :: acc)
        dyn.Interp.dyn_taint_sinks []
      |> List.rev
    | exception e ->
      [
        {
          v_kind = Analysis_crash;
          v_analysis = aname ^ "+taint";
          v_detail = Printexc.to_string e;
        };
      ]

(* ---- cross-checks: results that must agree exactly ---- *)

let sorted_edges (r : Solver.result) = List.sort compare r.Solver.r_edges

let identical (p : Ir.program) (a : Solver.result) (b : Solver.result) :
    string option =
  if not (Bits.equal a.Solver.r_reach b.Solver.r_reach) then
    Some "reachable methods differ"
  else if sorted_edges a <> sorted_edges b then Some "call edges differ"
  else begin
    let diff = ref None in
    Array.iter
      (fun (v : Ir.var) ->
        if
          !diff = None
          && not (Bits.equal (a.Solver.r_pt v.Ir.v_id) (b.Solver.r_pt v.Ir.v_id))
        then
          diff :=
            Some
              (Fmt.str "points-to of %s differs" v.Ir.v_name))
      p.Ir.vars;
    !diff
  end

let cross_check p aname bname a b kind : violation list =
  match identical p a b with
  | None -> []
  | Some detail ->
    [ { v_kind = kind; v_analysis = aname ^ " vs " ^ bname; v_detail = detail } ]

(** Run the full oracle on one program: execute it, run every analysis in
    [matrix] (default {!default_matrix}), check dynamic ⊆ static for each,
    and cross-check the pairs that must agree exactly. An empty list means
    the program exposes no bug. [max_steps] bounds the concrete run. *)
let check ?(matrix = default_matrix) ?(max_steps = 2_000_000) (p : Ir.program)
    : violation list =
  (* dynamic taint tags ride along whenever the program has both a source
     and a sink under the builtin spec (the generator's [Flow] surface) *)
  let taint =
    if Taint.relevant Taint_spec.builtin p then
      Some (Taint.hooks Taint_spec.builtin p)
    else None
  in
  let dyn = Interp.run_trace ~max_steps ?taint p in
  let results =
    List.map
      (fun a ->
        let aname = Run.name a.Run.sp_analysis in
        match Run.run_spec a p with
        | { Run.o_result = Some r; _ } -> (a, aname, Ok r)
        | { Run.o_timeout; _ } ->
          ( a,
            aname,
            Error
              {
                v_kind = Analysis_crash;
                v_analysis = aname;
                v_detail =
                  (if o_timeout then "timed out" else "produced no result");
              } )
        | exception e ->
          ( a,
            aname,
            Error
              {
                v_kind = Analysis_crash;
                v_analysis = aname;
                v_detail = Printexc.to_string e;
              } ))
      matrix
  in
  let violations =
    List.concat_map
      (fun (_, aname, res) ->
        match res with
        | Ok r -> check_result p dyn aname r @ check_taint p dyn aname r
        | Error v -> [ v ])
      results
  in
  let find a =
    List.find_map
      (fun (a', _, res) ->
        if a' = a then match res with Ok r -> Some r | Error _ -> None
        else None)
      results
  in
  let engines =
    match (find (Run.spec Run.Imp_ci), find (Run.spec Run.Doop_ci)) with
    | Some ra, Some rb ->
      cross_check p (Run.name Run.Imp_ci) (Run.name Run.Doop_ci) ra rb
        Engine_mismatch
    | _ -> []
  in
  violations @ engines
