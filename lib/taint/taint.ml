(** Source→sink taint analysis over the PTA-resolved call graph.

    IFDS-style structure: intraprocedural propagation is a forward
    flow-sensitive {!Csc_checks.Dataflow} instance per reachable method
    (domain: the set of tainted reference variables), and the
    interprocedural half is factored through the points-to relation instead
    of explicit summary edges. Concretely:

    - [TO], the tainted abstract objects, is the union of the points-to sets
      of the return variables of reachable source methods (sources return
      freshly allocated objects, so these are exactly the source-born
      allocation sites);
    - a store through a tainted value taints the abstract objects the base
      PTA says the value may occupy — which is automatic, since those
      objects are in [TO] already and the PTA propagates them to wherever
      the value flows (fields, containers, arrays, parameters, returns);
    - a load (or a call returning a value) picks taint back up iff the
      points-to set of its target intersects [TO].

    Because every interprocedural step rides on the points-to relation, the
    precision of the underlying analysis transfers one-for-one: a
    context-sensitive or cut-shortcut result with smaller points-to sets
    yields strictly fewer spurious leak reports than a context-insensitive
    one, on the same spec and program. That is the paper's precision claim
    restated as user-visible findings (experiment E13).

    A leak is reported at every reachable call site with an edge to a sink
    whose arguments include a tainted reference variable. [t_leak_sites]
    keeps the unfiltered site set — the fuzz oracle checks that every
    dynamic sink hit (interpreter taint tags) is contained in it. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Diagnostic = Csc_checks.Diagnostic
module Cfg = Csc_checks.Cfg
module Dataflow = Csc_checks.Dataflow
module Registry = Csc_obs.Registry
module Interp = Csc_interp.Interp
module Spec = Taint_spec

let check_name = "taint"

(** Per-program role sets, precomputed from the spec's patterns. *)
type roles = { r_src : Bits.t; r_snk : Bits.t; r_san : Bits.t }

let roles (spec : Spec.t) (p : Ir.program) : roles =
  let src = Bits.create () and snk = Bits.create () and san = Bits.create () in
  Array.iter
    (fun (m : Ir.metho) ->
      let name = Ir.method_name p m.m_id in
      if Spec.matches_any spec.sanitizers name then ignore (Bits.add san m.m_id)
      else begin
        if Spec.matches_any spec.sources name then ignore (Bits.add src m.m_id);
        if Spec.matches_any spec.sinks name then ignore (Bits.add snk m.m_id)
      end)
    p.methods;
  { r_src = src; r_snk = snk; r_san = san }

(** Whether the spec can produce any finding on [p] at all — used by the
    fuzzer to skip programs without both a source and a sink. *)
let relevant (spec : Spec.t) (p : Ir.program) : bool =
  let rl = roles spec p in
  (not (Bits.is_empty rl.r_src)) && not (Bits.is_empty rl.r_snk)

(** Interpreter instrumentation for the same spec (dynamic counterpart). *)
let hooks (spec : Spec.t) (p : Ir.program) : Interp.taint_hooks =
  let rl = roles spec p in
  {
    th_source = Bits.mem rl.r_src;
    th_sink = Bits.mem rl.r_snk;
    th_sanitizer = Bits.mem rl.r_san;
  }

type result_t = {
  t_diags : Diagnostic.t list;
      (** leak diagnostics, unfiltered (JDK included); see {!diagnostics} *)
  t_leak_sites : Bits.t;  (** call sites of all reported leaks *)
  t_tainted_objs : Bits.t;  (** [TO]: source-born allocation sites *)
  t_snapshot : Csc_obs.Snapshot.t;  (** [taint_*] counters *)
}

module Dom = struct
  type t = Bits.t

  let equal = Bits.equal

  let join a b =
    let c = Bits.copy a in
    Bits.union_quiet ~into:c b;
    c
end

module DF = Dataflow.Make (Dom)

let is_ref (p : Ir.program) v = Ir.is_ref_type (Ir.var p v).v_ty

let analyze ?(spec = Spec.builtin) (p : Ir.program) (r : Solver.result) :
    result_t =
  let reg = Registry.create () in
  let c_sources = Registry.counter reg "taint_source_methods"
  and c_sinks = Registry.counter reg "taint_sink_methods"
  and c_sans = Registry.counter reg "taint_sanitizer_methods"
  and c_objs = Registry.counter reg "taint_tainted_objs"
  and c_methods = Registry.counter reg "taint_methods_analyzed"
  and c_sink_sites = Registry.counter reg "taint_sink_sites"
  and c_leaks = Registry.counter reg "taint_leaks" in
  let rl = roles spec p in
  Registry.incr ~by:(Bits.cardinal rl.r_src) c_sources;
  Registry.incr ~by:(Bits.cardinal rl.r_snk) c_sinks;
  Registry.incr ~by:(Bits.cardinal rl.r_san) c_sans;
  (* resolved callees per call site, from the analysis' call graph *)
  let edges_at : (Ir.call_id, Ir.method_id list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (site, callee) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt edges_at site) in
      Hashtbl.replace edges_at site (callee :: prev))
    r.Solver.r_edges;
  let callees site =
    Option.value ~default:[] (Hashtbl.find_opt edges_at site)
  in
  (* TO: every allocation site a reachable source's return variable may hold *)
  let to_set = Bits.create () in
  Bits.iter
    (fun mid ->
      if Bits.mem rl.r_src mid then
        match (Ir.metho p mid).m_ret_var with
        | Some rv -> Bits.union_quiet ~into:to_set (r.Solver.r_pt rv)
        | None -> ())
    r.Solver.r_reach;
  Registry.incr ~by:(Bits.cardinal to_set) c_objs;
  let heap_tainted v = Bits.inter_nonempty (r.Solver.r_pt v) to_set in
  let set_bit d v on =
    if Bits.mem d v = on then d
    else begin
      let c = Bits.copy d in
      if on then ignore (Bits.add c v) else Bits.remove c v;
      c
    end
  in
  let transfer _path (s : Ir.stmt) (d : Bits.t) : Bits.t =
    match s with
    | New { lhs; _ }
    | NewArray { lhs; _ }
    | StrConst { lhs; _ }
    | ConstInt { lhs; _ }
    | ConstBool { lhs; _ }
    | ConstNull { lhs }
    | Binop { lhs; _ }
    | Unop { lhs; _ }
    | ALen { lhs; _ }
    | InstanceOf { lhs; _ } -> set_bit d lhs false
    | Copy { lhs; rhs } | Cast { lhs; rhs; _ } ->
      set_bit d lhs (is_ref p lhs && Bits.mem d rhs)
    | Load { lhs; _ } | ALoad { lhs; _ } | SLoad { lhs; _ } ->
      (* taint picked back up from the heap via the points-to join *)
      set_bit d lhs (is_ref p lhs && heap_tainted lhs)
    | Invoke { lhs = Some lhs; site; _ } ->
      let cs = callees site in
      let tainted =
        is_ref p lhs
        && (List.exists (Bits.mem rl.r_src) cs
           || (List.exists (fun c -> not (Bits.mem rl.r_san c)) cs
              && heap_tainted lhs))
      in
      set_bit d lhs tainted
    | _ -> d
  in
  let leak_sites = Bits.create () in
  let diags = ref [] in
  let check_method mid =
    let m = Ir.metho p mid in
    (* only methods that can reach a sink need the var-level fixpoint *)
    let has_sink_call = ref false in
    Ir.iter_stmts
      (function
        | Ir.Invoke { site; _ }
          when List.exists (Bits.mem rl.r_snk) (callees site) ->
          has_sink_call := true
        | _ -> ())
      m.m_body;
    if !has_sink_call then begin
      Registry.incr c_methods;
      let cfg = Cfg.of_method p mid in
      let boundary =
        let d = Bits.create () in
        (match m.m_this with
        | Some t -> if heap_tainted t then ignore (Bits.add d t)
        | None -> ());
        Array.iter
          (fun v -> if is_ref p v && heap_tainted v then ignore (Bits.add d v))
          m.m_params;
        d
      in
      let spec_df =
        DF.{ dir = Dataflow.Forward; boundary; bottom = Bits.create (); transfer }
      in
      let res = DF.solve spec_df cfg in
      DF.iter_stmt_facts spec_df cfg res (fun path s ~before ~after:_ ->
          match s with
          | Invoke { args; site; _ } -> (
            let sinks = List.filter (Bits.mem rl.r_snk) (callees site) in
            if sinks <> [] then begin
              Registry.incr c_sink_sites;
              let tainted_args =
                Array.to_list args
                |> List.filter (fun a -> is_ref p a && Bits.mem before a)
              in
              match tainted_args with
              | [] -> ()
              | args ->
                Registry.incr c_leaks;
                ignore (Bits.add leak_sites site);
                let sink_names =
                  List.sort_uniq String.compare
                    (List.map (Ir.method_name p) sinks)
                in
                let arg_names =
                  List.sort_uniq String.compare (List.map (Ir.var_name p) args)
                in
                let witness =
                  let srcs =
                    List.concat_map
                      (fun a ->
                        Bits.fold
                          (fun s acc ->
                            if Bits.mem to_set s then s :: acc else acc)
                          (r.Solver.r_pt a) [])
                      args
                    |> List.sort_uniq Int.compare
                  in
                  Printf.sprintf "source alloc sites {%s} under %s"
                    (String.concat ", "
                       (List.map (fun s -> "a" ^ string_of_int s) srcs))
                    r.Solver.r_name
                in
                diags :=
                  Diagnostic.
                    {
                      d_check = check_name;
                      d_severity = Error;
                      d_method = mid;
                      d_path = path;
                      d_message =
                        Printf.sprintf "tainted value may reach sink %s via %s"
                          (String.concat ", " sink_names)
                          (String.concat ", " arg_names);
                      d_witness = Some witness;
                    }
                  :: !diags
            end)
          | _ -> ())
    end
  in
  Bits.iter check_method r.Solver.r_reach;
  {
    t_diags = List.sort_uniq Diagnostic.compare !diags;
    t_leak_sites = leak_sites;
    t_tainted_objs = to_set;
    t_snapshot = Registry.snapshot reg;
  }

(** The reportable diagnostics: [include_jdk] (default off) mirrors
    {!Csc_checks.Checks.run_all} — leaks whose sink call sits inside a
    mini-JDK method are hidden, the oracle-facing [t_leak_sites] is not. *)
let diagnostics ?(include_jdk = false) (p : Ir.program) (res : result_t) :
    Diagnostic.t list =
  if include_jdk then res.t_diags
  else
    let is_jdk = Csc_lang.Jdk.is_jdk_method p in
    List.filter
      (fun (d : Diagnostic.t) -> not (is_jdk d.Diagnostic.d_method))
      res.t_diags
