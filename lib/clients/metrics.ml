(** The four precision clients used throughout the paper's evaluation (§5):

    - [#fail-cast]: casts that may fail (cast-resolution client);
    - [#reach-mtd]: reachable methods;
    - [#poly-call]: virtual call sites that cannot be devirtualized;
    - [#call-edge]: call-graph edges.

    All four are computed from the engine-agnostic {!Csc_pta.Solver.result},
    so the imperative and the Datalog engines share this code. Smaller is
    better for every metric. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

type t = {
  fail_cast : int;
  reach_mtd : int;
  poly_call : int;
  call_edge : int;
}

(** Sites of the [#fail-cast] client, as a set: a reachable cast (T) x may
    fail if some allocation in pt(x) is not a subtype of T. Exposed for the
    soundness fuzzer, which checks dynamically-failed casts against it. *)
let may_fail_casts (p : Ir.program) (r : Solver.result) : Bits.t =
  let sites = Bits.create () in
  Ir.iter_all_stmts
    (fun mid s ->
      if Bits.mem r.r_reach mid then
        match s with
        | Cast { ty; rhs; site; _ } ->
          let may_fail =
            Bits.exists
              (fun a -> not (Ir.subtype p (Ir.alloc_typ p a) ty))
              (r.r_pt rhs)
          in
          if may_fail then ignore (Bits.add sites site)
        | _ -> ())
    p;
  sites

let compute (p : Ir.program) (r : Solver.result) : t =
  let fail_cast = Bits.cardinal (may_fail_casts p r) in
  (* #poly-call and #call-edge from the projected call graph *)
  let targets_by_site : (Ir.call_id, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (site, _) ->
      Hashtbl.replace targets_by_site site
        (1 + Option.value ~default:0 (Hashtbl.find_opt targets_by_site site)))
    r.r_edges;
  let poly_call = ref 0 in
  Hashtbl.iter
    (fun site n ->
      if n >= 2 && (Ir.call p site).cs_kind = Virtual then incr poly_call)
    targets_by_site;
  {
    fail_cast;
    reach_mtd = Bits.cardinal r.r_reach;
    poly_call = !poly_call;
    call_edge = List.length r.r_edges;
  }

let pp ppf m =
  Fmt.pf ppf "#fail-cast=%d #reach-mtd=%d #poly-call=%d #call-edge=%d"
    m.fail_cast m.reach_mtd m.poly_call m.call_edge

(** Extension client (not in the paper's four): the number of reachable
    [instanceof] sites whose outcome is *not* statically resolved, i.e. the
    points-to set contains both passing and failing allocations. A precise
    analysis lets more type tests be folded away. *)
let unresolved_instanceof (p : Ir.program) (r : Solver.result) : int =
  let n = ref 0 in
  Ir.iter_all_stmts
    (fun mid s ->
      if Bits.mem r.r_reach mid then
        match s with
        | InstanceOf { ty; rhs; _ } ->
          let pass = ref false and fail = ref false in
          Bits.iter
            (fun a ->
              if Ir.subtype p (Ir.alloc_typ p a) ty then pass := true
              else fail := true)
            (r.r_pt rhs);
          if !pass && !fail then incr n
        | _ -> ())
    p;
  !n

(** Precision comparison: [better_or_equal a b] iff [a] is at least as
    precise as [b] on every metric. *)
let better_or_equal a b =
  a.fail_cast <= b.fail_cast
  && a.reach_mtd <= b.reach_mtd
  && a.poly_call <= b.poly_call
  && a.call_edge <= b.call_edge

(** Recall of a static result against a dynamic run: fraction of dynamic
    reachable methods / call edges that the static analysis covers. A sound
    analysis scores 1.0 on both. *)
type recall = { recall_methods : float; recall_edges : float }

let recall (r : Solver.result) ~(dyn_reach : Bits.t)
    ~(dyn_edges : (Ir.call_id * Ir.method_id) list) : recall =
  let total_m = Bits.cardinal dyn_reach in
  let hit_m =
    Bits.fold (fun m acc -> if Bits.mem r.r_reach m then acc + 1 else acc)
      dyn_reach 0
  in
  let static_edges = Hashtbl.create (List.length r.r_edges) in
  List.iter (fun e -> Hashtbl.replace static_edges e ()) r.r_edges;
  let total_e = List.length dyn_edges in
  let hit_e = List.length (List.filter (Hashtbl.mem static_edges) dyn_edges) in
  {
    recall_methods = (if total_m = 0 then 1.0 else float hit_m /. float total_m);
    recall_edges = (if total_e = 0 then 1.0 else float hit_e /. float total_e);
  }
