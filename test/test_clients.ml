(** Unit tests for the precision-metric clients. *)

open Helpers
module Metrics = Csc_clients.Metrics
module Solver = Csc_pta.Solver
module Bits = Csc_common.Bits

let test_fail_cast_counts () =
  let p, r = analyze Fixtures.poly in
  let m = Metrics.compute p r in
  (* poly fixture: one safe cast, one may-fail cast *)
  Alcotest.(check int) "one may-fail cast under CI" 1 m.fail_cast

let test_fail_cast_cs_drops () =
  let p, r = analyze ~sel:(Csc_pta.Context.kcall ~k:2 ~hk:1) Fixtures.poly in
  let m = Metrics.compute p r in
  (* under 2call, pick(true)/pick(false) still merge both allocations inside
     pick (single method body, both New sites reachable), so the downcast
     stays flagged; the safe cast stays safe *)
  Alcotest.(check bool) "still flags the real downcast" true (m.fail_cast >= 1)

let test_poly_call () =
  let p, r = analyze Fixtures.poly in
  let m = Metrics.compute p r in
  Alcotest.(check int) "one polymorphic site" 1 m.poly_call

let test_reach_and_edges_consistent () =
  let p, r = analyze Fixtures.containers in
  let m = Metrics.compute p r in
  Alcotest.(check int) "#reach-mtd = |reach|" (Bits.cardinal r.r_reach) m.reach_mtd;
  Alcotest.(check int) "#call-edge = |edges|" (List.length r.r_edges) m.call_edge;
  (* every edge's callee is reachable *)
  List.iter
    (fun (_, callee) ->
      Alcotest.(check bool) "callee reachable" true (Bits.mem r.r_reach callee))
    r.r_edges

let test_unreachable_casts_not_counted () =
  let src =
    {|
class A { }
class B extends A { }
class Dead {
  void never() {
    A a = new A();
    B b = (B) a;
    System.print(b);
  }
}
class Main { static void main() { System.print(1); } }
|}
  in
  let p, r = analyze src in
  let m = Metrics.compute p r in
  Alcotest.(check int) "dead cast not flagged" 0 m.fail_cast

let test_better_or_equal () =
  let a = Metrics.{ fail_cast = 1; reach_mtd = 10; poly_call = 2; call_edge = 50 } in
  let b = Metrics.{ fail_cast = 2; reach_mtd = 10; poly_call = 2; call_edge = 55 } in
  Alcotest.(check bool) "a <= b" true (Metrics.better_or_equal a b);
  Alcotest.(check bool) "b !<= a" false (Metrics.better_or_equal b a)

let test_recall_perfect_and_partial () =
  let p, r = analyze Fixtures.carton in
  let dyn = Csc_interp.Interp.run p in
  let rc =
    Metrics.recall r ~dyn_reach:dyn.dyn_reachable ~dyn_edges:dyn.dyn_edges
  in
  Alcotest.(check (float 0.001)) "methods 100%" 1.0 rc.recall_methods;
  Alcotest.(check (float 0.001)) "edges 100%" 1.0 rc.recall_edges;
  (* a fake result missing everything scores 0 *)
  let empty =
    {
      r with
      Solver.r_reach = Bits.create ();
      r_edges = [];
    }
  in
  let rc0 =
    Metrics.recall empty ~dyn_reach:dyn.dyn_reachable ~dyn_edges:dyn.dyn_edges
  in
  Alcotest.(check (float 0.001)) "methods 0%" 0.0 rc0.recall_methods

(* the hash-set recall must score exactly what the naive list scan does,
   on full results and on results with every other call edge dropped *)
let test_recall_matches_naive () =
  let naive (r : Solver.result) (dyn : Csc_interp.Interp.outcome) =
    let hit = List.filter (fun e -> List.mem e r.r_edges) dyn.dyn_edges in
    if dyn.dyn_edges = [] then 1.0
    else float (List.length hit) /. float (List.length dyn.dyn_edges)
  in
  List.iter
    (fun (name, src) ->
      let p, r = analyze src in
      let dyn = Csc_interp.Interp.run p in
      let thinned =
        { r with Solver.r_edges = List.filteri (fun i _ -> i mod 2 = 0) r.r_edges }
      in
      List.iter
        (fun (what, r) ->
          let rc =
            Metrics.recall r ~dyn_reach:dyn.dyn_reachable ~dyn_edges:dyn.dyn_edges
          in
          Alcotest.(check (float 0.)) (name ^ " " ^ what) (naive r dyn)
            rc.recall_edges)
        [ ("full", r); ("thinned", thinned) ])
    Fixtures.all

let suite =
  [
    ( "clients",
      [
        Alcotest.test_case "fail-cast CI" `Quick test_fail_cast_counts;
        Alcotest.test_case "fail-cast under cs" `Quick test_fail_cast_cs_drops;
        Alcotest.test_case "poly-call" `Quick test_poly_call;
        Alcotest.test_case "reach/edges consistent" `Quick
          test_reach_and_edges_consistent;
        Alcotest.test_case "dead casts not counted" `Quick
          test_unreachable_casts_not_counted;
        Alcotest.test_case "better_or_equal" `Quick test_better_or_equal;
        Alcotest.test_case "recall scoring" `Quick test_recall_perfect_and_partial;
        Alcotest.test_case "recall equals the naive scan" `Quick
          test_recall_matches_naive;
      ] );
  ]
