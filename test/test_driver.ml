(** Tests for the driver layer: Zipper^e selection, the uniform analysis
    runner, metrics, and the recall experiment. *)

open Helpers
module Run = Csc_driver.Run
module Zipper = Csc_driver.Zipper
module Metrics = Csc_clients.Metrics
module Solver = Csc_pta.Solver
module Bits = Csc_common.Bits

let run p a = Run.run_spec (Run.spec a) p

let test_zipper_selects_containers () =
  let p = compile Fixtures.containers in
  let pre = Solver.(result (analyze p)) in
  let sel = Zipper.select p pre in
  let is_selected name = Bits.mem sel.selected (find_method p name).m_id in
  Alcotest.(check bool) "ArrayList.add selected" true (is_selected "ArrayList.add");
  Alcotest.(check bool) "ArrayList.get selected" true (is_selected "ArrayList.get");
  Alcotest.(check bool) "ArrayList ctor selected" true
    (is_selected "ArrayList.<init>")

let test_zipper_selects_accessors () =
  let p = compile Fixtures.carton in
  let pre = Solver.(result (analyze p)) in
  let sel = Zipper.select p pre in
  Alcotest.(check bool) "setter selected" true
    (Bits.mem sel.selected (find_method p "Carton.setItem").m_id);
  Alcotest.(check bool) "getter selected" true
    (Bits.mem sel.selected (find_method p "Carton.getItem").m_id)

let test_zipper_skips_plain_code () =
  let src =
    {|
class Plain {
  int add(int a, int b) { return a + b; }
}
class Main {
  static void main() {
    Plain pl = new Plain();
    System.print(pl.add(1, 2));
  }
}
|}
  in
  let p = compile src in
  let pre = Solver.(result (analyze p)) in
  let sel = Zipper.select p pre in
  Alcotest.(check bool) "int-only method not selected" false
    (Bits.mem sel.selected (find_method p "Plain.add").m_id)

(* One pass over the variables gives the same selection as rescanning
   them for each method, which the selection did before. *)
let test_zipper_matches_rescan () =
  List.iter
    (fun prog ->
      let p = Csc_workloads.Suite.compile prog in
      let pre = Solver.(result (analyze p)) in
      let volume (m : Ir.metho) =
        Array.fold_left
          (fun acc (v : Ir.var) ->
            if v.v_method = m.m_id then acc + Bits.cardinal (pre.r_pt v.v_id)
            else acc)
          0 p.vars
      in
      let reached =
        List.filter
          (fun (m : Ir.metho) -> Bits.mem pre.r_reach m.m_id)
          (Array.to_list p.methods)
      in
      (* a cap of the whole volume drops nothing: the candidates *)
      let all = Zipper.select ~cap_fraction:1.0 p pre in
      Alcotest.(check int) (prog ^ ": nothing dropped at cap 1") 0
        all.n_dropped;
      let candidates =
        List.filter (fun (m : Ir.metho) -> Bits.mem all.selected m.m_id) reached
      in
      let total = List.fold_left (fun acc m -> acc + volume m) 0 reached in
      let cap = max 100 (int_of_float (0.05 *. float total)) in
      let kept = List.filter (fun m -> volume m <= cap) candidates in
      let sel = Zipper.select p pre in
      Alcotest.(check (list int)) (prog ^ ": selected")
        (List.sort compare (List.map (fun (m : Ir.metho) -> m.m_id) kept))
        (Bits.to_list sel.selected);
      Alcotest.(check int) (prog ^ ": candidates") (List.length candidates)
        sel.n_candidates;
      Alcotest.(check int) (prog ^ ": dropped")
        (List.length candidates - List.length kept)
        sel.n_dropped)
    [ "findbugs"; "hsqldb" ]

let test_zipper_main_analysis_precision () =
  let p = compile Fixtures.carton in
  let o = run p Run.Imp_zipper in
  match o.o_metrics with
  | None -> Alcotest.fail "zipper timed out on a tiny program"
  | Some m ->
    let ci = run p Run.Imp_ci in
    let ci_m = Option.get ci.o_metrics in
    Alcotest.(check bool) "zipper at least as precise as CI" true
      (Metrics.better_or_equal m ci_m)

let test_run_all_analyses_on_fixture () =
  let p = compile Fixtures.containers in
  List.iter
    (fun a ->
      let o = run p a in
      Alcotest.(check bool)
        (Run.name a ^ " completes")
        true (not o.o_timeout);
      match o.o_metrics with
      | Some m -> Alcotest.(check bool) "reaches main" true (m.reach_mtd > 0)
      | None -> Alcotest.fail "no metrics")
    (Run.all_imperative @ Run.all_datalog)

let test_metrics_ordering () =
  (* CI is the least precise of all completing analyses, on every metric *)
  let p = compile Fixtures.containers in
  let ci = Option.get (run p Run.Imp_ci).o_metrics in
  List.iter
    (fun a ->
      match (run p a).o_metrics with
      | Some m ->
        Alcotest.(check bool)
          (Run.name a ^ " at least as precise as CI")
          true
          (Metrics.better_or_equal m ci)
      | None -> ())
    [ Run.Imp_csc; Run.Imp_kobj 2; Run.Imp_ktype 2; Run.Imp_zipper; Run.Doop_csc ]

(* the recall experiment's path, as the CLI [recall] command and the bench
   [recall] experiment take it: solve through a session, score the answer
   against an execution *)
let test_recall_api () =
  let sess = Csc_driver.Session.create () in
  let ((p, _) as pd) =
    Csc_server.Query.program sess ~source:Fixtures.arith "arith"
  in
  let dyn = Csc_interp.Interp.run p in
  List.iter
    (fun a ->
      let o, _ = Csc_server.Query.outcome sess (Run.spec a) pd in
      let rc =
        Metrics.recall (Csc_server.Query.result o)
          ~dyn_reach:dyn.dyn_reachable ~dyn_edges:dyn.dyn_edges
      in
      Alcotest.(check (float 0.0001)) (Run.name a ^ " methods recall") 1.0
        rc.recall_methods;
      Alcotest.(check (float 0.0001)) (Run.name a ^ " edges recall") 1.0
        rc.recall_edges)
    [ Run.Imp_ci; Run.Imp_csc ]

let test_overlap () =
  let a = Bits.of_list [ 1; 2; 3; 4 ] in
  let b = Bits.of_list [ 3; 4; 5 ] in
  Alcotest.(check (float 0.0001)) "overlap" 0.5
    (Run.overlap ~involved:a ~selected:b)

let test_csc_outcome_extras () =
  let p = compile Fixtures.carton in
  let o = run p Run.Imp_csc in
  Alcotest.(check bool) "has involved set" true (o.o_involved <> None);
  Alcotest.(check bool) "has shortcuts" true (o.o_shortcuts > 0)

let test_workload_end_to_end () =
  (* the full pipeline on the smallest workload: CI vs CSC *)
  let p = Csc_workloads.Suite.compile "hsqldb" in
  let ci = Run.run_spec { (Run.spec Run.Imp_ci) with sp_budget_s = Some 60. } p in
  let csc = Run.run_spec { (Run.spec Run.Imp_csc) with sp_budget_s = Some 60. } p in
  match (ci.o_metrics, csc.o_metrics) with
  | Some mi, Some mc ->
    Alcotest.(check bool) "csc more precise on fail-cast" true
      (mc.fail_cast < mi.fail_cast);
    Alcotest.(check bool) "csc call graph no larger" true
      (mc.call_edge <= mi.call_edge)
  | _ -> Alcotest.fail "timeout on hsqldb"

let suite =
  [
    ( "driver.zipper",
      [
        Alcotest.test_case "selects container methods" `Quick
          test_zipper_selects_containers;
        Alcotest.test_case "selects accessors" `Quick test_zipper_selects_accessors;
        Alcotest.test_case "skips plain code" `Quick test_zipper_skips_plain_code;
        Alcotest.test_case "main analysis precision" `Quick
          test_zipper_main_analysis_precision;
        Alcotest.test_case "volumes match a per-method rescan" `Quick
          test_zipper_matches_rescan;
      ] );
    ( "driver.run",
      [
        Alcotest.test_case "all analyses complete" `Slow
          test_run_all_analyses_on_fixture;
        Alcotest.test_case "metrics ordering" `Slow test_metrics_ordering;
        Alcotest.test_case "recall API" `Quick test_recall_api;
        Alcotest.test_case "overlap" `Quick test_overlap;
        Alcotest.test_case "csc outcome extras" `Quick test_csc_outcome_extras;
        Alcotest.test_case "workload end-to-end" `Slow test_workload_end_to_end;
      ] );
  ]
