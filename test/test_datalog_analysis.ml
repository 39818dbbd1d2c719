(** Tests for the declarative (Doop-analog) analyses: equivalence with the
    imperative engine for CI and under one context selector on both engines,
    faithfulness of the Doop CSC variant (no load pattern), and soundness. *)

open Helpers
module A = Csc_datalog.Analysis
module Solver = Csc_pta.Solver
module Context = Csc_pta.Context
module Bits = Csc_common.Bits
module Csc = Csc_core.Csc

let dl_run kind src =
  let p = compile src in
  (p, A.run p kind)

let same_result (p : Ir.program) (a : Solver.result) (b : Solver.result) =
  if not (Bits.equal a.r_reach b.r_reach) then
    Alcotest.fail
      (Printf.sprintf "%s vs %s: reachable methods differ (%d vs %d)" a.r_name
         b.r_name (Bits.cardinal a.r_reach) (Bits.cardinal b.r_reach));
  let sort = List.sort_uniq compare in
  if sort a.r_edges <> sort b.r_edges then
    Alcotest.fail
      (Printf.sprintf "%s vs %s: call edges differ (%d vs %d)" a.r_name b.r_name
         (List.length (sort a.r_edges))
         (List.length (sort b.r_edges)));
  Array.iter
    (fun (vr : Ir.var) ->
      if not (Bits.equal (a.r_pt vr.v_id) (b.r_pt vr.v_id)) then
        Alcotest.fail
          (Printf.sprintf "%s vs %s: pt(%s.%s) differs" a.r_name b.r_name
             (Ir.method_name p vr.v_method) vr.v_name))
    p.vars

let test_ci_matches_imperative () =
  List.iter
    (fun (_, src) ->
      let p = compile src in
      let imp = Solver.(result (analyze p)) in
      let dl = A.run p A.Ci in
      same_result p imp dl)
    Fixtures.all

(* one selector drives both engines: the Datalog rules under [A.Cs sel]
   must give what [Solver.analyze ~sel] gives (soot's 2obj-style solves
   are too slow for the quick suite) *)
let same_under ?(skip = []) sels () =
  List.iter
    (fun (name, src) ->
      if not (List.mem name skip) then begin
        let p = compile src in
        List.iter
          (fun sel ->
            same_result p Solver.(result (analyze ~sel p)) (A.run p (A.Cs sel)))
          sels
      end)
    Fixtures.all

let test_2obj_matches_imperative =
  same_under ~skip:[ "soot" ] [ Context.kobj ~k:2 ~hk:1 ]

let test_2type_matches_imperative = same_under [ Context.ktype ~k:2 ~hk:1 ]

(* selectors no analysis name spells on the Datalog engine: other depths,
   and call-site sensitivity, which needs the call site in [calleectx] and
   [staticctx] *)
let test_any_selector_matches_imperative =
  same_under ~skip:[ "soot" ]
    [ Context.kobj ~k:1 ~hk:1; Context.kobj ~k:3 ~hk:2;
      Context.ktype ~k:1 ~hk:1; Context.kcall ~k:2 ~hk:1 ]

(* the Doop CSC variant: container + store + local flow, but NO load
   handling (paper §5, "Implementation") *)

let test_doop_csc_store_side () =
  let p, r = dl_run A.Csc_doop Fixtures.carton in
  (* store pattern works: result1 is still merged because load handling is
     omitted on Doop... but o.item fields are precise, so getItem returns
     both - check the LHS merged (2) while CSC-on-Tai-e gives 1 *)
  Alcotest.(check int) "result1 merged (no load pattern on Doop)" 2
    (pt_size r (var p "Main.main" "result1"))

let test_doop_csc_containers () =
  let p, r = dl_run A.Csc_doop Fixtures.containers in
  Alcotest.(check int) "x precise" 1 (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) "y precise" 1 (pt_size r (var p "Main.main" "y"));
  Alcotest.(check int) "iterator r1 precise" 1 (pt_size r (var p "Main.main" "r1"))

let test_doop_csc_localflow () =
  let p, r = dl_run A.Csc_doop Fixtures.localflow in
  Alcotest.(check int) "r1 precise" 2 (pt_size r (var p "C.main" "r1"))

let test_doop_csc_maps () =
  let p, r = dl_run A.Csc_doop Fixtures.maps in
  Alcotest.(check int) "v1 precise" 1 (pt_size r (var p "Main.main" "v1"));
  Alcotest.(check int) "kk precise" 1 (pt_size r (var p "Main.main" "kk"))

let test_doop_csc_recall () =
  List.iter
    (fun (_, src) ->
      let p, r = dl_run A.Csc_doop src in
      check_recall p r)
    Fixtures.all

let test_doop_csc_refines_ci () =
  List.iter
    (fun (_, src) ->
      let p = compile src in
      let ci = A.run p A.Ci in
      let csc = A.run p A.Csc_doop in
      Array.iter
        (fun (vr : Ir.var) ->
          if not (Bits.subset (csc.r_pt vr.v_id) (ci.r_pt vr.v_id)) then
            Alcotest.fail
              (Printf.sprintf "doop-csc larger than doop-ci for %s" vr.v_name))
        p.vars)
    Fixtures.all

let test_selective_between_ci_and_2obj () =
  let p = compile Fixtures.carton in
  (* select only Carton's methods *)
  let sel = Bits.create () in
  Array.iter
    (fun (m : Ir.metho) ->
      if Ir.class_name p m.m_class = "Carton" then ignore (Bits.add sel m.m_id))
    p.methods;
  let r =
    A.run p (A.Cs (Context.selective ~selected:sel ~base:(Context.kobj ~k:2 ~hk:1)))
  in
  Alcotest.(check int) "selective 2obj recovers carton precision" 1
    (pt_size r (var p "Main.main" "result1"))

let test_timeout () =
  let p = compile Fixtures.containers in
  let budget = Csc_common.Timer.budget (Some (-1.0)) in
  match A.run ~budget p A.Ci with
  | _ -> Alcotest.fail "expected timeout"
  | exception A.Timeout _ -> ()

(* a Datalog timeout keeps the aborted engine's snapshot, as the
   imperative one does *)
let test_timeout_snapshot () =
  let module Run = Csc_driver.Run in
  let p = Csc_workloads.Suite.compile "hsqldb" in
  let o = Run.run_spec { (Run.spec Run.Doop_ci) with Run.sp_budget_s = Some 0.05 } p in
  Alcotest.(check bool) "timed out" true o.Run.o_timeout;
  match o.Run.o_snapshot with
  | None -> Alcotest.fail "timeout outcome without a snapshot"
  | Some s -> (
    match Csc_obs.Snapshot.counter_value s "derived" with
    | Some d when d > 0 -> ()
    | d ->
      Alcotest.failf "derived = %s"
        (Option.fold ~none:"none" ~some:string_of_int d))

let suite =
  [
    ( "datalog.analysis",
      [
        Alcotest.test_case "CI = imperative CI" `Quick test_ci_matches_imperative;
        Alcotest.test_case "2obj = imperative 2obj" `Quick
          test_2obj_matches_imperative;
        Alcotest.test_case "2type = imperative 2type" `Quick
          test_2type_matches_imperative;
        Alcotest.test_case "any selector = imperative" `Quick
          test_any_selector_matches_imperative;
        Alcotest.test_case "doop-csc: no load pattern" `Quick
          test_doop_csc_store_side;
        Alcotest.test_case "doop-csc: containers" `Quick test_doop_csc_containers;
        Alcotest.test_case "doop-csc: local flow" `Quick test_doop_csc_localflow;
        Alcotest.test_case "doop-csc: maps" `Quick test_doop_csc_maps;
        Alcotest.test_case "doop-csc: recall" `Quick test_doop_csc_recall;
        Alcotest.test_case "doop-csc refines doop-ci" `Quick
          test_doop_csc_refines_ci;
        Alcotest.test_case "selective 2obj" `Quick
          test_selective_between_ci_and_2obj;
        Alcotest.test_case "budget timeout" `Quick test_timeout;
        Alcotest.test_case "timeout keeps snapshot" `Quick test_timeout_snapshot;
      ] );
  ]
