(** Differential tests for the solver's online cycle collapsing: for every
    analysis/program pair, running with collapsing on vs off must produce
    identical points-to sets, call graphs and client metrics. Collapsing is
    a pure performance transformation — any observable difference is a bug
    (cf. DESIGN.md on which counters are *allowed* to differ). *)

open Helpers
module Run = Csc_driver.Run
module Solver = Csc_pta.Solver
module Ir = Csc_ir.Ir
module Bits = Csc_common.Bits
module Gen = Csc_workloads.Gen

let sorted_edges (r : Solver.result) = List.sort compare r.r_edges

(* Compare the full observable surface of two outcomes: reachable methods,
   call edges, per-variable points-to sets and the four client metrics. *)
let check_identical (p : Ir.program) tag (a : Run.outcome) (b : Run.outcome) =
  let ra = Option.get a.Run.o_result and rb = Option.get b.Run.o_result in
  Alcotest.(check bool)
    (tag ^ ": reachable methods identical")
    true
    (Bits.equal ra.Solver.r_reach rb.Solver.r_reach);
  Alcotest.(check bool)
    (tag ^ ": call edges identical")
    true
    (sorted_edges ra = sorted_edges rb);
  Array.iter
    (fun (v : Ir.var) ->
      if not (Bits.equal (ra.Solver.r_pt v.v_id) (rb.Solver.r_pt v.v_id)) then
        Alcotest.fail
          (Printf.sprintf "%s: points-to of %s differs with collapsing" tag
             v.v_name))
    p.Ir.vars;
  Alcotest.(check bool)
    (tag ^ ": client metrics identical")
    true
    (Option.get a.Run.o_metrics = Option.get b.Run.o_metrics)

let differential analysis src tag =
  let p = compile src in
  let on = Run.run_spec (Run.spec analysis) p in
  let off = Run.run_spec { (Run.spec analysis) with sp_collapse = false } p in
  check_identical p tag on off

let test_fixtures_ci () =
  List.iter
    (fun (name, src) -> differential Run.Imp_ci src ("ci/" ^ name))
    Fixtures.all

let test_fixtures_csc () =
  List.iter
    (fun (name, src) -> differential Run.Imp_csc src ("csc/" ^ name))
    Fixtures.all

let test_fixtures_2obj () =
  List.iter
    (fun (name, src) -> differential Run.Imp_2obj src ("2obj/" ^ name))
    Fixtures.all

let test_generated_workload () =
  let src = Gen.generate Gen.small_shape in
  differential Run.Imp_ci src "gen/ci";
  differential Run.Imp_csc src "gen/csc"

(* Provenance chains are recorded in original (pre-merge) pointer names:
   enabling provenance turns collapsing off, so --explain output does not
   depend on the collapse flag at all. *)
let all_chains t =
  let acc = ref [] in
  Solver.iter_ptrs t (fun ptr desc ->
      match desc with
      | Solver.PVar (_, _) ->
        Bits.iter
          (fun obj ->
            acc := Solver.explain_chain t ~ptr ~obj :: !acc)
          (Solver.pts t ptr)
      | _ -> ());
  List.sort compare !acc

let solve_with_provenance ~collapse p =
  let t = Solver.create ~collapse p in
  ignore (Solver.enable_provenance t : bool);
  Solver.run t;
  t

let test_explain_unchanged () =
  let p = compile Fixtures.carton in
  let a = solve_with_provenance ~collapse:true p in
  let b = solve_with_provenance ~collapse:false p in
  let ca = all_chains a and cb = all_chains b in
  Alcotest.(check bool) "some chains recorded" true (ca <> []);
  Alcotest.(check bool) "explain output identical" true (ca = cb);
  List.iter
    (fun chain ->
      List.iter
        (fun line ->
          if String.length line = 0 then
            Alcotest.fail "empty provenance line")
        chain)
    ca

(* The rep -> members mapping is exposed for tooling; with collapsing off it
   must be empty, and with provenance on collapsing is forced off. *)
let test_collapse_classes_exposed () =
  let p = compile (Gen.generate Gen.small_shape) in
  let t = Solver.analyze ~collapse:false p in
  Alcotest.(check (list (pair int (list int))))
    "no classes with collapsing off" []
    (Solver.collapse_classes t);
  let t = solve_with_provenance ~collapse:true p in
  Alcotest.(check (list (pair int (list int))))
    "provenance forces collapsing off" []
    (Solver.collapse_classes t)

let suite =
  [
    ( "pta.differential",
      [
        Alcotest.test_case "fixtures: ci on = off" `Quick test_fixtures_ci;
        Alcotest.test_case "fixtures: csc on = off" `Quick test_fixtures_csc;
        Alcotest.test_case "fixtures: 2obj on = off" `Quick test_fixtures_2obj;
        Alcotest.test_case "generated workload on = off" `Quick
          test_generated_workload;
        Alcotest.test_case "explain output unchanged" `Quick
          test_explain_unchanged;
        Alcotest.test_case "collapse_classes exposure" `Quick
          test_collapse_classes_exposed;
      ] );
  ]
