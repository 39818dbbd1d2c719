(** Tests for the multicore parallel solver (DESIGN.md S18).

    The headline property is scheduling-independence: for every analysis and
    every [--jobs N], the parallel bulk-synchronous solver must produce the
    same reachable methods, call graph, per-variable points-to sets and
    client metrics as the sequential solver — on the fixtures, on generated
    workloads, and through the fuzz oracle's containment matrix. Engine
    counters ([propagated], [wl_pushes], [cycles_collapsed]) are explicitly
    {e not} compared: the schedule legitimately changes them.

    On a 4.14 build the [Domains_compat] serial twin runs every slice in the
    caller, so this whole suite also validates the fallback path. *)

open Helpers
module Run = Csc_driver.Run
module Solver = Csc_pta.Solver
module Par = Csc_pta.Par
module Ir = Csc_ir.Ir
module Bits = Csc_common.Bits
module Rng = Csc_common.Rng
module Domains_compat = Csc_common.Domains_compat
module Attr = Csc_obs.Attr
module Registry = Csc_obs.Registry
module Gen = Csc_workloads.Gen
module Soundness = Csc_fuzz.Soundness

let sorted_edges (r : Solver.result) = List.sort compare r.Solver.r_edges

(* Compare the full observable surface of a sequential and a parallel
   outcome (cf. Test_differential.check_identical for collapsing). *)
let check_same (p : Ir.program) tag (seq : Run.outcome) (par : Run.outcome) =
  let rs = Option.get seq.Run.o_result
  and rp = Option.get par.Run.o_result in
  Alcotest.(check bool)
    (tag ^ ": reachable methods identical")
    true
    (Bits.equal rs.Solver.r_reach rp.Solver.r_reach);
  Alcotest.(check bool)
    (tag ^ ": call edges identical")
    true
    (sorted_edges rs = sorted_edges rp);
  Array.iter
    (fun (v : Ir.var) ->
      if not (Bits.equal (rs.Solver.r_pt v.v_id) (rp.Solver.r_pt v.v_id))
      then
        Alcotest.fail
          (Printf.sprintf "%s: points-to of %s differs under --jobs" tag
             v.v_name))
    p.Ir.vars;
  Alcotest.(check bool)
    (tag ^ ": client metrics identical")
    true
    (Option.get seq.Run.o_metrics = Option.get par.Run.o_metrics)

let differential ?(collapse = true) analysis src tag =
  let p = compile src in
  let s = { (Run.spec analysis) with sp_collapse = collapse } in
  let seq = Run.run_spec s p in
  List.iter
    (fun jobs ->
      let par = Run.run_spec { s with sp_jobs = jobs } p in
      check_same p (Printf.sprintf "%s@j%d" tag jobs) seq par)
    [ 2; 4 ]

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

(* The parallel path composes with collapsing off (Par defers LCD/sweeps
   entirely when the solver was created with [~collapse:false]). *)
let test_no_collapse () =
  let src = Gen.generate Gen.small_shape in
  differential ~collapse:false Run.Imp_csc src "gen/csc-nocollapse"

(* Dynamic behaviour ⊆ static result for every analysis in the oracle
   matrix, with the imperative solves running on 4 domains: the soundness
   oracle doubling as a scheduling-differential test. *)
let test_fuzz_oracle_matrix () =
  List.iter
    (fun seed ->
      let plan = Gen.Rand.generate ~seed ~max_size:25 in
      let src = Gen.Rand.render plan in
      let p = compile src in
      let vs = Soundness.check ~jobs:4 p in
      List.iter
        (fun v -> Alcotest.fail (Fmt.str "%a" Soundness.pp_violation v))
        vs)
    [ 7; 99; 4242 ]

(* Provenance recording is inherently sequential: Par.run must fall back
   (not crash, not drop chains) when --explain asked for provenance. *)
let test_explain_falls_back () =
  let p = compile Fixtures.carton in
  let t = Solver.create p in
  ignore (Solver.enable_provenance t : bool);
  Par.run ~jobs:4 t;
  let n = ref 0 in
  Solver.iter_ptrs t (fun ptr desc ->
      match desc with
      | Solver.PVar (_, _) -> n := !n + Bits.cardinal (Solver.pts t ptr)
      | _ -> ());
  Alcotest.(check bool) "provenance run produced points-to facts" true (!n > 0)

(* ---- shard assignment (qcheck) ---- *)

(* Totality and canonicalization-stability of the owner function, on solved
   instances (so the union-find actually contains merges): for every live
   pointer and every jobs value, the shard is in [0, jobs) and agrees with
   the shard of the union-find representative — the invariant that makes
   owner-only writes race-free mid-round. *)
let prop_shard =
  QCheck2.Test.make ~count:15 ~name:"shard_of: total, canon-stable"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let src = Gen.generate { Gen.small_shape with Gen.seed } in
      let p = compile src in
      let t = Solver.analyze p in
      let ok = ref true in
      Solver.iter_ptrs t (fun ptr _ ->
          List.iter
            (fun jobs ->
              let s = Solver.shard_of t ~jobs ptr in
              if s < 0 || s >= jobs then ok := false;
              if s <> Solver.shard_of t ~jobs (Solver.canon t ptr) then
                ok := false;
              if jobs = 1 && s <> 0 then ok := false)
            [ 1; 2; 3; 4; 8 ]);
      !ok)

(* ---- Domains_compat.Pool ---- *)

let test_pool_barrier () =
  Domains_compat.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "jobs" 4 (Domains_compat.Pool.jobs pool);
      let hits = Array.make 4 (-1) in
      Domains_compat.Pool.run pool (fun k -> hits.(k) <- k);
      (* everything a slice wrote is visible after the barrier *)
      Alcotest.(check (array int)) "all slices ran" [| 0; 1; 2; 3 |] hits;
      (* the pool is reusable across rounds *)
      let sum = Array.make 4 0 in
      Domains_compat.Pool.run pool (fun k -> sum.(k) <- hits.(k) * 2);
      Alcotest.(check (array int)) "second round" [| 0; 2; 4; 6 |] sum)

exception Boom

let test_pool_exception () =
  Domains_compat.Pool.with_pool ~jobs:3 (fun pool ->
      let survived = Array.make 3 false in
      (match
         Domains_compat.Pool.run pool (fun k ->
             survived.(k) <- true;
             if k = 1 then raise Boom)
       with
      | () -> Alcotest.fail "expected Boom to propagate"
      | exception Boom -> ());
      (* the raise did not kill the other slices before the barrier *)
      Alcotest.(check (array bool)) "all slices still ran" [| true; true; true |]
        survived;
      (* and the pool survives the exception *)
      Domains_compat.Pool.run pool (fun _ -> ()))

let test_recommended () =
  Alcotest.(check bool) "recommended >= 1" true (Domains_compat.recommended () >= 1);
  if not Domains_compat.available then
    Alcotest.(check int)
      "serial build recommends 1" 1
      (Domains_compat.recommended ())

(* ---- satellite units: Rng, Attr, heap gauge ---- *)

let test_rng_split () =
  let stream r = List.init 8 (fun _ -> Rng.next r) in
  let a = Rng.split (Rng.create 42) and b = Rng.split (Rng.create 42) in
  Alcotest.(check bool) "split is deterministic" true (stream a = stream b);
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  Alcotest.(check bool)
    "child stream differs from parent" true
    (stream child <> stream parent)

let test_rng_copy () =
  let r = Rng.create 7 in
  ignore (Rng.next r);
  let c = Rng.copy r in
  Alcotest.(check bool)
    "copy resumes at the same state" true
    (Rng.next c = Rng.next r);
  ignore (Rng.next c);
  ignore (Rng.next c);
  (* advancing the copy must not advance the original *)
  Alcotest.(check bool) "copy is independent" true (Rng.next c <> Rng.next r)

let test_attr_merge () =
  let a = Attr.create () and b = Attr.create () in
  Attr.observe_pop a ~meth:1 ~ptr:10 ~delta:3;
  Attr.observe_pop a ~meth:2 ~ptr:11 ~delta:1;
  Attr.observe_pop b ~meth:1 ~ptr:10 ~delta:2;
  Attr.merge ~into:a b;
  Alcotest.(check int) "pops add" 3 (Attr.pops a);
  (* merging an empty table is the identity *)
  Attr.merge ~into:a (Attr.create ());
  Alcotest.(check int) "identity merge" 3 (Attr.pops a);
  (* the source table is not consumed *)
  Alcotest.(check int) "source intact" 1 (Attr.pops b)

(* The solver's heap gauge must aggregate worker-domain heaps: Gc.quick_stat
   only reports the calling domain's heap on OCaml 5, so [sample_heap] adds
   the [extra_heap_words] hook that the parallel driver installs. *)
let test_heap_gauge_hook () =
  let p = compile Fixtures.carton in
  let t = Solver.create p in
  t.Solver.extra_heap_words <- (fun () -> 123_456_789);
  Solver.sample_heap t;
  Alcotest.(check bool)
    "gauge includes extra_heap_words" true
    (Registry.gauge_value t.Solver.g_heap >= 123_456_789.)

let test_heap_gauge_parallel () =
  let p = compile Fixtures.carton in
  let t = Solver.create p in
  Par.run ~jobs:2 t;
  (* the parallel driver installed the worker-heap aggregator *)
  Alcotest.(check bool)
    "worker heaps aggregated" true
    (t.Solver.extra_heap_words () > 0)

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "fixtures ci: jobs 2/4 = sequential" `Quick
          test_fixtures_ci;
        Alcotest.test_case "fixtures csc: jobs 2/4 = sequential" `Quick
          test_fixtures_csc;
        Alcotest.test_case "fixtures 2obj: jobs 2/4 = sequential" `Quick
          test_fixtures_2obj;
        Alcotest.test_case "generated workload: jobs 2/4 = sequential" `Quick
          test_generated_workload;
        Alcotest.test_case "no-collapse: jobs 2/4 = sequential" `Quick
          test_no_collapse;
        Alcotest.test_case "fuzz oracle matrix under --jobs 4" `Slow
          test_fuzz_oracle_matrix;
        Alcotest.test_case "provenance forces sequential fallback" `Quick
          test_explain_falls_back;
        QCheck_alcotest.to_alcotest prop_shard;
        Alcotest.test_case "pool: barrier + reuse" `Quick test_pool_barrier;
        Alcotest.test_case "pool: slice exception propagates" `Quick
          test_pool_exception;
        Alcotest.test_case "recommended domain count" `Quick test_recommended;
        Alcotest.test_case "rng split determinism" `Quick test_rng_split;
        Alcotest.test_case "rng copy independence" `Quick test_rng_copy;
        Alcotest.test_case "attr merge adds" `Quick test_attr_merge;
        Alcotest.test_case "heap gauge: extra_heap_words hook" `Quick
          test_heap_gauge_hook;
        Alcotest.test_case "heap gauge: parallel aggregation" `Quick
          test_heap_gauge_parallel;
      ] );
  ]
