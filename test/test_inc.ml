(** Tests for the incremental layer: the textual method patcher
    ({!Csc_pta.Inc.apply_edits}), the update laws (edit-to-self is a no-op,
    add-then-remove restores results bit-for-bit), the fallback policy, and
    qcheck over random single edits — every incrementally-updated result
    must be bit-identical to a from-scratch solve
    ({!Csc_fuzz.Soundness.check_incremental}). *)

open Helpers
module Run = Csc_driver.Run
module Inc = Csc_pta.Inc
module Gen = Csc_workloads.Gen
module Soundness = Csc_fuzz.Soundness

let ok_edit src edits =
  match Inc.apply_edits src edits with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let err_edit src edits =
  match Inc.apply_edits src edits with
  | Ok _ -> Alcotest.fail "edit unexpectedly succeeded"
  | Error e ->
    Alcotest.(check bool) "error is descriptive" true (String.length e > 0)

(* bit-identical results (reachable set, call edges, all points-to sets) *)
let check_identical msg p a b =
  match Soundness.identical p a b with
  | None -> ()
  | Some detail -> Alcotest.failf "%s: %s" msg detail

let solve spec p =
  match (Run.run_spec spec p).Run.o_result with
  | Some r -> r
  | None -> Alcotest.fail "fresh solve produced no result"

(* ------------------------------------------------------------- patcher *)

let test_patch_replace () =
  let src =
    ok_edit Fixtures.carton
      [
        Inc.Replace_method
          {
            cls = "Carton";
            meth = "getItem";
            body = "Item r = this.item; return r;";
          };
      ]
  in
  let p = compile src in
  ignore (find_method p "Carton.getItem");
  (* the replacement body is equivalent, so precision is unchanged *)
  let spec = Run.spec Run.Imp_csc in
  let r = solve spec p in
  Alcotest.(check int) "result1 still precise" 1
    (pt_size r (var p "Main.main" "result1"))

let test_patch_errors () =
  err_edit Fixtures.carton
    [ Inc.Remove_method { cls = "Warehouse"; meth = "getItem" } ];
  err_edit Fixtures.carton
    [ Inc.Replace_method { cls = "Carton"; meth = "stealItem"; body = "" } ];
  (* [item] is a field, not a method: the patcher must not bite on it *)
  err_edit Fixtures.carton
    [ Inc.Remove_method { cls = "Carton"; meth = "item" } ]

let test_patch_add_then_remove () =
  let added =
    ok_edit Fixtures.carton
      [
        Inc.Add_method
          {
            cls = "Carton";
            meth_src = "Item peek() { Item r = this.item; return r; }";
          };
      ]
  in
  let pa = compile added in
  ignore (find_method pa "Carton.peek");
  let restored =
    ok_edit added [ Inc.Remove_method { cls = "Carton"; meth = "peek" } ]
  in
  let p0 = compile Fixtures.carton in
  let p1 = compile restored in
  Alcotest.(check int) "same method count"
    (Array.length p0.Ir.methods)
    (Array.length p1.Ir.methods);
  let spec = Run.spec Run.Imp_csc in
  check_identical "add-then-remove restores results" p0 (solve spec p0)
    (solve spec p1)

(* ------------------------------------------------------- update laws *)

let keep spec p =
  match Run.run_spec_keep spec p with
  | o, Some st -> (o, st)
  | _, None -> Alcotest.fail "no state retained"

(* replacing a method body with itself must take the incremental path,
   dirty nothing, and reproduce the baseline bit for bit *)
let test_update_noop () =
  List.iter
    (fun a ->
      let spec = Run.spec a in
      let p0 = compile Fixtures.carton in
      let o0, st = keep spec p0 in
      let src =
        ok_edit Fixtures.carton
          [
            Inc.Replace_method
              {
                cls = "Carton";
                meth = "getItem";
                body = "Item r = this.item; return r;";
              };
          ]
      in
      let p1 = compile src in
      let o1, _, info = Run.update spec ~prev:st p1 in
      Alcotest.(check bool)
        (Run.name a ^ ": incremental path")
        true
        (info.Inc.i_mode = `Incremental);
      Alcotest.(check int) (Run.name a ^ ": nothing dirty") 0
        info.Inc.i_dirty_methods;
      Alcotest.(check bool) (Run.name a ^ ": full reuse") true
        (info.Inc.i_reuse > 0.999);
      match (o0.Run.o_result, o1.Run.o_result) with
      | Some r0, Some r1 ->
        check_identical (Run.name a ^ ": no-op update") p1 r0 r1
      | _ -> Alcotest.fail "a solve produced no result")
    [ Run.Imp_ci; Run.Imp_csc ]

(* a real single-method edit: incremental result = fresh result *)
let test_update_single_edit () =
  List.iter
    (fun a ->
      let spec = Run.spec a in
      let p0 = compile Fixtures.carton in
      let _, st = keep spec p0 in
      let src =
        ok_edit Fixtures.carton
          [
            Inc.Replace_method
              {
                cls = "Carton";
                meth = "getItem";
                body = "Item r = new Item(); this.item = r; return r;";
              };
          ]
      in
      let p1 = compile src in
      let o1, _, info = Run.update spec ~prev:st p1 in
      Alcotest.(check bool)
        (Run.name a ^ ": incremental path")
        true
        (info.Inc.i_mode = `Incremental);
      Alcotest.(check bool)
        (Run.name a ^ ": one method dirty")
        true
        (info.Inc.i_dirty_methods >= 1);
      match o1.Run.o_result with
      | Some r1 ->
        check_identical (Run.name a ^ ": update = fresh") p1 (solve spec p1) r1
      | None -> Alcotest.fail "update produced no result")
    [ Run.Imp_ci; Run.Imp_csc ]

(* handing update an unrelated program (different class set) must fall back
   to a fresh solve — and still return the right answer *)
let test_update_fallback () =
  let spec = Run.spec Run.Imp_csc in
  let _, st = keep spec (compile Fixtures.carton) in
  let p1 = compile Fixtures.nested in
  let o1, _, info = Run.update spec ~prev:st p1 in
  Alcotest.(check bool) "fell back" true (info.Inc.i_mode = `Fresh);
  Alcotest.(check bool) "reason given" true (String.length info.Inc.i_reason > 0);
  match o1.Run.o_result with
  | Some r1 -> check_identical "fallback = fresh" p1 (solve spec p1) r1
  | None -> Alcotest.fail "fallback produced no result"

(* unsupported analyses must refuse to retain state at all *)
let test_update_unsupported () =
  Alcotest.(check bool) "2obj unsupported" false (Run.inc_supported Run.Imp_2obj);
  Alcotest.(check bool) "doop unsupported" false (Run.inc_supported Run.Doop_ci);
  let _, st = Run.run_spec_keep (Run.spec Run.Imp_2obj) (compile Fixtures.carton) in
  Alcotest.(check bool) "no state for 2obj" true (st = None)

(* ------------------------------------------------------ oracle chains *)

(* an edit chain through the full oracle: every step incremental-vs-fresh
   identical, ending back at the original program *)
let test_oracle_chain () =
  let e1 =
    Inc.Replace_method
      {
        cls = "Carton";
        meth = "getItem";
        body = "Item r = new Item(); this.item = r; return r;";
      }
  in
  let e2 =
    Inc.Add_method
      {
        cls = "Carton";
        meth_src = "Item peek() { Item r = this.item; return r; }";
      }
  in
  let e3 = Inc.Remove_method { cls = "Carton"; meth = "peek" } in
  let back =
    Inc.Replace_method
      {
        cls = "Carton";
        meth = "getItem";
        body = "Item r = this.item; return r;";
      }
  in
  let srcs =
    List.map
      (fun es -> ok_edit Fixtures.carton es)
      [ []; [ e1 ]; [ e1; e2 ]; [ e1; e2; e3 ]; [ e1; e2; e3; back ] ]
  in
  let revs = List.map compile srcs in
  match Soundness.check_incremental revs with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%a" Soundness.pp_violation v

(* the generator's reproducible single-method edit surface: variant-keyed
   statements appended to Driver0.op0_0 *)
let small_shape =
  Gen.
    {
      seed = 7;
      n_entity = 3;
      n_fields = 2;
      n_wrap = 2;
      n_hier = 1;
      hier_width = 2;
      n_registry = 1;
      n_util = 1;
      n_driver = 2;
      ops_per_driver = 3;
      loop_iters = 2;
      fork_sites = 2;
      mesh_classes = 4;
    }

let test_oracle_variant_edit () =
  let revs =
    List.map
      (fun v -> compile (Gen.generate ~variant:v small_shape))
      [ 0; 1; 2 ]
  in
  match Soundness.check_incremental revs with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%a" Soundness.pp_violation v

(* ------------------------------------------------------------- qcheck *)

(* random base program, random edit sequence *)
let prop_random_edits =
  QCheck2.Test.make ~name:"random edit chains are exact" ~count:12
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let base = Gen.Rand.generate ~seed ~max_size:20 in
      let plans = base :: Gen.Edit.sequence ~seed ~steps:2 base in
      let revs = List.map (fun pl -> compile (Gen.Rand.render pl)) plans in
      match Soundness.check_incremental revs with
      | [] -> true
      | v :: _ ->
        Printf.eprintf "seed %d: %s\n%!" seed
          (Format.asprintf "%a" Soundness.pp_violation v);
        false)

let suite =
  [
    ( "inc.patcher",
      [
        Alcotest.test_case "replace method body" `Quick test_patch_replace;
        Alcotest.test_case "unknown class/method rejected" `Quick
          test_patch_errors;
        Alcotest.test_case "add then remove restores results" `Quick
          test_patch_add_then_remove;
      ] );
    ( "inc.update",
      [
        Alcotest.test_case "edit-to-self is a no-op" `Quick test_update_noop;
        Alcotest.test_case "single edit = fresh solve" `Quick
          test_update_single_edit;
        Alcotest.test_case "hierarchy change falls back" `Quick
          test_update_fallback;
        Alcotest.test_case "unsupported analyses keep no state" `Quick
          test_update_unsupported;
      ] );
    ( "inc.oracle",
      [
        Alcotest.test_case "edit chain round-trip" `Quick test_oracle_chain;
        Alcotest.test_case "variant edit surface" `Quick
          test_oracle_variant_edit;
        QCheck_alcotest.to_alcotest prop_random_edits;
      ] );
  ]
