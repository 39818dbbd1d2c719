(** Tests for the textual method patcher behind the server's [update]
    request ({!Csc_pta.Inc.apply_edits}): replace, add and remove, refusals
    of unknown classes and methods, and add-then-remove restoring results
    bit for bit. *)

open Helpers
module Run = Csc_driver.Run
module Inc = Csc_pta.Inc
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
  ]
