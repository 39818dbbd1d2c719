(** Tests for the method patcher behind the server's [update] request
    ({!Csc_lang.Edit.apply}): replace, add and remove, refusals of unknown
    classes and methods, and add-then-remove restoring results bit for bit.
    The group keeps its old name, [inc.patcher], so the test names stay
    stable. *)

open Helpers
module Run = Csc_driver.Run
module Edit = Csc_lang.Edit
module Soundness = Csc_fuzz.Soundness

let ok_edit src edits =
  match Edit.apply src edits with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let err_edit src edits =
  match Edit.apply src edits with
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

let has_var (p : Ir.program) mname vname =
  let m = find_method p mname in
  Array.exists
    (fun (v : Ir.var) -> v.v_method = m.m_id && v.v_name = vname)
    p.vars

(* Programs whose braces, class names or method headers also appear inside
   comments or string literals; a patcher that scans characters instead of
   tokens edits the wrong place in each. *)
let main_decoys =
  let prog ?(header = "") ?(before_main = "") ?(in_main = "") () =
    String.concat ""
      [ header; "class Item { }\n\nclass Main {\n"; before_main;
        "  static void main() {\n"; in_main;
        "    Item old = new Item();\n    System.print(old);\n  }\n}\n" ]
  in
  [
    ("block comment in the body", prog ~in_main:"    /* } */\n" ());
    ( "escaped quote in a string",
      prog ~in_main:({|    String s = "a\"{";|} ^ "\n") () );
    ( "class in a line comment",
      prog ~header:"// see class Main { main() { } }\n" () );
    ( "method header in a block comment",
      prog ~before_main:"  /* main() { } */\n" () );
  ]

(* ------------------------------------------------------------- patcher *)

let test_patch_replace () =
  let src =
    ok_edit Fixtures.carton
      [
        Edit.Replace_method
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
    (pt_size r (var p "Main.main" "result1"));
  (* the new body lands in Main.main's real braces, whatever the comments
     and strings around them say *)
  List.iter
    (fun (what, src) ->
      ignore (compile src);
      let edited =
        ok_edit src
          [
            Edit.Replace_method
              {
                cls = "Main";
                meth = "main";
                body = "Item fresh = new Item(); System.print(fresh);";
              };
          ]
      in
      let p = compile edited in
      Alcotest.(check bool) (what ^ ": new body") true
        (has_var p "Main.main" "fresh");
      Alcotest.(check bool) (what ^ ": old body gone") false
        (has_var p "Main.main" "old"))
    main_decoys

let test_patch_errors () =
  err_edit Fixtures.carton
    [ Edit.Remove_method { cls = "Warehouse"; meth = "getItem" } ];
  err_edit Fixtures.carton
    [ Edit.Replace_method { cls = "Carton"; meth = "stealItem"; body = "" } ];
  (* [item] is a field, not a method: the patcher must not bite on it *)
  err_edit Fixtures.carton
    [ Edit.Remove_method { cls = "Carton"; meth = "item" } ];
  (* an op whose text no longer lexes after an earlier op is refused, not
     raised *)
  err_edit Fixtures.carton
    [ Edit.Replace_method { cls = "Carton"; meth = "getItem"; body = "/*" };
      Edit.Remove_method { cls = "Carton"; meth = "setItem" } ]

let test_patch_add_then_remove () =
  let added =
    ok_edit Fixtures.carton
      [
        Edit.Add_method
          {
            cls = "Carton";
            meth_src = "Item peek() { Item r = this.item; return r; }";
          };
      ]
  in
  let pa = compile added in
  ignore (find_method pa "Carton.peek");
  let restored =
    ok_edit added [ Edit.Remove_method { cls = "Carton"; meth = "peek" } ]
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
