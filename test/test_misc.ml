(** Miscellaneous coverage: exporters, analysis edge cases, interpreter
    corners, and the involved/overlap accounting used by Table 3. *)

open Helpers
module Solver = Csc_pta.Solver
module Export = Csc_driver.Export
module Bits = Csc_common.Bits

let test_dot_export () =
  let p = compile Fixtures.carton in
  let r = Solver.result (Solver.analyze p) in
  let dot = Export.callgraph_dot p r in
  Alcotest.(check bool) "digraph" true
    (Astring.String.is_prefix ~affix:"digraph" dot);
  Alcotest.(check bool) "has main node" true
    (Astring.String.is_infix ~affix:"Main.main" dot);
  Alcotest.(check bool) "has setter" true
    (Astring.String.is_infix ~affix:"Carton.setItem" dot);
  (* jdk hidden by default *)
  Alcotest.(check bool) "no jdk node" false
    (Astring.String.is_infix ~affix:"ArrayList.add" dot);
  let dot_jdk = Export.callgraph_dot ~include_jdk:true p r in
  Alcotest.(check bool) "jdk nodes when asked" true
    (String.length dot_jdk >= String.length dot)

let test_pts_dump () =
  let p = compile Fixtures.carton in
  let r = Solver.result (Solver.analyze p) in
  let buf = Buffer.create 256 in
  let ppf = Fmt.with_buffer buf in
  Export.pts_dump ~method_filter:"Main.main" p r ppf;
  Fmt.flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions result1" true
    (Astring.String.is_infix ~affix:"result1" out);
  Alcotest.(check bool) "filtered to Main.main" false
    (Astring.String.is_infix ~affix:"getItem" out)

let test_null_receiver_no_edges () =
  (* calls on a definitely-null receiver produce no call edge statically *)
  let src =
    {|
class A { void m() { } }
class Dead {
  static void helper() {
    A a = null;
    a.m();
  }
}
class Main { static void main() { Dead.helper(); } }
|}
  in
  let p, r = analyze src in
  Alcotest.(check bool) "A.m unreachable" false (reaches p r "A.m");
  Alcotest.(check bool) "helper reachable" true (reaches p r "Dead.helper")

let test_empty_main () =
  let _p, r = analyze "class Main { static void main() { } }" in
  Alcotest.(check int) "one reachable method" 1 (Bits.cardinal r.r_reach);
  Alcotest.(check int) "no call edges" 0 (List.length r.r_edges)

let test_interp_recursive_tostring_safety () =
  (* printing a cyclic object must not recurse *)
  let src =
    {|
class N { N self; }
class Main {
  static void main() {
    N n = new N();
    n.self = n;
    System.print(n);
  }
}
|}
  in
  let o = Csc_interp.Interp.run (compile src) in
  Alcotest.(check int) "one line" 1 (List.length o.output)

let test_interp_void_method_result () =
  let src =
    {|
class A {
  int count;
  void bump() { this.count = this.count + 1; }
}
class Main {
  static void main() {
    A a = new A();
    a.bump();
    a.bump();
    System.print(a.count);
  }
}
|}
  in
  let o = Csc_interp.Interp.run (compile src) in
  Alcotest.(check (list string)) "void calls" [ "2" ] o.output

let test_fall_off_end_returns_null () =
  let src =
    {|
class A {
  Object maybe(boolean b) {
    if (b) {
      return "yes";
    }
    return null;
  }
}
class Main {
  static void main() {
    A a = new A();
    System.print(a.maybe(false));
    System.print(a.maybe(true));
  }
}
|}
  in
  let o = Csc_interp.Interp.run (compile src) in
  Alcotest.(check (list string)) "null path" [ "null"; "yes" ] o.output

let test_involved_vs_selected_accounting () =
  (* the Table 3 machinery end to end on a fixture *)
  let p = compile Fixtures.containers in
  let run a = Csc_driver.Run.(run_spec (spec a)) p in
  let csc = run Csc_driver.Run.Imp_csc in
  let zip = run Csc_driver.Run.Imp_zipper in
  match (csc.o_involved, zip.o_selected) with
  | Some involved, Some selected ->
    Alcotest.(check bool) "some methods involved" true (Bits.cardinal involved > 0);
    Alcotest.(check bool) "some methods selected" true (Bits.cardinal selected > 0);
    let ov = Csc_driver.Run.overlap ~involved ~selected in
    Alcotest.(check bool) "overlap within [0,1]" true (ov >= 0. && ov <= 1.)
  | _ -> Alcotest.fail "missing accounting sets"

let test_solver_stats_string () =
  let p = compile Fixtures.carton in
  let t = Solver.analyze p in
  let r = Solver.result t in
  let module Snapshot = Csc_obs.Snapshot in
  (match Snapshot.counter_value r.r_snapshot "ptrs" with
  | Some n -> Alcotest.(check bool) "ptrs counter positive" true (n > 0)
  | None -> Alcotest.fail "snapshot has no ptrs counter");
  Alcotest.(check bool) "rendered line mentions ptrs" true
    (Astring.String.is_infix ~affix:"ptrs=" (Snapshot.to_line r.r_snapshot))

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "dot export" `Quick test_dot_export;
        Alcotest.test_case "pts dump" `Quick test_pts_dump;
        Alcotest.test_case "null receiver" `Quick test_null_receiver_no_edges;
        Alcotest.test_case "empty main" `Quick test_empty_main;
        Alcotest.test_case "print cyclic object" `Quick
          test_interp_recursive_tostring_safety;
        Alcotest.test_case "void methods" `Quick test_interp_void_method_result;
        Alcotest.test_case "null return path" `Quick test_fall_off_end_returns_null;
        Alcotest.test_case "table3 accounting" `Quick
          test_involved_vs_selected_accounting;
        Alcotest.test_case "stats string" `Quick test_solver_stats_string;
      ] );
  ]
