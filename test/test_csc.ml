(** Tests for the Cut-Shortcut analysis: precision on the paper's running
    examples (Figures 1, 3, 4, 5), soundness (recall vs the interpreter),
    per-pattern ablations, and the refinement relation vs CI. *)

open Helpers
module Csc = Csc_core.Csc
module Solver = Csc_pta.Solver
module Bits = Csc_common.Bits

let csc_analyze ?config src =
  let p = compile src in
  let t = Solver.analyze ~plugin_of:(Csc.plugin ?config) p in
  (p, Solver.result t)

(* --- Figure 1: field access pattern ---------------------------------- *)

let test_carton_precise () =
  let p, r = csc_analyze Fixtures.carton in
  Alcotest.(check int) "result1 precise" 1 (pt_size r (var p "Main.main" "result1"));
  Alcotest.(check int) "result2 precise" 1 (pt_size r (var p "Main.main" "result2"));
  Alcotest.(check bool) "distinct" true
    (not
       (Bits.equal
          (r.r_pt (var p "Main.main" "result1"))
          (r.r_pt (var p "Main.main" "result2"))))

let test_carton_field_pattern_only () =
  let config = Csc.{ field_pattern = true; container_pattern = false; local_flow = false } in
  let p, r = csc_analyze ~config Fixtures.carton in
  Alcotest.(check int) "field pattern alone suffices" 1
    (pt_size r (var p "Main.main" "result1"))

(* --- Figure 3: nested calls for field access -------------------------- *)

let test_nested_precise () =
  let p, r = csc_analyze Fixtures.nested in
  Alcotest.(check int) "r1 precise" 1 (pt_size r (var p "Main.main" "r1"));
  Alcotest.(check int) "r2 precise" 1 (pt_size r (var p "Main.main" "r2"));
  Alcotest.(check bool) "r1 <> r2" true
    (not (Bits.equal (r.r_pt (var p "Main.main" "r1")) (r.r_pt (var p "Main.main" "r2"))))

(* --- Figure 4: container access pattern ------------------------------- *)

let test_containers_precise () =
  let p, r = csc_analyze Fixtures.containers in
  Alcotest.(check int) "x precise" 1 (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) "y precise" 1 (pt_size r (var p "Main.main" "y"));
  Alcotest.(check int) "iterator r1 precise" 1 (pt_size r (var p "Main.main" "r1"));
  Alcotest.(check int) "iterator r2 precise" 1 (pt_size r (var p "Main.main" "r2"))

let test_containers_need_container_pattern () =
  (* with the container pattern disabled, results are as imprecise as CI *)
  let config = Csc.{ field_pattern = true; container_pattern = false; local_flow = true } in
  let p, r = csc_analyze ~config Fixtures.containers in
  Alcotest.(check int) "x merged without container pattern" 2
    (pt_size r (var p "Main.main" "x"))

let test_maps_precise () =
  let p, r = csc_analyze Fixtures.maps in
  Alcotest.(check int) "map value v1 precise" 1 (pt_size r (var p "Main.main" "v1"));
  Alcotest.(check int) "map value v2 precise" 1 (pt_size r (var p "Main.main" "v2"));
  (* key iterator sees only keys of m1; value iterator only values of m2 *)
  Alcotest.(check int) "keySet iterator precise" 1
    (pt_size r (var p "Main.main" "kk"));
  Alcotest.(check int) "values iterator precise" 1
    (pt_size r (var p "Main.main" "vv"))

let test_map_categories_dont_mix () =
  let src =
    {|
class K { }
class W { }
class Main {
  static void main() {
    HashMap m = new HashMap();
    m.put(new K(), new W());
    Iterator kit = m.keySet().iterator();
    Object kk = kit.next();
    Iterator vit = m.values().iterator();
    Object vv = vit.next();
    System.print(kk);
    System.print(vv);
  }
}
|}
  in
  let p, r = csc_analyze src in
  let kk = r.r_pt (var p "Main.main" "kk") in
  let vv = r.r_pt (var p "Main.main" "vv") in
  Alcotest.(check int) "kk only the key" 1 (Bits.cardinal kk);
  Alcotest.(check int) "vv only the value" 1 (Bits.cardinal vv);
  Alcotest.(check bool) "keys and values disjoint" false (Bits.inter_nonempty kk vv)

(* --- Figure 5: local flow pattern ------------------------------------- *)

let test_localflow_precise () =
  let p, r = csc_analyze Fixtures.localflow in
  Alcotest.(check int) "r1 = its two args" 2 (pt_size r (var p "C.main" "r1"));
  Alcotest.(check int) "r2 = its two args" 2 (pt_size r (var p "C.main" "r2"));
  Alcotest.(check bool) "r1 and r2 disjoint" false
    (Bits.inter_nonempty (r.r_pt (var p "C.main" "r1")) (r.r_pt (var p "C.main" "r2")))

let test_localflow_needs_pattern () =
  let config = Csc.{ field_pattern = true; container_pattern = true; local_flow = false } in
  let p, r = csc_analyze ~config Fixtures.localflow in
  Alcotest.(check int) "merged without the pattern" 4
    (pt_size r (var p "C.main" "r1"))

let test_localflow_identity () =
  let src =
    {|
class Main {
  static void main() {
    Object a = new Object();
    Object b = new Object();
    Object x = Util.id(a);
    Object y = Util.id(b);
    System.print(x);
    System.print(y);
  }
}
|}
  in
  let p, r = csc_analyze src in
  Alcotest.(check int) "x precise through id()" 1 (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) "y precise through id()" 1 (pt_size r (var p "Main.main" "y"))

(* --- relay soundness: methods cut but with extra return sources -------- *)

let test_relay_mixed_returns () =
  (* get() both loads a field and may return a fresh object: the load is
     covered by shortcuts, the allocation must be relayed *)
  let src =
    {|
class Holder {
  Object v;
  Holder(Object x) { this.v = x; }
  Object get(boolean fresh) {
    Object r = this.v;
    if (fresh) {
      r = new Object();   // relayed source
    }
    return r;
  }
}
class Main {
  static void main() {
    Object a = new Object();
    Holder h1 = new Holder(a);
    Object x = h1.get(false);
    Object b = new Object();
    Holder h2 = new Holder(b);
    Object y = h2.get(true);
    System.print(x);
    System.print(y);
  }
}
|}
  in
  let p, r = csc_analyze src in
  (* soundness: x must contain a and the fresh object; y must contain b and
     the fresh object *)
  let x = r.r_pt (var p "Main.main" "x") in
  let y = r.r_pt (var p "Main.main" "y") in
  Alcotest.(check bool) "x sees its own item" true
    (Bits.subset (r.r_pt (var p "Main.main" "a")) x);
  Alcotest.(check bool) "y sees its own item" true
    (Bits.subset (r.r_pt (var p "Main.main" "b")) y);
  Alcotest.(check int) "x = {a, fresh}" 2 (Bits.cardinal x);
  Alcotest.(check int) "y = {b, fresh}" 2 (Bits.cardinal y);
  (* precision: x must NOT see b, y must NOT see a *)
  Alcotest.(check bool) "x does not see b" false
    (Bits.subset (r.r_pt (var p "Main.main" "b")) x)

let test_relay_call_chain () =
  (* nested load pattern: outer() returns inner(), which loads this.f *)
  let src =
    {|
class W {
  Object f;
  W(Object x) { this.f = x; }
  Object inner() {
    Object r = this.f;
    return r;
  }
  Object outer() {
    Object r = this.inner();
    return r;
  }
}
class Main {
  static void main() {
    Object a = new Object();
    W w1 = new W(a);
    Object x = w1.outer();
    Object b = new Object();
    W w2 = new W(b);
    Object y = w2.outer();
    System.print(x);
    System.print(y);
  }
}
|}
  in
  let p, r = csc_analyze src in
  Alcotest.(check int) "x precise through nested load" 1
    (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) "y precise through nested load" 1
    (pt_size r (var p "Main.main" "y"));
  Alcotest.(check bool) "x sees a" true
    (Bits.subset (r.r_pt (var p "Main.main" "a")) (r.r_pt (var p "Main.main" "x")))

(* --- nested store (Figure 3 shape, deeper) ----------------------------- *)

let test_nested_store_chain () =
  let src =
    {|
class T { }
class Inner {
  T f;
  void set(T p) { this.f = p; }
}
class Outer {
  Inner inner;
  Outer(Inner i, T t) { this.init(i, t); }
  void init(Inner i, T t) { i.set(t); this.inner = i; }
}
class Main {
  static void main() {
    T t1 = new T();
    Inner i1 = new Inner();
    Outer o1 = new Outer(i1, t1);
    T t2 = new T();
    Inner i2 = new Inner();
    Outer o2 = new Outer(i2, t2);
    T r1 = i1.f;
    T r2 = i2.f;
    System.print(r1);
    System.print(r2);
  }
}
|}
  in
  let p, r = csc_analyze src in
  Alcotest.(check int) "r1 precise (3-deep store chain)" 1
    (pt_size r (var p "Main.main" "r1"));
  Alcotest.(check int) "r2 precise" 1 (pt_size r (var p "Main.main" "r2"))

(* --- soundness: recall + refinement ------------------------------------ *)

let test_recall_all_fixtures () =
  List.iter
    (fun (_, src) ->
      let p, r = csc_analyze src in
      check_recall p r)
    Fixtures.all

let test_recall_ablations () =
  let configs =
    Csc.
      [
        { field_pattern = true; container_pattern = false; local_flow = false };
        { field_pattern = false; container_pattern = true; local_flow = false };
        { field_pattern = false; container_pattern = false; local_flow = true };
        { field_pattern = true; container_pattern = true; local_flow = false };
        { field_pattern = false; container_pattern = true; local_flow = true };
        { field_pattern = true; container_pattern = false; local_flow = true };
      ]
  in
  List.iter
    (fun config ->
      List.iter
        (fun (_, src) ->
          let p, r = csc_analyze ~config src in
          check_recall p r)
        Fixtures.all)
    configs

let test_csc_refines_ci () =
  (* CSC points-to sets must be subsets of CI's *)
  List.iter
    (fun (_, src) ->
      let p = compile src in
      let ci = Solver.(result (analyze p)) in
      let csc = Solver.(result (analyze ~plugin_of:Csc.plugin p)) in
      Array.iter
        (fun (v : Ir.var) ->
          if not (Bits.subset (csc.r_pt v.v_id) (ci.r_pt v.v_id)) then
            Alcotest.fail
              (Printf.sprintf "CSC larger than CI for %s.%s"
                 (Ir.method_name p v.v_method) v.v_name))
        p.vars)
    Fixtures.all

(* --- inspection handles ------------------------------------------------- *)

let test_involved_methods () =
  let p = compile Fixtures.carton in
  let handle = ref None in
  let t =
    Solver.analyze
      ~plugin_of:(fun s ->
        let pl, h = Csc.plugin_with_handle s in
        handle := Some h;
        pl)
      p
  in
  ignore t;
  match !handle with
  | None -> Alcotest.fail "no handle"
  | Some h ->
    let inv = Csc.involved_methods h in
    Alcotest.(check bool) "setItem involved" true
      (Bits.mem inv (find_method p "Carton.setItem").m_id);
    Alcotest.(check bool) "getItem involved" true
      (Bits.mem inv (find_method p "Carton.getItem").m_id);
    Alcotest.(check bool) "shortcuts added" true (Csc.shortcut_count h > 0);
    Alcotest.(check bool) "stores cut" true (Csc.cut_store_count h > 0)

(* Table 3's "involved" column on two suite programs, pinned at the values
   the per-shortcut marking gave before involvement was resolved on demand *)
let test_involved_pinned () =
  List.iter
    (fun (name, expected) ->
      let p = Csc_workloads.Suite.compile name in
      let handle = ref None in
      ignore
        (Solver.analyze
           ~plugin_of:(fun s ->
             let pl, h = Csc.plugin_with_handle s in
             handle := Some h;
             pl)
           p);
      match !handle with
      | None -> Alcotest.fail "no handle"
      | Some h ->
        let inv = Csc.involved_methods h in
        Alcotest.(check int) (name ^ " involved") expected (Bits.cardinal inv);
        Alcotest.(check bool) (name ^ " stable across calls") true
          (Bits.equal inv (Csc.involved_methods h)))
    [ ("hsqldb", 270); ("findbugs", 224) ]

let suite =
  [
    ( "csc.patterns",
      [
        Alcotest.test_case "fig1: carton precise" `Quick test_carton_precise;
        Alcotest.test_case "fig1: field pattern alone" `Quick
          test_carton_field_pattern_only;
        Alcotest.test_case "fig3: nested calls precise" `Quick test_nested_precise;
        Alcotest.test_case "fig4: containers precise" `Quick test_containers_precise;
        Alcotest.test_case "fig4: needs container pattern" `Quick
          test_containers_need_container_pattern;
        Alcotest.test_case "maps precise" `Quick test_maps_precise;
        Alcotest.test_case "map categories don't mix" `Quick
          test_map_categories_dont_mix;
        Alcotest.test_case "fig5: local flow precise" `Quick test_localflow_precise;
        Alcotest.test_case "fig5: needs local flow pattern" `Quick
          test_localflow_needs_pattern;
        Alcotest.test_case "local flow: Util.id" `Quick test_localflow_identity;
        Alcotest.test_case "relay: mixed return sources" `Quick
          test_relay_mixed_returns;
        Alcotest.test_case "relay: nested load chain" `Quick test_relay_call_chain;
        Alcotest.test_case "nested store chain" `Quick test_nested_store_chain;
      ] );
    ( "csc.soundness",
      [
        Alcotest.test_case "recall: all fixtures" `Quick test_recall_all_fixtures;
        Alcotest.test_case "recall: ablations" `Quick test_recall_ablations;
        Alcotest.test_case "CSC refines CI" `Quick test_csc_refines_ci;
        Alcotest.test_case "involved methods tracked" `Quick test_involved_methods;
        Alcotest.test_case "involved: Table 3 counts" `Quick test_involved_pinned;
      ] );
  ]
