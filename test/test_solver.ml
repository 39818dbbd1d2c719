(** Tests for the imperative pointer-analysis engine: context-insensitive
    baseline, context-sensitive selectors, call-graph construction, and
    soundness against the concrete interpreter. *)

open Helpers
module Context = Csc_pta.Context
module Bits = Csc_common.Bits

let sel_2obj = Context.kobj ~k:2 ~hk:1
let sel_2type = Context.ktype ~k:2 ~hk:1
let sel_2call = Context.kcall ~k:2 ~hk:1

(* --- carton (Figure 1): CI merges, 2obj separates ------------------- *)

let test_ci_carton_imprecise () =
  let p, r = analyze Fixtures.carton in
  Alcotest.(check int) "result1 has both items" 2
    (pt_size r (var p "Main.main" "result1"));
  Alcotest.(check int) "result2 has both items" 2
    (pt_size r (var p "Main.main" "result2"))

let test_2obj_carton_precise () =
  let p, r = analyze ~sel:sel_2obj Fixtures.carton in
  Alcotest.(check int) "result1 precise" 1 (pt_size r (var p "Main.main" "result1"));
  Alcotest.(check int) "result2 precise" 1 (pt_size r (var p "Main.main" "result2"));
  Alcotest.(check bool) "distinct" true
    (not
       (Bits.equal
          (r.r_pt (var p "Main.main" "result1"))
          (r.r_pt (var p "Main.main" "result2"))))

let test_2type_carton () =
  (* both Cartons are allocated in the same class, so 2type cannot separate
     them here - it behaves like CI on this example *)
  let p, r = analyze ~sel:sel_2type Fixtures.carton in
  Alcotest.(check int) "result1 merged under 2type" 2
    (pt_size r (var p "Main.main" "result1"))

(* --- nested constructors (Figure 3) --------------------------------- *)

let test_2obj_nested_precise () =
  let p, r = analyze ~sel:sel_2obj Fixtures.nested in
  Alcotest.(check int) "r1 precise" 1 (pt_size r (var p "Main.main" "r1"));
  Alcotest.(check int) "r2 precise" 1 (pt_size r (var p "Main.main" "r2"))

let test_ci_nested_imprecise () =
  let p, r = analyze Fixtures.nested in
  Alcotest.(check int) "r1 merged" 2 (pt_size r (var p "Main.main" "r1"))

(* --- containers (Figure 4) ------------------------------------------ *)

let test_ci_containers_imprecise () =
  let p, r = analyze Fixtures.containers in
  Alcotest.(check int) "x merged" 2 (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) "iterator result merged" 2
    (pt_size r (var p "Main.main" "r1"))

let test_2obj_containers_precise () =
  let p, r = analyze ~sel:sel_2obj Fixtures.containers in
  Alcotest.(check int) "x precise" 1 (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) "y precise" 1 (pt_size r (var p "Main.main" "y"));
  Alcotest.(check int) "r1 precise" 1 (pt_size r (var p "Main.main" "r1"));
  Alcotest.(check int) "r2 precise" 1 (pt_size r (var p "Main.main" "r2"))

(* --- local flow (Figure 5) ------------------------------------------- *)

let test_ci_localflow_imprecise () =
  let p, r = analyze Fixtures.localflow in
  Alcotest.(check int) "r1 merged" 4 (pt_size r (var p "C.main" "r1"))

let test_2obj_localflow_still_imprecise () =
  (* static methods get no receiver contexts: 2obj cannot help here *)
  let p, r = analyze ~sel:sel_2obj Fixtures.localflow in
  Alcotest.(check int) "r1 merged even under 2obj" 4
    (pt_size r (var p "C.main" "r1"))

let test_2call_localflow_precise () =
  let p, r = analyze ~sel:sel_2call Fixtures.localflow in
  Alcotest.(check int) "r1 has its two args" 2 (pt_size r (var p "C.main" "r1"));
  Alcotest.(check int) "r2 has its two args" 2 (pt_size r (var p "C.main" "r2"))

(* --- call graph ------------------------------------------------------ *)

let test_callgraph_virtual_dispatch () =
  let p, r = analyze Fixtures.poly in
  Alcotest.(check bool) "Dog.speak reachable" true (reaches p r "Dog.speak");
  Alcotest.(check bool) "Cat.speak reachable" true (reaches p r "Cat.speak");
  Alcotest.(check bool) "Animal.speak NOT reachable" false
    (reaches p r "Animal.speak")

let test_callgraph_poly_site () =
  let p, r = analyze Fixtures.poly in
  (* the `a.speak()` site must have two callees *)
  let speak_edges =
    List.filter
      (fun (_, callee) ->
        let n = Ir.method_name p callee in
        n = "Dog.speak" || n = "Cat.speak")
      r.r_edges
  in
  let sites = List.sort_uniq compare (List.map fst speak_edges) in
  Alcotest.(check int) "one speak() call site" 1 (List.length sites);
  Alcotest.(check int) "two targets" 2 (List.length speak_edges)

let test_unreachable_code_not_analyzed () =
  let src =
    {|
class Dead { void never() { Object x = new Object(); System.print(x); } }
class Main { static void main() { Object o = new Object(); System.print(o); } }
|}
  in
  let p, r = analyze src in
  Alcotest.(check bool) "Dead.never not reachable" false (reaches p r "Dead.never")

(* --- cast filtering --------------------------------------------------- *)

let test_cast_filters () =
  let src =
    {|
class A { }
class B extends A { }
class C extends A { }
class Main {
  static void main() {
    A a = new B();
    if (true) {
      a = new C();
    }
    B b = (B) a;
    System.print(b);
  }
}
|}
  in
  let p, r = analyze src in
  (* the cast must filter the C object out of b *)
  Alcotest.(check int) "b only gets B" 1 (pt_size r (var p "Main.main" "b"))

(* --- static fields ----------------------------------------------------- *)

let test_static_fields () =
  let src =
    {|
class G {
  static Object cache;
}
class Main {
  static void main() {
    G.cache = new Object();
    Object x = G.cache;
    System.print(x);
  }
}
|}
  in
  let p, r = analyze src in
  Alcotest.(check int) "x via static field" 1 (pt_size r (var p "Main.main" "x"))

(* --- arrays ------------------------------------------------------------ *)

let test_array_flow () =
  let src =
    {|
class Main {
  static void main() {
    Object[] a = new Object[2];
    Object o1 = new Object();
    a[0] = o1;
    Object x = a[1];
    System.print(x);
  }
}
|}
  in
  let p, r = analyze src in
  (* indices are smashed: x sees o1 *)
  Alcotest.(check int) "array smashing" 1 (pt_size r (var p "Main.main" "x"))

(* --- soundness against the interpreter -------------------------------- *)

let test_recall_all_fixtures_ci () =
  List.iter
    (fun (_, src) ->
      let p, r = analyze src in
      check_recall p r)
    Fixtures.all

let test_recall_all_fixtures_2obj () =
  List.iter
    (fun (_, src) ->
      let p, r = analyze ~sel:sel_2obj src in
      check_recall p r)
    Fixtures.all

let test_recall_all_fixtures_2call () =
  List.iter
    (fun (_, src) ->
      let p, r = analyze ~sel:sel_2call src in
      check_recall p r)
    Fixtures.all

(* --- precision ordering: cs results must be subsets of ci -------------- *)

let test_cs_refines_ci () =
  List.iter
    (fun (_, src) ->
      let p = compile src in
      let ci = Csc_pta.Solver.(result (analyze p)) in
      let cs = Csc_pta.Solver.(result (analyze ~sel:sel_2obj p)) in
      (* every var's cs points-to set is a subset of its ci set *)
      Array.iter
        (fun (v : Ir.var) ->
          if not (Bits.subset (cs.r_pt v.v_id) (ci.r_pt v.v_id)) then
            Alcotest.fail
              (Printf.sprintf "2obj larger than CI for %s" v.v_name))
        p.vars;
      (* and the cs call graph is a subgraph *)
      List.iter
        (fun e ->
          if not (List.mem e ci.r_edges) then Alcotest.fail "extra cs call edge")
        cs.r_edges)
    Fixtures.all

(* --- timeout ----------------------------------------------------------- *)

let test_budget_timeout () =
  let p = compile Fixtures.containers in
  let budget = Csc_common.Timer.budget (Some (-1.0)) in
  match Csc_pta.Solver.analyze ~budget p with
  | _ -> Alcotest.fail "expected timeout"
  | exception Csc_pta.Solver.Timeout -> ()

(* --- solver hot path: coalescing worklist ------------------------------ *)

module Snapshot = Csc_obs.Snapshot

let counter t n =
  Option.value ~default:0 (Snapshot.counter_value (Solver.snapshot t) n)

(* a = new; b = a; a = b — a copy cycle in the PFG: both ends hold exactly
   the one object *)
let cycle_src =
  {|
class A { }
class Main {
  static void main() {
    A a = new A();
    A b = a;
    a = b;
    System.print(a);
    System.print(b);
  }
}
|}

let test_copy_cycle () =
  let p = compile cycle_src in
  let r = Solver.result (Solver.analyze p) in
  Alcotest.(check int) "a" 1 (pt_size r (var p "Main.main" "a"));
  Alcotest.(check int) "b" 1 (pt_size r (var p "Main.main" "b"))

(* three allocations seed the same pointer before it is ever popped: the
   pending-delta table must merge them into one worklist entry *)
let coalesce_src =
  {|
class A { }
class Main {
  static void main() {
    A x = new A();
    x = new A();
    x = new A();
    System.print(x);
  }
}
|}

let test_worklist_coalescing () =
  let p = compile coalesce_src in
  let t = Solver.analyze p in
  Alcotest.(check bool) "pushes were coalesced" true
    (counter t "wl_coalesced" > 0);
  let r = Solver.result t in
  Alcotest.(check int) "x keeps all three sites" 3
    (pt_size r (var p "Main.main" "x"))

(* pushing objects a pointer already has must be a complete no-op: no queue
   entry, no counter movement, no pending-slot allocation *)
let test_redundant_push_skipped () =
  let p = compile coalesce_src in
  let t = Solver.analyze p in
  let xp = ref (-1) in
  Solver.iter_ptrs t (fun ptr desc ->
      match desc with
      | Solver.PVar (_, v) when v = var p "Main.main" "x" -> xp := ptr
      | _ -> ());
  Alcotest.(check bool) "found ptr for x" true (!xp >= 0);
  let before = counter t "wl_pushes" in
  Solver.wl_push t !xp (Solver.pts t !xp);
  Bits.iter (fun o -> Solver.wl_push1 t !xp o) (Solver.pts t !xp);
  Alcotest.(check int) "redundant pushes skipped" before
    (counter t "wl_pushes")

(* pointer keys: every interned descriptor packs back to its own id, under
   the empty context and under 2obj's non-zero ones, and looking it up
   interns nothing new *)
let test_ptr_keys_reintern () =
  let p = compile Fixtures.carton in
  List.iter
    (fun (name, sel) ->
      let t = Solver.analyze ~sel p in
      let n = counter t "ptrs" and max_ctx = ref 0 in
      Solver.iter_ptrs t (fun id desc ->
          let again =
            match desc with
            | Solver.PVar (ctx, v) ->
              max_ctx := max !max_ctx ctx;
              Solver.ptr_var t ~ctx v
            | PField (obj, fld) -> Solver.ptr_field t ~obj ~fld
            | PArr obj -> Solver.ptr_arr t ~obj
            | PStatic fld -> Solver.ptr_static t ~fld
          in
          Alcotest.(check int) (name ^ ": " ^ Solver.ptr_to_string t id) id again);
      Alcotest.(check int) (name ^ ": no new pointers") n (counter t "ptrs");
      if name = "2obj" then
        Alcotest.(check bool) "2obj has non-empty contexts" true (!max_ctx > 0))
    [ ("ci", Context.ci); ("2obj", sel_2obj) ];
  (* all four kinds over the same small ids: no two descriptors share a key *)
  let t = Solver.create p in
  let intern : Solver.ptr_desc -> int = function
    | PVar (ctx, v) -> Solver.ptr_var t ~ctx v
    | PField (obj, fld) -> Solver.ptr_field t ~obj ~fld
    | PArr obj -> Solver.ptr_arr t ~obj
    | PStatic fld -> Solver.ptr_static t ~fld
  in
  let descs =
    List.concat_map
      (fun i ->
        Solver.
          [ PVar (0, i); PVar (1, i); PField (i, 0); PField (0, i); PArr i;
            PStatic i ])
      (List.init 20 Fun.id)
    |> List.sort_uniq compare
  in
  List.iter
    (fun d ->
      let id = intern d in
      Alcotest.(check bool) (Solver.ptr_to_string t id) true (Solver.ptr_desc t id = d))
    descs;
  Alcotest.(check int) "one pointer per descriptor" (List.length descs)
    (counter t "ptrs")

(* --- per-object caches: cast masks and the dispatch memo ------------- *)

(* The cast's filter is first applied while [a] holds only the C object;
   the D object is allocated later, in [F.make], which becomes reachable
   only when [f]'s object reaches the receiver. The cast's mask of passing
   objects must grow to cover it. *)
let late_subclass_src =
  {|
class A { }
class B extends A { }
class C extends A { }
class D extends B { }
class F { A make() { return new D(); } }
class Main {
  static void main() {
    A a = new C();
    B b = (B) a;
    F f = new F();
    A d = f.make();
    a = d;
    System.print(b);
  }
}
|}

let test_cast_mask_extends () =
  let p = compile late_subclass_src in
  let t = Solver.analyze p in
  let r = Solver.result t in
  let b = r.r_pt (var p "Main.main" "b") in
  Alcotest.(check int) "b gets the late D object only" 1 (Bits.cardinal b);
  let site = Option.get (Bits.choose b) in
  Alcotest.(check (option int)) "it is the D allocation"
    (Array.find_opt (fun (c : Ir.klass) -> c.c_name = "D") p.classes
    |> Option.map (fun (c : Ir.klass) -> c.c_id))
    (Ir.alloc_class p site);
  Alcotest.(check int) "a has both" 2 (pt_size r (var p "Main.main" "a"))

(* One virtual call site sees receivers of two classes; each dispatches to
   its own override, and a second site with one of those classes reuses the
   memoized answer. *)
let two_receivers_src =
  {|
class Animal { Object speak() { return new Object(); } }
class Dog extends Animal { Object speak() { return new Dog(); } }
class Cat extends Animal { Object speak() { return new Cat(); } }
class Main {
  static void main() {
    Animal a = new Dog();
    if (true) { a = new Cat(); }
    Object s = a.speak();
    Animal b = new Dog();
    Object u = b.speak();
    System.print(s);
    System.print(u);
  }
}
|}

let callees_by_site p (r : Solver.result) =
  List.fold_left
    (fun acc (site, callee) ->
      let names = Option.value ~default:[] (List.assoc_opt site acc) in
      (site, List.sort_uniq compare (Ir.method_name p callee :: names))
      :: List.remove_assoc site acc)
    [] r.r_edges
  |> List.sort compare

let test_dispatch_per_class () =
  let p = compile two_receivers_src in
  let r = Solver.result (Solver.analyze p) in
  Alcotest.(check (list (list string))) "callees per speak() site"
    [ [ "Cat.speak"; "Dog.speak" ]; [ "Dog.speak" ] ]
    (List.filter_map
       (fun (_, names) ->
         if List.exists (fun n -> Filename.extension n = ".speak") names then
           Some names
         else None)
       (callees_by_site p r));
  Alcotest.(check int) "s gets both overrides' objects" 2
    (pt_size r (var p "Main.main" "s"));
  Alcotest.(check bool) "Animal.speak never runs" false
    (reaches p r "Animal.speak")

(* The cached answers agree with the naive per-object check: under the
   empty context, every virtual call site's callees are exactly
   [Ir.dispatch] over its receiver objects' classes (of matching arity),
   and every variable whose only definition is a cast points to exactly
   the cast source's objects that [Ir.subtype] admits. *)
let check_against_naive name (p : Ir.program) (t : Solver.t) =
  let r = Solver.result t in
  let by_site = callees_by_site p r in
  let pts v = Solver.pts t (Solver.ptr_var t ~ctx:0 v) in
  let sites = ref 0 and casts = ref 0 in
  Bits.iter
    (fun mid ->
      Ir.iter_stmts
        (fun (s : Ir.stmt) ->
          match s with
          | Invoke { kind = Virtual; recv = Some rv; site; target; args; _ } ->
            incr sites;
            let want =
              Bits.fold
                (fun o acc ->
                  match Ir.alloc_class p (Solver.obj_alloc t o) with
                  | None -> acc
                  | Some c -> (
                    match Ir.dispatch p c (Ir.metho p target).m_name with
                    | Some m
                      when Array.length (Ir.metho p m).m_params
                           = Array.length args ->
                      Ir.method_name p m :: acc
                    | _ -> acc))
                (pts rv) []
              |> List.sort_uniq compare
            in
            Alcotest.(check (list string))
              (Printf.sprintf "%s site %d" name site)
              want
              (Option.value ~default:[] (List.assoc_opt site by_site))
          | Cast { lhs; ty; rhs; _ } when p.def_counts.(lhs) = 1 ->
            incr casts;
            let want = Bits.create () in
            Bits.iter
              (fun o ->
                if Ir.subtype p (Solver.obj_typ t o) ty then
                  ignore (Bits.add want o))
              (pts rhs);
            Alcotest.(check bool)
              (Printf.sprintf "%s cast into %s" name (Ir.var_name p lhs))
              true
              (Bits.equal want (pts lhs))
          | _ -> ())
        (Ir.metho p mid).m_body)
    r.r_reach;
  Alcotest.(check bool) (name ^ " checked call sites and casts") true
    (!sites > 0 && !casts > 0)

let test_caches_match_naive () =
  List.iter
    (fun prog ->
      let p = Csc_workloads.Suite.compile prog in
      check_against_naive (prog ^ "/ci") p (Solver.analyze p);
      check_against_naive (prog ^ "/csc") p
        (Solver.analyze ~plugin_of:Csc_core.Csc.plugin p))
    [ "findbugs"; "hsqldb" ]

(* --- per-source edge dedup ------------------------------------------ *)

(* Random [add_edge] sequences over four sources and fourteen
   destinations, with varying kinds and cast filters and some self-loops:
   each source's successor list (contents and order) and the [pfg_edges]
   counter match a model that dedups (src, dst, filter) triples in a
   [Hashtbl], where an unfiltered src->dst edge also hides every filtered
   one. The first edge of a triple wins, whatever kind later ones carry.
   Sixty edges from four sources push most of them past the list scan's
   limit into their own sets. *)
let edge_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (tup4 (int_range 0 3) (int_range 0 13) (int_range 0 2) (int_range 0 2)))

let prop_edge_dedup =
  let p = compile coalesce_src in
  QCheck2.Test.make ~name:"per-source edge dedup = pair-set model" ~count:200
    ~print:QCheck2.Print.(list (tup4 int int int int))
    edge_ops_gen (fun ops ->
      let t = Solver.create p in
      let ptr i = Solver.ptr_var t ~ctx:0 i in
      let ptrs = Array.init 14 ptr in
      let f1 = Solver.cast_filter t (Ir.Tclass p.object_cls) in
      let f2 = Solver.cast_filter t (Ir.Tclass p.string_cls) in
      let filters = [| None; Some f1; Some f2 |] in
      let kinds = [| Solver.KNormal; KReturn; KShortcut |] in
      let seen = Hashtbl.create 64 and model = Array.make 4 [] in
      List.iter
        (fun (s, d, k, f) ->
          let src = ptrs.(s) and dst = ptrs.(d) in
          Solver.add_edge ~kind:kinds.(k) ?filter:filters.(f) t ~src ~dst;
          if
            src <> dst
            && (not (Hashtbl.mem seen (src, dst, 0)))
            && not (Hashtbl.mem seen (src, dst, f))
          then begin
            Hashtbl.add seen (src, dst, f) ();
            model.(s) <- (dst, k, f) :: model.(s)
          end)
        ops;
      let succs src =
        let acc = ref [] in
        Solver.iter_succs t src (fun dst fc kind ->
            let k = match kind with KNormal -> 0 | KReturn -> 1 | KShortcut -> 2 in
            acc := (dst, k, fc) :: !acc);
        List.rev !acc
      in
      Array.for_all (fun s -> succs ptrs.(s) = model.(s)) [| 0; 1; 2; 3 |]
      && counter t "pfg_edges" = Hashtbl.length seen)

(* A packed edge and a packed watch decode to what was packed, with
   every field at either end of its range as often as inside it. *)
let at_ends hi =
  QCheck2.Gen.(oneof [ pure 0; pure hi; int_range 0 hi; int_range (hi - 3) hi ])

let prop_packing =
  QCheck2.Test.make ~name:"packed edges and watches round-trip" ~count:500
    QCheck2.Gen.(
      tup4
        (tup3 (at_ends (Solver.max_ptrs - 1))
           (at_ends (Solver.max_filter_codes - 1))
           (int_range 0 2))
        (tup2 (at_ends ((1 lsl 59) - 1)) (int_range 0 4))
        (at_ends (Solver.max_ptrs - 1))
        (at_ends (Solver.max_ptrs - 1)))
    (fun ((dst, fc, k), (ctx, w), a, b) ->
      let kind = [| Solver.KNormal; KReturn; KShortcut |].(k) in
      let e = Solver.pack_edge ~dst ~fc kind in
      let watch = [| Solver.WLoad; WStore; WALoad; WAStore; WInvoke |].(w) in
      let h = Solver.watch_head ~ctx watch in
      let pl = Solver.pack_pair a b in
      e >= 0 && Solver.edge_dst e = dst && Solver.edge_fc e = fc
      && Solver.edge_kind e = kind
      && Solver.head_ctx h = ctx && Solver.head_watch h = watch
      && Solver.pair_fst pl = a && Solver.pair_snd pl = b)

(* Re-adding an existing edge and walking a pointer's out-edges allocate
   nothing: soot's busiest pointers under csc dedup through their own
   sets, the others by scanning their edge vectors. *)
let test_edges_allocate_nothing () =
  let t =
    Solver.analyze ~plugin_of:Csc_core.Csc.plugin (named_program "soot")
  in
  let edges = ref [] in
  Solver.iter_ptrs t (fun src _ ->
      Solver.iter_succs t src (fun dst fc kind ->
          if fc = 0 then edges := (src, dst, kind) :: !edges));
  let edges = Array.of_list !edges in
  let n = counter t "pfg_edges" and n_ptrs = counter t "ptrs" in
  let count = ref 0 in
  let walk _ _ _ = incr count in
  let before = Gc.minor_words () in
  for _ = 1 to 3 do
    Array.iter
      (fun (src, dst, kind) -> Solver.add_edge_fc t ~src ~dst 0 kind)
      edges;
    for p = 0 to n_ptrs - 1 do
      Solver.iter_succs t p walk
    done
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "no edge added" n (counter t "pfg_edges");
  Alcotest.(check int) "every edge walked" (3 * n) !count;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated for %d re-adds" words
       (3 * Array.length edges))
    true (words < 100.)

(* An id or a code one past its field is refused, not packed into its
   neighbour's bits. *)
let test_packing_range () =
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "pointer id 2^31" (fun () ->
      Solver.pack_edge ~dst:Solver.max_ptrs ~fc:0 KNormal);
  refused "negative pointer id" (fun () ->
      Solver.pack_edge ~dst:(-1) ~fc:0 KNormal);
  refused "filter code 2^29" (fun () ->
      Solver.pack_edge ~dst:0 ~fc:Solver.max_filter_codes KShortcut);
  refused "payload 2^31" (fun () -> Solver.pack_pair 0 Solver.max_ptrs);
  refused "payload head 2^31" (fun () -> Solver.pack_pair Solver.max_ptrs 0)

(* --- repeated receivers at a virtual call ----------------------------- *)

(* Six receivers reach [a.speak()] in one delta; by object id their
   classes run Dog Dog Cat Dog Cat Cat, so a receiver sometimes resolves
   like the one before it and sometimes not. *)
let repeat_recv_src =
  {|
class Animal { Object speak() { return this; } }
class Dog extends Animal { Object speak() { return this; } }
class Cat extends Animal { Object speak() { return this; } }
class Main {
  static void main() {
    Animal a = new Dog();
    if (true) { a = new Dog(); }
    if (true) { a = new Cat(); }
    if (true) { a = new Dog(); }
    if (true) { a = new Cat(); }
    if (true) { a = new Cat(); }
    Object s = a.speak();
    System.print(s);
  }
}
|}

(* Under ci each override's [this] holds exactly its own class's
   receivers; under 2obj every receiver has a context of its own whose
   [this] holds it alone. In both, the site's context-full call edges are
   those that sending every receiver through [add_call_edge] gives: one
   per distinct (callee, callee context) over the receivers. *)
let test_repeated_receivers () =
  let p = compile repeat_recv_src in
  let main = find_method p "Main.main" in
  let site = ref (-1) in
  Ir.iter_stmts
    (fun (s : Ir.stmt) ->
      match s with
      | Invoke { kind = Virtual; site = cs; _ } -> site := cs
      | _ -> ())
    main.m_body;
  let a = var p "Main.main" "a" in
  let cls_name t o = (p.classes.(Solver.obj_cls t o)).c_name in
  List.iter
    (fun (name, sel) ->
      let t = Solver.analyze ~sel p in
      let ctx = Context.empty in
      let recvs = Solver.pts t (Solver.ptr_var t ~ctx a) in
      Alcotest.(check (list string)) (name ^ ": receivers interleave")
        [ "Dog"; "Dog"; "Cat"; "Dog"; "Cat"; "Cat" ]
        (List.map (cls_name t) (Bits.to_list recvs));
      (* the naive run: every receiver's own (callee, callee context) *)
      let want = Hashtbl.create 8 in
      Bits.iter
        (fun o ->
          let callee =
            (find_method p (cls_name t o ^ ".speak")).m_id
          in
          let cctx =
            t.sel.sel_callee_ctx t.env ~caller_ctx:ctx ~site:!site ~recv:o
              ~callee
          in
          Hashtbl.replace want (callee, cctx) ();
          let this = Option.get (Ir.metho p callee).m_this in
          let this_pts = Solver.pts t (Solver.ptr_var t ~ctx:cctx this) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: receiver %d reaches this" name o)
            true (Bits.mem this_pts o);
          Alcotest.(check bool)
            (Printf.sprintf "%s: this of receiver %d holds its class only"
               name o)
            true
            (Bits.for_all (fun o' -> cls_name t o' = cls_name t o) this_pts);
          if name = "2obj" then
            Alcotest.(check int)
              (Printf.sprintf "2obj: receiver %d alone in its context" o)
              1 (Bits.cardinal this_pts))
        recvs;
      List.iter
        (fun cname ->
          let callee = (find_method p (cname ^ ".speak")).m_id in
          let ctxs =
            Hashtbl.fold
              (fun (m, cctx) () acc -> if m = callee then cctx :: acc else acc)
              want []
          in
          let got =
            Csc_common.Inttbl.find t.call_edges
              ((!site * Array.length p.methods) + callee)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s.speak edge count" name cname)
            (List.length ctxs)
            (Csc_common.Inttbl.Set.length got);
          List.iter
            (fun cctx ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s.speak edge to ctx %d" name cname cctx)
                true
                (Csc_common.Inttbl.Set.mem got ((ctx lsl 31) lor cctx)))
            ctxs)
        [ "Dog"; "Cat" ];
      Alcotest.(check int) (name ^ ": distinct callee contexts")
        (if name = "ci" then 2 else 6)
        (Hashtbl.length want))
    [ ("ci", Context.ci); ("2obj", sel_2obj) ]

(* Under 2obj most pointers hold one or two high object ids. A set stores
   only the words between its lowest and highest element, so findbugs'
   points-to sets take ~1.75M words; with words from element 0 they took
   ~7.1M. The gauge is one pass over the pointers when the solve stops. *)
let test_pts_words_bounded () =
  let t = Solver.analyze ~sel:sel_2obj (named_program "findbugs") in
  let gauge n =
    Option.get (Snapshot.gauge_value (Solver.snapshot t) n) |> int_of_float
  in
  let sum = ref 0 in
  Solver.iter_ptrs t (fun p _ -> sum := !sum + Bits.footprint (Solver.pts t p));
  Alcotest.(check int) "gauge = footprint over pointers" !sum (gauge "pts_words");
  Alcotest.(check bool)
    (Printf.sprintf "pts_words %d <= 2.5M" (gauge "pts_words"))
    true
    (gauge "pts_words" <= 2_500_000);
  Alcotest.(check bool) "pending_words measured" true (gauge "pending_words" > 0)

(* The memory ledger: the solver's word gauges, summed, cover most of
   the words reachable from the finished solver (less the program's) and
   never more. What they leave out is the context and object store, the
   cast filters, the dispatch memo, the worklist's bookkeeping, the
   registry and, under csc, the plugin's own tables. *)
let ledger_gauges =
  [ "pts_words"; "pending_words"; "edge_words"; "watch_words"; "node_words";
    "ptr_table_words"; "call_edge_words" ]

let gauge t n =
  Option.get (Snapshot.gauge_value (Solver.snapshot t) n) |> int_of_float

let test_memory_ledger () =
  List.iter
    (fun (name, sel, plugin_of, lo) ->
      let p = named_program name in
      let t = Solver.analyze ~sel ?plugin_of p in
      let sum = List.fold_left (fun acc g -> acc + gauge t g) 0 ledger_gauges in
      let live =
        Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr p)
      in
      let share = float_of_int sum /. float_of_int live in
      Alcotest.(check bool)
        (Printf.sprintf "%s: ledger %d words = %.2f of %d live, in [%.2f, 1]"
           name sum share live lo)
        true
        (share >= lo && share <= 1.))
    [ ("findbugs", sel_2obj, None, 0.9);
      ("soot", Context.ci, Some Csc_core.Csc.plugin, 0.75) ]

(* findbugs under 2obj has 396,385 PFG edges. Packed one int each, in
   vectors that grow by half, with the out-edge sets of the sources past
   the scan limit, they take ~1.25M words; as a list of boxed edge
   records they took ~3.82M. *)
let test_edge_words_bounded () =
  let t = Solver.analyze ~sel:sel_2obj (named_program "findbugs") in
  Alcotest.(check bool)
    (Printf.sprintf "edge_words %d <= 1.5M" (gauge t "edge_words"))
    true
    (gauge t "edge_words" <= 1_500_000)

let suite =
  [
    ( "pta.ci",
      [
        Alcotest.test_case "carton imprecise" `Quick test_ci_carton_imprecise;
        Alcotest.test_case "nested imprecise" `Quick test_ci_nested_imprecise;
        Alcotest.test_case "containers imprecise" `Quick test_ci_containers_imprecise;
        Alcotest.test_case "localflow imprecise" `Quick test_ci_localflow_imprecise;
        Alcotest.test_case "virtual dispatch" `Quick test_callgraph_virtual_dispatch;
        Alcotest.test_case "poly call site" `Quick test_callgraph_poly_site;
        Alcotest.test_case "unreachable code skipped" `Quick
          test_unreachable_code_not_analyzed;
        Alcotest.test_case "casts filter" `Quick test_cast_filters;
        Alcotest.test_case "static fields" `Quick test_static_fields;
        Alcotest.test_case "array smashing" `Quick test_array_flow;
        Alcotest.test_case "budget timeout" `Quick test_budget_timeout;
      ] );
    ( "pta.cs",
      [
        Alcotest.test_case "2obj carton precise" `Quick test_2obj_carton_precise;
        Alcotest.test_case "2type carton merged" `Quick test_2type_carton;
        Alcotest.test_case "2obj nested precise" `Quick test_2obj_nested_precise;
        Alcotest.test_case "2obj containers precise" `Quick
          test_2obj_containers_precise;
        Alcotest.test_case "2obj localflow merged" `Quick
          test_2obj_localflow_still_imprecise;
        Alcotest.test_case "2call localflow precise" `Quick
          test_2call_localflow_precise;
      ] );
    ( "pta.soundness",
      [
        Alcotest.test_case "recall: CI" `Quick test_recall_all_fixtures_ci;
        Alcotest.test_case "recall: 2obj" `Quick test_recall_all_fixtures_2obj;
        Alcotest.test_case "recall: 2call" `Quick test_recall_all_fixtures_2call;
        Alcotest.test_case "2obj refines CI" `Quick test_cs_refines_ci;
      ] );
    ( "pta.hotpath",
      [
        Alcotest.test_case "copy cycle" `Quick test_copy_cycle;
        Alcotest.test_case "worklist coalescing" `Quick
          test_worklist_coalescing;
        Alcotest.test_case "redundant push skipped" `Quick
          test_redundant_push_skipped;
        Alcotest.test_case "pointer keys re-intern" `Quick
          test_ptr_keys_reintern;
        Alcotest.test_case "cast mask covers later objects" `Quick
          test_cast_mask_extends;
        Alcotest.test_case "dispatch per receiver class" `Quick
          test_dispatch_per_class;
        Alcotest.test_case "caches match naive checks" `Quick
          test_caches_match_naive;
        QCheck_alcotest.to_alcotest prop_edge_dedup;
        QCheck_alcotest.to_alcotest prop_packing;
        Alcotest.test_case "packing refuses out-of-range ids" `Quick
          test_packing_range;
        Alcotest.test_case "edge dedup and walks allocate nothing" `Quick
          test_edges_allocate_nothing;
        Alcotest.test_case "repeated receivers seed this only" `Quick
          test_repeated_receivers;
        Alcotest.test_case "2obj points-to words bounded" `Quick
          test_pts_words_bounded;
        Alcotest.test_case "memory ledger covers the solver" `Quick
          test_memory_ledger;
        Alcotest.test_case "2obj edge words bounded" `Quick
          test_edge_words_bounded;
      ] );
  ]
