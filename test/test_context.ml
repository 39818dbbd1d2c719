(** Unit tests for the context selectors, using a mock solver environment:
    k-limiting, heap-context truncation, selective gating. *)

module Context = Csc_pta.Context
module Interner = Csc_common.Interner
module Bits = Csc_common.Bits

(* a mock environment: objects are (hctx, alloc) pairs we control *)
let mk_env (p : Csc_ir.Ir.program) =
  let objs : (int * int) Interner.t = Interner.create (-1, -1) in
  let env =
    Context.env ~prog:p
      ~obj_alloc:(fun o -> snd (Interner.get objs o))
      ~obj_hctx:(fun o -> fst (Interner.get objs o))
  in
  (env, objs)

let program = Helpers.compile Fixtures.carton

let test_ci_always_empty () =
  let env, _ = mk_env program in
  let empty = env.intern_ctx [] in
  Alcotest.(check (pair int int)) "empty interned first" (0, 0)
    (env.empty, empty);
  let c =
    Context.ci.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv:0 ~callee:0
  in
  Alcotest.(check int) "empty ctx" empty c;
  Alcotest.(check int) "empty heap ctx" empty
    (Context.ci.sel_heap_ctx env ~mctx:c ~site:0)

let test_kobj_k_limiting () =
  let env, objs = mk_env program in
  let sel = Context.kobj ~k:2 ~hk:1 in
  let empty = env.intern_ctx [] in
  (* receiver allocated at site 7 under heap context [3] *)
  let hctx = env.intern_ctx [ 3 ] in
  let recv = Interner.intern objs (hctx, 7) in
  let c = sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:0 in
  Alcotest.(check (list int)) "ctx = [alloc; hctx-elem]" [ 7; 3 ]
    (env.ctx_elems c);
  (* a deeper receiver: k-limiting truncates to 2 *)
  let hctx2 = env.intern_ctx [ 9; 8 ] in
  let recv2 = Interner.intern objs (hctx2, 5) in
  let c2 = sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv:recv2 ~callee:0 in
  Alcotest.(check (list int)) "truncated to k=2" [ 5; 9 ] (env.ctx_elems c2);
  (* heap context keeps hk=1 most recent elements of the method context *)
  Alcotest.(check (list int)) "heap ctx = [5]" [ 5 ]
    (env.ctx_elems (sel.sel_heap_ctx env ~mctx:c2 ~site:0))

let test_kobj_static_inherits () =
  let env, _ = mk_env program in
  let sel = Context.kobj ~k:2 ~hk:1 in
  let caller = env.intern_ctx [ 4; 2 ] in
  let c = sel.sel_callee_ctx env ~caller_ctx:caller ~site:9 ~recv:(-1) ~callee:0 in
  Alcotest.(check (list int)) "static call inherits caller ctx" [ 4; 2 ]
    (env.ctx_elems c)

let test_kcall_uses_sites () =
  let env, _ = mk_env program in
  let sel = Context.kcall ~k:2 ~hk:1 in
  let caller = env.intern_ctx [ 11 ] in
  let c = sel.sel_callee_ctx env ~caller_ctx:caller ~site:22 ~recv:(-1) ~callee:0 in
  Alcotest.(check (list int)) "ctx = [site; prev]" [ 22; 11 ] (env.ctx_elems c);
  let c2 = sel.sel_callee_ctx env ~caller_ctx:c ~site:33 ~recv:(-1) ~callee:0 in
  Alcotest.(check (list int)) "k-limited" [ 33; 22 ] (env.ctx_elems c2)

let test_ktype_uses_alloc_class () =
  let env, objs = mk_env program in
  let sel = Context.ktype ~k:2 ~hk:1 in
  let empty = env.intern_ctx [] in
  (* pick a real allocation site of the program and compute its class *)
  let site = 0 in
  let expected_cls =
    (Csc_ir.Ir.metho program (Csc_ir.Ir.alloc program site).a_method).m_class
  in
  let recv = Interner.intern objs (empty, site) in
  let c = sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:0 in
  Alcotest.(check (list int)) "ctx element is the allocating class"
    [ expected_cls ] (env.ctx_elems c)

let test_selective_gates () =
  let env, objs = mk_env program in
  let selected = Bits.of_list [ 42 ] in
  let sel = Context.selective ~selected ~base:(Context.kobj ~k:2 ~hk:1) in
  let empty = env.intern_ctx [] in
  let recv = Interner.intern objs (empty, 7) in
  let c_sel =
    sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:42
  in
  Alcotest.(check (list int)) "selected method gets contexts" [ 7 ]
    (env.ctx_elems c_sel);
  let c_unsel =
    sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:41
  in
  Alcotest.(check (list int)) "unselected method stays CI" []
    (env.ctx_elems c_unsel)

let suite =
  [
    ( "pta.context",
      [
        Alcotest.test_case "ci always empty" `Quick test_ci_always_empty;
        Alcotest.test_case "kobj k-limiting" `Quick test_kobj_k_limiting;
        Alcotest.test_case "kobj static inherit" `Quick test_kobj_static_inherits;
        Alcotest.test_case "kcall sites" `Quick test_kcall_uses_sites;
        Alcotest.test_case "ktype alloc class" `Quick test_ktype_uses_alloc_class;
        Alcotest.test_case "selective gating" `Quick test_selective_gates;
      ] );
  ]
