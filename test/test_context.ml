(** Unit tests for the context selectors over the context store:
    k-limiting, heap-context truncation, selective gating, and the store's
    numbering against a list-interner model. *)

module Context = Csc_pta.Context
module Bits = Csc_common.Bits

let program = Helpers.compile Fixtures.carton

(* the context of [elems], most recent first, built with pushes *)
let ctx_of env elems =
  List.fold_right
    (fun e c -> Context.push env ~limit:(List.length elems) e c)
    elems Context.empty

let test_ci_always_empty () =
  let env = Context.env program in
  Alcotest.(check (list int)) "empty has no elements" []
    (Context.elems env Context.empty);
  let c =
    Context.ci.sel_callee_ctx env ~caller_ctx:Context.empty ~site:0 ~recv:0
      ~callee:0
  in
  Alcotest.(check int) "empty ctx" Context.empty c;
  Alcotest.(check int) "empty heap ctx" Context.empty
    (Context.ci.sel_heap_ctx env ~mctx:c ~site:0)

let test_kobj_k_limiting () =
  let env = Context.env program in
  let sel = Context.kobj ~k:2 ~hk:1 in
  let empty = Context.empty in
  (* receiver allocated at site 7 under heap context [3] *)
  let hctx = ctx_of env [ 3 ] in
  let recv = Context.obj env ~hctx ~site:7 in
  let c = sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:0 in
  Alcotest.(check (list int)) "ctx = [alloc; hctx-elem]" [ 7; 3 ]
    (Context.elems env c);
  (* a deeper receiver: k-limiting truncates to 2 *)
  let hctx2 = ctx_of env [ 9; 8 ] in
  let recv2 = Context.obj env ~hctx:hctx2 ~site:5 in
  let c2 = sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv:recv2 ~callee:0 in
  Alcotest.(check (list int)) "truncated to k=2" [ 5; 9 ] (Context.elems env c2);
  (* heap context keeps hk=1 most recent elements of the method context *)
  Alcotest.(check (list int)) "heap ctx = [5]" [ 5 ]
    (Context.elems env (sel.sel_heap_ctx env ~mctx:c2 ~site:0))

let test_kobj_static_inherits () =
  let env = Context.env program in
  let sel = Context.kobj ~k:2 ~hk:1 in
  let caller = ctx_of env [ 4; 2 ] in
  let c = sel.sel_callee_ctx env ~caller_ctx:caller ~site:9 ~recv:(-1) ~callee:0 in
  Alcotest.(check int) "static call inherits caller ctx" caller c;
  Alcotest.(check (list int)) "its elements" [ 4; 2 ] (Context.elems env c)

let test_kcall_uses_sites () =
  let env = Context.env program in
  let sel = Context.kcall ~k:2 ~hk:1 in
  let caller = ctx_of env [ 11 ] in
  let c = sel.sel_callee_ctx env ~caller_ctx:caller ~site:22 ~recv:(-1) ~callee:0 in
  Alcotest.(check (list int)) "ctx = [site; prev]" [ 22; 11 ] (Context.elems env c);
  let c2 = sel.sel_callee_ctx env ~caller_ctx:c ~site:33 ~recv:(-1) ~callee:0 in
  Alcotest.(check (list int)) "k-limited" [ 33; 22 ] (Context.elems env c2)

let test_ktype_uses_alloc_class () =
  let env = Context.env program in
  let sel = Context.ktype ~k:2 ~hk:1 in
  let empty = Context.empty in
  (* pick a real allocation site of the program and compute its class *)
  let site = 0 in
  let expected_cls =
    (Csc_ir.Ir.metho program (Csc_ir.Ir.alloc program site).a_method).m_class
  in
  let recv = Context.obj env ~hctx:empty ~site in
  let c = sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:0 in
  Alcotest.(check (list int)) "ctx element is the allocating class"
    [ expected_cls ] (Context.elems env c)

let test_selective_gates () =
  let env = Context.env program in
  let selected = Bits.of_list [ 42 ] in
  let sel = Context.selective ~selected ~base:(Context.kobj ~k:2 ~hk:1) in
  let empty = Context.empty in
  let recv = Context.obj env ~hctx:empty ~site:7 in
  let c_sel =
    sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:42
  in
  Alcotest.(check (list int)) "selected method gets contexts" [ 7 ]
    (Context.elems env c_sel);
  let c_unsel =
    sel.sel_callee_ctx env ~caller_ctx:empty ~site:0 ~recv ~callee:41
  in
  Alcotest.(check (list int)) "unselected method stays CI" []
    (Context.elems env c_unsel)

let test_suffix_takes_no_id () =
  (* pushing 3 onto [2; 1] under limit 2 builds the cell [2] on the way;
     it takes an id only when a truncation returns it *)
  let env = Context.env program in
  let a = Context.push env ~limit:2 1 Context.empty in
  let ba = Context.push env ~limit:2 2 a in
  let cb = Context.push env ~limit:2 3 ba in
  Alcotest.(check (list int)) "ids in order of return" [ 1; 2; 3 ] [ a; ba; cb ];
  let c = Context.truncate env ~depth:1 cb in
  let b = Context.truncate env ~depth:1 ba in
  Alcotest.(check (list int)) "suffixes named when returned" [ 4; 5 ] [ c; b ];
  Alcotest.(check int) "and keep their ids" b (Context.truncate env ~depth:1 ba);
  Alcotest.(check (list int)) "elements" [ 2 ] (Context.elems env b)

(* A list-interner model of the context store. Contexts are element
   lists, most recent first, numbered in the order the store first returns
   them (the empty context is 0); a suffix built on the way takes no
   number. Objects are (heap context, site) pairs numbered in creation
   order. [Recv] is an object-sensitive callee context, through the kobj
   selector; indices pick among the contexts and objects made so far. *)
type op =
  | Push of int * int * int  (* limit, element, context index *)
  | Truncate of int * int    (* depth, context index *)
  | Obj of int * int         (* context index, site *)
  | Recv of int * int        (* limit, object index *)

let show_op = function
  | Push (l, e, c) -> Printf.sprintf "push ~limit:%d %d ctx.%d" l e c
  | Truncate (d, c) -> Printf.sprintf "truncate ~depth:%d ctx.%d" d c
  | Obj (c, s) -> Printf.sprintf "obj ctx.%d site %d" c s
  | Recv (l, o) -> Printf.sprintf "recv ~limit:%d obj.%d" l o

let gen_op =
  QCheck2.Gen.(
    let idx = int_bound 1000 and elem = int_bound 40 and lim = int_bound 3 in
    frequency
      [ (4, map3 (fun l e c -> Push (l, e, c)) lim elem idx);
        (2, map2 (fun d c -> Truncate (d, c)) lim idx);
        (2, map2 (fun c s -> Obj (c, s)) idx elem);
        (2, map2 (fun l o -> Recv (l, o)) lim idx) ])

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let prop_store_model =
  QCheck2.Test.make ~name:"store = list-interner model" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 200) gen_op)
    (fun ops ->
      let env = Context.env program in
      let ids : (int list, int) Hashtbl.t = Hashtbl.create 64 in
      let lists = ref [||] in
      let name l =
        match Hashtbl.find_opt ids l with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids l i;
          lists := Array.append !lists [| l |];
          i
      in
      ignore (name []);
      let m_objs : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let obj_list = ref [||] in
      let step op =
        let n = Array.length !lists in
        match op with
        | Push (l, e, c) ->
          let c = c mod n in
          Context.push env ~limit:l e c = name (take l (e :: !lists.(c)))
        | Truncate (d, c) ->
          let c = c mod n in
          Context.truncate env ~depth:d c = name (take d !lists.(c))
        | Obj (c, s) ->
          let c = c mod n in
          let want =
            match Hashtbl.find_opt m_objs (c, s) with
            | Some o -> o
            | None ->
              let o = Hashtbl.length m_objs in
              Hashtbl.add m_objs (c, s) o;
              obj_list := Array.append !obj_list [| (c, s) |];
              o
          in
          Context.obj env ~hctx:c ~site:s = want
        | Recv (l, o) ->
          if Array.length !obj_list = 0 then true
          else
            let o = o mod Array.length !obj_list in
            let hctx, site = !obj_list.(o) in
            let got =
              (Context.kobj ~k:l ~hk:1).sel_callee_ctx env ~caller_ctx:0
                ~site:0 ~recv:o ~callee:0
            in
            got = name (take l (site :: !lists.(hctx)))
      in
      List.for_all step ops
      && Array.for_all Fun.id
           (Array.mapi (fun i l -> Context.elems env i = l) !lists)
      && Context.n_objs env = Array.length !obj_list
      && Array.for_all Fun.id
           (Array.mapi
              (fun o (c, s) ->
                Context.obj_hctx env o = c && Context.obj_site env o = s)
              !obj_list))

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
        Alcotest.test_case "suffix takes no id" `Quick test_suffix_takes_no_id;
        QCheck_alcotest.to_alcotest prop_store_model;
      ] );
  ]
