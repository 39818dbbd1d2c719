(** Context abstractions for the context-sensitive baselines.

    A context is an interned tuple of ints whose meaning depends on the
    selector: abstract object ids for object sensitivity, class ids for type
    sensitivity, call-site ids for call-site sensitivity. Tuples are stored
    most-recent-first, so k-limiting is [take k]. Selecting the empty tuple
    everywhere yields context insensitivity — the solver is the same for all
    analyses (DESIGN.md §3). *)

open Csc_common
module Ir = Csc_ir.Ir

(** The solver-side environment a selector can query. *)
type env = {
  prog : Ir.program;
  empty : int;                   (** the empty context's id *)
  ctx_elems : int -> int list;   (** interned context id -> elements *)
  intern_ctx : int list -> int;
  obj_alloc : int -> Ir.alloc_id;
  obj_hctx : int -> int;         (** object id -> its heap context id *)
}

type t = {
  sel_name : string;
  sel_callee_ctx :
    env ->
    caller_ctx:int ->
    site:Ir.call_id ->
    recv:int ->
    callee:Ir.method_id ->
    int;
  sel_heap_ctx : env -> mctx:int -> site:Ir.alloc_id -> int;
}

(** An environment over a fresh context interner, with the empty context
    interned first. Both engines build theirs here; they differ only in how
    abstract objects are stored. *)
let env ~prog ~obj_alloc ~obj_hctx : env =
  let ctxs = Interner.create [] in
  let empty = Interner.intern ctxs [] in
  {
    prog;
    empty;
    ctx_elems = Interner.get ctxs;
    intern_ctx = Interner.intern ctxs;
    obj_alloc;
    obj_hctx;
  }

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(** Context insensitivity: the empty context everywhere. *)
let ci : t =
  {
    sel_name = "ci";
    sel_callee_ctx = (fun env ~caller_ctx:_ ~site:_ ~recv:_ ~callee:_ -> env.empty);
    sel_heap_ctx = (fun env ~mctx:_ ~site:_ -> env.empty);
  }

(* k-object sensitivity: context elements are allocation sites [Milanova
   et al. 2005; Smaragdakis et al. 2011]. A callee's context is its receiver
   object's allocation site consed onto that object's heap context; heap
   contexts are the allocating method's context truncated to [hk]. *)
let kobj ~k ~hk : t =
  {
    sel_name = Printf.sprintf "%dobj" k;
    sel_callee_ctx =
      (fun env ~caller_ctx ~site:_ ~recv ~callee:_ ->
        if recv < 0 then env.intern_ctx (take k (env.ctx_elems caller_ctx))
          (* static call: inherit the caller's context *)
        else
          env.intern_ctx
            (take k
               (env.obj_alloc recv :: env.ctx_elems (env.obj_hctx recv))));
    sel_heap_ctx =
      (fun env ~mctx ~site:_ -> env.intern_ctx (take hk (env.ctx_elems mctx)));
  }

(* k-type sensitivity: as object sensitivity, but each receiver object is
   abstracted to the class that (lexically) contains its allocation site
   [Smaragdakis et al. 2011]. *)
let ktype ~k ~hk : t =
  let type_of_obj env o =
    let a = Ir.alloc env.prog (env.obj_alloc o) in
    (Ir.metho env.prog a.a_method).m_class
  in
  {
    sel_name = Printf.sprintf "%dtype" k;
    sel_callee_ctx =
      (fun env ~caller_ctx ~site:_ ~recv ~callee:_ ->
        if recv < 0 then env.intern_ctx (take k (env.ctx_elems caller_ctx))
        else
          env.intern_ctx
            (take k
               (type_of_obj env recv :: env.ctx_elems (env.obj_hctx recv))));
    sel_heap_ctx =
      (fun env ~mctx ~site:_ -> env.intern_ctx (take hk (env.ctx_elems mctx)));
  }

(* k-call-site sensitivity (k-CFA). *)
let kcall ~k ~hk : t =
  {
    sel_name = Printf.sprintf "%dcall" k;
    sel_callee_ctx =
      (fun env ~caller_ctx ~site ~recv:_ ~callee:_ ->
        env.intern_ctx (take k (site :: env.ctx_elems caller_ctx)));
    sel_heap_ctx =
      (fun env ~mctx ~site:_ -> env.intern_ctx (take hk (env.ctx_elems mctx)));
  }

(** Selective context sensitivity: apply [base] only to methods in
    [selected]; everything else is analyzed context-insensitively. Heap
    contexts likewise apply only to allocations in selected methods. This is
    the main-analysis half of Zipper^e. *)
let selective ~(selected : Bits.t) ~(base : t) : t =
  {
    sel_name = base.sel_name ^ "-sel";
    sel_callee_ctx =
      (fun env ~caller_ctx ~site ~recv ~callee ->
        if Bits.mem selected callee then
          base.sel_callee_ctx env ~caller_ctx ~site ~recv ~callee
        else env.empty);
    sel_heap_ctx =
      (fun env ~mctx ~site ->
        let m = (Ir.alloc env.prog site).a_method in
        if Bits.mem selected m then base.sel_heap_ctx env ~mctx ~site
        else env.empty);
  }
