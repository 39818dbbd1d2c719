(** Context abstractions for the context-sensitive baselines, and the
    store of contexts and abstract objects both engines share.

    A context is a tuple of ints whose meaning depends on the selector:
    allocation sites for object sensitivity, class ids for type
    sensitivity, call-site ids for call-site sensitivity. Tuples are kept
    most-recent-first, so k-limiting keeps a prefix. Selecting the empty
    tuple everywhere yields context insensitivity — the solver is the same
    for all analyses (DESIGN.md §3). *)

open Csc_common
module Ir = Csc_ir.Ir

(* The store. A cell is an element consed onto its parent, the cell of
   the older elements; cell 0 is the empty tuple. Cells are hash-consed on
   (parent lsl 31) lor element, so equal tuples share one cell. A cell
   takes a context id only when a selector returns it ([name]); the two
   numberings stay apart so that a k-limited suffix built on the way
   leaves the context ids as a list interner of selector results would
   give them. Objects are keyed on (hctx lsl 31) lor site. Elements and
   sites are program ids, below 2^31. *)
type env = {
  prog : Ir.program;
  cells : int Inttbl.t;
  cell_elem : int Vec.t;
  cell_parent : int Vec.t;
  cell_depth : int Vec.t;
  cell_ctx : int Vec.t;   (* context id, -1 while unnamed *)
  ctx_cell : int Vec.t;   (* context id -> cell *)
  objs : int Inttbl.t;
  obj_sites : int Vec.t;
  obj_hctxs : int Vec.t;
}

let empty = 0

let env prog =
  let one x = Vec.of_list (-1) [ x ] in
  {
    prog;
    cells = Inttbl.create 256;
    cell_elem = one (-1);
    cell_parent = one (-1);
    cell_depth = one 0;
    cell_ctx = one empty;
    ctx_cell = one 0;
    objs = Inttbl.create 256;
    obj_sites = Vec.create 0;
    obj_hctxs = Vec.create 0;
  }

let cons env e parent =
  let key = (parent lsl 31) lor e in
  match Inttbl.find env.cells key with
  | c -> c
  | exception Not_found ->
    let c = Vec.push_idx env.cell_elem e in
    Vec.push env.cell_parent parent;
    Vec.push env.cell_depth (Vec.get env.cell_depth parent + 1);
    Vec.push env.cell_ctx (-1);
    Inttbl.add env.cells key c;
    c

(* the cell of the [d] most recent elements of cell [c] *)
let rec trunc env d c =
  if Vec.get env.cell_depth c <= d then c
  else if d = 0 then 0
  else
    cons env (Vec.get env.cell_elem c) (trunc env (d - 1) (Vec.get env.cell_parent c))

let name env c =
  let x = Vec.get env.cell_ctx c in
  if x >= 0 then x
  else begin
    let x = Vec.push_idx env.ctx_cell c in
    Vec.set env.cell_ctx c x;
    x
  end

let push env ~limit e ctx =
  if limit <= 0 then empty
  else name env (cons env e (trunc env (limit - 1) (Vec.get env.ctx_cell ctx)))

let truncate env ~depth ctx =
  let c = Vec.get env.ctx_cell ctx in
  if Vec.get env.cell_depth c <= depth then ctx else name env (trunc env depth c)

let elems env ctx =
  let rec go c =
    if c = 0 then [] else Vec.get env.cell_elem c :: go (Vec.get env.cell_parent c)
  in
  go (Vec.get env.ctx_cell ctx)

let obj env ~hctx ~site =
  let key = (hctx lsl 31) lor site in
  match Inttbl.find env.objs key with
  | o -> o
  | exception Not_found ->
    let o = Vec.push_idx env.obj_sites site in
    Vec.push env.obj_hctxs hctx;
    Inttbl.add env.objs key o;
    o

let n_objs env = Vec.length env.obj_sites
let obj_site env o = Vec.get env.obj_sites o
let obj_hctx env o = Vec.get env.obj_hctxs o
let obj_sites env = Vec.to_array env.obj_sites

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

(** Context insensitivity: the empty context everywhere. *)
let ci : t =
  {
    sel_name = "ci";
    sel_callee_ctx = (fun _ ~caller_ctx:_ ~site:_ ~recv:_ ~callee:_ -> empty);
    sel_heap_ctx = (fun _ ~mctx:_ ~site:_ -> empty);
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
        if recv < 0 then truncate env ~depth:k caller_ctx
          (* static call: inherit the caller's context *)
        else push env ~limit:k (obj_site env recv) (obj_hctx env recv));
    sel_heap_ctx = (fun env ~mctx ~site:_ -> truncate env ~depth:hk mctx);
  }

(* k-type sensitivity: as object sensitivity, but each receiver object is
   abstracted to the class that (lexically) contains its allocation site
   [Smaragdakis et al. 2011]. *)
let ktype ~k ~hk : t =
  let type_of_obj env o =
    let a = Ir.alloc env.prog (obj_site env o) in
    (Ir.metho env.prog a.a_method).m_class
  in
  {
    sel_name = Printf.sprintf "%dtype" k;
    sel_callee_ctx =
      (fun env ~caller_ctx ~site:_ ~recv ~callee:_ ->
        if recv < 0 then truncate env ~depth:k caller_ctx
        else push env ~limit:k (type_of_obj env recv) (obj_hctx env recv));
    sel_heap_ctx = (fun env ~mctx ~site:_ -> truncate env ~depth:hk mctx);
  }

(* k-call-site sensitivity (k-CFA). *)
let kcall ~k ~hk : t =
  {
    sel_name = Printf.sprintf "%dcall" k;
    sel_callee_ctx =
      (fun env ~caller_ctx ~site ~recv:_ ~callee:_ ->
        push env ~limit:k site caller_ctx);
    sel_heap_ctx = (fun env ~mctx ~site:_ -> truncate env ~depth:hk mctx);
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
        else empty);
    sel_heap_ctx =
      (fun env ~mctx ~site ->
        let m = (Ir.alloc env.prog site).a_method in
        if Bits.mem selected m then base.sel_heap_ctx env ~mctx ~site
        else empty);
  }
