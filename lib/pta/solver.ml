(** The pointer-analysis engine (the "Tai-e analog" of DESIGN.md S4).

    A worklist-driven Andersen-style solver over an explicit pointer flow
    graph (PFG), with on-the-fly call-graph construction. It is parameterized
    by a {!Context.t} selector — the empty selector gives the
    context-insensitive analysis — and by an optional {!type-plugin} through
    which Cut-Shortcut observes the analysis and manipulates the PFG
    (cutting = refusing edges before they are added, shortcutting = adding
    extra edges), exactly as in Figure 7 of the paper.

    The propagation core runs these optimizations (DESIGN.md S15):

    - {b Coalescing worklist.} Instead of a FIFO of [(ptr, delta)] pairs, a
      per-pointer pending-delta table plus a dirty set: N pushes to the same
      pointer merge into one entry processed once per round. FIFO order of
      first-dirtying is kept for determinism; drained delta sets are
      recycled through a spare list, so steady-state pushes allocate
      nothing.
    - {b One node per pointer, packed.} A pointer's descriptor, points-to
      set, successors, watches and pending delta sit in one record, so
      following an edge touches one record instead of five tables. Every
      field is an int or a set: the descriptor is the pointer's packed
      [ptr_ids] key; each out-edge is one int (destination, filter code
      and kind) in an int vector; each statement watch is two ints (a
      context-and-tag head and a payload). The flow and watch loops
      decode them in place, newest first. A source dedups its out-edges
      itself: by scanning its edge vector while it has fewer than
      [scan_limit], then through a set of its own. An existing edge hides
      a new one to the same pointer only when it is unfiltered or has the
      same cast filter.
    - {b Int-keyed tables.} Pointer interning, reachability, call edges
      and dispatch pack their keys into one int over the dense ids and
      look them up in an open-addressing {!Inttbl}; the polymorphic
      [Hashtbl] would call the runtime's generic hash and compare on every
      lookup. Contexts and abstract objects live in {!Context.env}, which
      keys them the same way: a context is a hash-consed (element, parent)
      cell, an object a packed (heap context, site) key.
    - {b Dense object facts.} The store keeps each abstract object's
      allocation site and heap context in int vectors; the solver adds its
      class when it first interns it, and each cast type keeps a bitset of
      the objects that pass it, extended as objects appear, so filtering a
      delta is one intersection. The per-object loops of the watches and
      the PFG flow neither hash nor allocate. *)

open Csc_common
module Ir = Csc_ir.Ir
module Registry = Csc_obs.Registry
module Snapshot = Csc_obs.Snapshot
module Prov = Csc_obs.Provenance
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr

(* ------------------------------------------------------------- pointers *)

type ptr_desc =
  | PVar of int * Ir.var_id        (** context id, variable *)
  | PField of int * Ir.field_id    (** abstract object id, instance field *)
  | PArr of int                    (** abstract object id: its array cells *)
  | PStatic of Ir.field_id

(** A return edge leaves the callee's return variable, so its callee is
    the method of the edge's source ({!meth_of_ptr}). *)
type edge_kind = KNormal | KReturn | KShortcut

(* A cast filter, shared by every edge that casts to [f_ty]: [f_pass]
   holds the objects in [0, f_upto) whose type is a subtype of [f_ty], and
   grows over newer objects when the filter is next applied. *)
type filter = {
  f_id : int;  (* dense, in creation order *)
  f_ty : Ir.typ;
  f_pass : Bits.t;
  mutable f_upto : int;
}

(* ------------------------------------------------------ packed encodings *)

(* Pointer ids take 31 bits of a packed edge and filter codes the 29
   above them; an id or a code that would not fit is refused with
   [Invalid_argument] before it is stored. *)
let max_ptrs = 1 lsl 31
let max_filter_codes = 1 lsl 29

let check_range what x bound bits =
  if x < 0 || x >= bound then
    invalid_arg
      (Printf.sprintf "Solver: %s %d does not fit the %d bits it is packed in"
         what x bits)

let kind_tag = function KNormal -> 0 | KReturn -> 1 | KShortcut -> 2
let kind_of_tag = function 0 -> KNormal | 1 -> KReturn | _ -> KShortcut

(** A PFG edge as one int: [(fc lsl 33) lor (dst lsl 2) lor kind tag],
    where [fc] is the filter code, 0 for none. *)
let pack_edge ~dst ~fc kind =
  check_range "pointer id" dst max_ptrs 31;
  check_range "filter code" fc max_filter_codes 29;
  (fc lsl 33) lor (dst lsl 2) lor kind_tag kind

let edge_dst e = (e lsr 2) land (max_ptrs - 1)
let edge_fc e = e lsr 33
let edge_kind e = kind_of_tag (e land 3)

(** A statement watch is two ints: a head [(ctx lsl 3) lor tag], and a
    payload, the statement's variable, field or call site, where a load
    packs [(lhs lsl 31) lor fld] and a store [(fld lsl 31) lor rhs]. *)
type watch = WLoad | WStore | WALoad | WAStore | WInvoke

let watch_tag = function
  | WLoad -> 0 | WStore -> 1 | WALoad -> 2 | WAStore -> 3 | WInvoke -> 4

let watch_of_tag = function
  | 0 -> WLoad | 1 -> WStore | 2 -> WALoad | 3 -> WAStore | _ -> WInvoke

let watch_head ~ctx w = (ctx lsl 3) lor watch_tag w
let head_ctx h = h lsr 3
let head_watch h = watch_of_tag (h land 7)

let pack_pair a b =
  check_range "variable or field id" a max_ptrs 31;
  check_range "variable or field id" b max_ptrs 31;
  (a lsl 31) lor b

let pair_fst x = x lsr 31
let pair_snd x = x land (max_ptrs - 1)

(* Growable int vectors in one array each: slot 0 counts the ints in use
   and they follow it, oldest first. [no_ints] is the shared empty
   vector; it is always full, so it is never written. *)
let no_ints = [| 0 |]

(* [a] with room for [k] more ints, grown by at least half when full *)
let reserve (a : int array) k =
  let len = a.(0) in
  if len + k < Array.length a then a
  else begin
    let b = Array.make (1 + max (len + k) (len + (len / 2))) 0 in
    Array.blit a 0 b 0 (len + 1);
    b
  end

let ints_words a = if a == no_ints then 0 else Array.length a + 1

(* --------------------------------------------------------------- plugin *)

type plugin = {
  pl_name : string;
  pl_on_reachable : Ir.method_id -> unit;
      (** a method became reachable (first time, any context) *)
  pl_on_call_edge : Ir.call_id -> Ir.method_id -> unit;
      (** a (site, callee) call edge appeared (first time, any context) *)
  pl_on_new_pts : int -> Bits.t -> unit;
      (** pointer id, delta of newly added objects *)
  pl_on_edge : src:int -> dst:int -> fc:int -> edge_kind -> unit;
      (** a PFG edge was added; [fc] is its filter code *)
  pl_is_cut_store : base:Ir.var_id -> rhs:Ir.var_id -> bool;
      (** [cutStores]: refuse the store edges of this statement *)
  pl_is_cut_return : Ir.method_id -> bool;
      (** [cutReturns]: refuse return edges out of this callee *)
}

let no_plugin : plugin =
  {
    pl_name = "none";
    pl_on_reachable = (fun _ -> ());
    pl_on_call_edge = (fun _ _ -> ());
    pl_on_new_pts = (fun _ _ -> ());
    pl_on_edge = (fun ~src:_ ~dst:_ ~fc:_ _ -> ());
    pl_is_cut_store = (fun ~base:_ ~rhs:_ -> false);
    pl_is_cut_return = (fun _ -> false);
  }

(* ---------------------------------------------------------------- nodes *)

(* Everything the solver keeps per pointer, as ints and sets. [key] is
   the pointer's packed descriptor (see [new_ptr]). [succ] holds its
   packed out-edges and [watch] its (head, payload) pairs, both iterated
   newest first. [out] holds the successors' ids, each with its edge's
   filter code, once there are [scan_limit] of them; before that it is
   the shared [no_out] and [add_edge] scans [succ]. [pending] is the
   coalescing worklist's delta, the solver's [empty_pending] when there
   is none. *)
type node = {
  key : int;
  pts : Bits.t;
  mutable succ : int array;
  mutable out : Inttbl.Set.t;
  mutable watch : int array;
  mutable pending : Bits.t;
}

let scan_limit = 8
let no_out = Inttbl.Set.create 0

(* ---------------------------------------------------------------- state *)

type t = {
  prog : Ir.program;
  sel : Context.t;
  mutable plugin : plugin;
  budget : Timer.budget;
  n_methods : int;          (* key-packing radix for (ctx, method) pairs *)
  n_vars : int;             (* key-packing radices for pointer keys *)
  n_fields : int;
  env : Context.env;        (* contexts and objects; what selectors see *)
  obj_clss : int Vec.t;     (* object id -> class, -1 for arrays *)
  (* cast filters by type and by id; virtual dispatch by
     cls * n_methods + target, -1 when no method of matching arity
     answers it *)
  filters : (Ir.typ, filter) Hashtbl.t;
  filter_ids : filter Vec.t;
  dispatch : int Inttbl.t;
  (* pointers: packed key (see [new_ptr]) -> dense id -> node *)
  ptr_ids : int Inttbl.t;
  nodes : node Vec.t;
  (* coalescing worklist: per-node pending delta + dirty set + FIFO of
     first-dirtying; [empty_pending] is the shared "no pending" sentinel
     (compared physically), [spare] recycles drained deltas *)
  dirty : Bits.t;
  wl : int Queue.t;
  empty_pending : Bits.t;
  mutable spare : Bits.t list;
  (* reachability / call graph (packed-int keys) *)
  reached : Inttbl.Set.t;   (* ctx * n_methods + mid *)
  reached_methods : Bits.t;
  call_edges : Inttbl.Set.t Inttbl.t;
      (* (site * n_methods + callee) -> {(caller_ctx lsl 31) lor callee_ctx} *)
  call_edges_proj : (int, unit) Hashtbl.t;
      (* site * n_methods + callee; a stdlib table because its fold order
         is the order of [r_edges], which renderings print *)
  (* observability: the registry owns all engine metrics; the handles below
     are direct-mutation aliases so hot-path updates cost a field write *)
  reg : Registry.t;
  c_ptrs : Registry.counter;
  c_edges : Registry.counter;
  c_prop : Registry.counter;        (* total objects propagated *)
  c_call_edges : Registry.counter;  (* context-full call edges *)
  c_reach_ctx : Registry.counter;   (* (ctx, method) pairs *)
  c_wl_pushes : Registry.counter;   (* non-empty worklist pushes *)
  c_wl_coalesced : Registry.counter;(* pushes merged into a pending entry *)
  g_time : Registry.gauge;
  g_heap : Registry.gauge;          (* peak major-heap words observed *)
  g_pts_words : Registry.gauge;     (* words in points-to sets, at the end *)
  g_pending_words : Registry.gauge; (* words in pending and spare deltas *)
  (* the rest of the memory ledger, also set when a solve stops *)
  g_edge_words : Registry.gauge;      (* successors and out-edge sets *)
  g_watch_words : Registry.gauge;     (* statement watches *)
  g_node_words : Registry.gauge;      (* node vector and records *)
  g_ptr_table_words : Registry.gauge; (* the [ptr_ids] table *)
  g_call_edge_words : Registry.gauge; (* [call_edges] and its projection *)
  mutable prov : Prov.t option;     (* opt-in derivation recorder *)
  mutable attr : Attr.t option;     (* opt-in cost-attribution tables *)
  (* [--progress] heartbeat: 0. = off *)
  mutable progress_s : float;
  mutable last_progress : float;
}

exception Timeout

let create ?(budget = Timer.no_budget) ?(sel = Context.ci) (prog : Ir.program)
    : t =
  let reg = Registry.create () in
  let empty_pending = Bits.create () in
  {
    prog;
    sel;
    plugin = no_plugin;
    budget;
    n_methods = Array.length prog.methods;
    n_vars = max 1 (Array.length prog.vars);
    n_fields = max 1 (Array.length prog.fields);
    env = Context.env prog;
    obj_clss = Vec.create 0;
    filters = Hashtbl.create 16;
    filter_ids =
      Vec.create ~capacity:16
        { f_id = -1; f_ty = Ir.Tnull; f_pass = empty_pending; f_upto = 0 };
    dispatch = Inttbl.create 256;
    ptr_ids = Inttbl.create 4096;
    nodes =
      Vec.create ~capacity:4096
        { key = -1; pts = empty_pending; succ = no_ints; out = no_out;
          watch = no_ints; pending = empty_pending };
    dirty = Bits.create ();
    wl = Queue.create ();
    empty_pending;
    spare = [];
    reached = Inttbl.Set.create 256;
    reached_methods = Bits.create ();
    call_edges = Inttbl.create 1024;
    call_edges_proj = Hashtbl.create 1024;
    reg;
    c_ptrs = Registry.counter reg "ptrs";
    c_edges = Registry.counter reg "pfg_edges";
    c_prop = Registry.counter reg "propagated";
    c_call_edges = Registry.counter reg "cs_call_edges";
    c_reach_ctx = Registry.counter reg "ctx_methods";
    c_wl_pushes = Registry.counter reg "wl_pushes";
    c_wl_coalesced = Registry.counter reg "wl_coalesced";
    g_time = Registry.gauge reg "time_s";
    g_heap = Registry.gauge reg "heap_words_peak";
    g_pts_words = Registry.gauge reg "pts_words";
    g_pending_words = Registry.gauge reg "pending_words";
    g_edge_words = Registry.gauge reg "edge_words";
    g_watch_words = Registry.gauge reg "watch_words";
    g_node_words = Registry.gauge reg "node_words";
    g_ptr_table_words = Registry.gauge reg "ptr_table_words";
    g_call_edge_words = Registry.gauge reg "call_edge_words";
    prov = None;
    attr = None;
    progress_s = 0.;
    last_progress = 0.;
  }

let set_plugin t p = t.plugin <- p

(** Start recording derivations. Must be called before {!run} to get complete
    chains; idempotent. [max_records] caps the recorder's memory (default 1M
    facts; overflow counts into the [prov_dropped] counter of
    {!snapshot}). *)
let enable_provenance ?(max_records = 1_000_000) t =
  if t.prov = None then t.prov <- Some (Prov.create ~max_records ())

let provenance t = t.prov

(** Start cost attribution (per-method/per-pointer tables, delta histogram);
    must precede {!run} to cover the whole solve. Idempotent; unlike
    provenance it perturbs nothing, it only records. *)
let enable_attr t = if t.attr = None then t.attr <- Some (Attr.create ())

let attr t = t.attr

(** Emit a heartbeat line to stderr every [interval_s] seconds while
    solving. *)
let set_progress t interval_s =
  t.progress_s <- interval_s;
  t.last_progress <- Timer.now ()

(* ------------------------------------------------------------ accessors *)

(* A pointer's key packs its descriptor into one int: the payload shifted
   left by two, tagged 0 PVar, 1 PField, 2 PArr, 3 PStatic. The payload of
   PVar is ctx * n_vars + v, of PField obj * n_fields + fld. The node
   keeps the key as its descriptor. *)
let new_ptr t key : int =
  let id = Vec.length t.nodes in
  check_range "pointer id" id max_ptrs 31;
  Vec.push t.nodes
    { key; pts = Bits.create (); succ = no_ints; out = no_out;
      watch = no_ints; pending = t.empty_pending };
  Inttbl.add t.ptr_ids key id;
  Registry.incr t.c_ptrs;
  id

let intern_ptr t key =
  match Inttbl.find t.ptr_ids key with
  | id -> id
  | exception Not_found -> new_ptr t key

let ptr_var t ~ctx v = intern_ptr t (((ctx * t.n_vars) + v) lsl 2)
let ptr_field t ~obj ~fld = intern_ptr t ((((obj * t.n_fields) + fld) lsl 2) lor 1)
let ptr_arr t ~obj = intern_ptr t ((obj lsl 2) lor 2)
let ptr_static t ~fld = intern_ptr t ((fld lsl 2) lor 3)

let node t p = Vec.get t.nodes p
let pts t p = (node t p).pts

let desc_of_key t key =
  let x = key lsr 2 in
  match key land 3 with
  | 0 -> PVar (x / t.n_vars, x mod t.n_vars)
  | 1 -> PField (x / t.n_fields, x mod t.n_fields)
  | 2 -> PArr x
  | _ -> PStatic x

let ptr_desc t p = desc_of_key t (node t p).key

(** [iter_succs t p f] calls [f dst fc kind] on each PFG out-edge of [p],
    newest first, where [fc] is the edge's filter code ({!filter_code}).
    Edges added meanwhile are not visited. Allocates nothing. *)
let iter_succs t p f =
  let succ = (node t p).succ in
  for i = succ.(0) downto 1 do
    let e = Array.unsafe_get succ i in
    f (edge_dst e) (edge_fc e) (edge_kind e)
  done

let intern_obj t ~hctx ~site : int =
  let o = Context.obj t.env ~hctx ~site in
  if o = Vec.length t.obj_clss then
    Vec.push t.obj_clss
      (match Ir.alloc_class t.prog site with Some c -> c | None -> -1);
  o

let n_objs t = Context.n_objs t.env
let obj_alloc t o = Context.obj_site t.env o

(** Object's runtime class, [-1] for arrays. *)
let obj_cls t o = Vec.get t.obj_clss o

(** The owning method of a pointer: a variable's declaring method, a
    heap pointer's allocating method, none ([-1]) for a static. It is
    also the callee of a return edge out of the pointer. *)
let meth_of_ptr t p : int =
  let key = (node t p).key in
  let x = key lsr 2 in
  match key land 3 with
  | 0 -> (Ir.var t.prog (x mod t.n_vars)).v_method
  | 1 -> (Ir.alloc t.prog (obj_alloc t (x / t.n_fields))).a_method
  | 2 -> (Ir.alloc t.prog (obj_alloc t x)).a_method
  | _ -> -1

let obj_typ t o = Ir.alloc_typ t.prog (obj_alloc t o)

(** The shared filter of casts to [ty]. *)
let cast_filter t (ty : Ir.typ) : filter =
  match Hashtbl.find_opt t.filters ty with
  | Some f -> f
  | None ->
    let id = Vec.length t.filter_ids in
    check_range "filter code" (id + 1) max_filter_codes 29;
    let f = { f_id = id; f_ty = ty; f_pass = Bits.create (); f_upto = 0 } in
    Hashtbl.add t.filters ty f;
    Vec.push t.filter_ids f;
    f

(** An edge's filter as a small int: 0 for none, the filter's id + 1
    otherwise. *)
let filter_code = function None -> 0 | Some f -> f.f_id + 1

let filter_of_code t fc =
  if fc = 0 then None else Some (Vec.get t.filter_ids (fc - 1))

(* [delta] through the filter coded [fc] *)
let filter_delta t fc (delta : Bits.t) : Bits.t =
  if fc = 0 then delta
  else
    let f = Vec.get t.filter_ids (fc - 1) in
    let n = n_objs t in
    for o = f.f_upto to n - 1 do
      (* a class object passes by its class alone; arrays need their type *)
      let c = obj_cls t o in
      let pass =
        if c < 0 then Ir.subtype t.prog (obj_typ t o) f.f_ty
        else
          match f.f_ty with
          | Tclass fc -> Ir.subclass_of t.prog c fc
          | _ -> false
      in
      if pass then ignore (Bits.add f.f_pass o)
    done;
    f.f_upto <- n;
    Bits.inter delta f.f_pass

let arity_ok t (cs : Ir.call_site) callee =
  Array.length (Ir.metho t.prog callee).m_params = Array.length cs.cs_args

(* The implementation a receiver of class [cls] runs at virtual call site
   [cs], -1 if none of the call's arity; memoized per (class, target). *)
let dispatch t (cs : Ir.call_site) cls =
  let key = (cls * t.n_methods) + cs.cs_target in
  let m =
    match Inttbl.find t.dispatch key with
    | m -> m
    | exception Not_found ->
      let m =
        match Ir.dispatch t.prog cls (Ir.metho t.prog cs.cs_target).m_name with
        | Some m -> m
        | None -> -1
      in
      Inttbl.add t.dispatch key m;
      m
  in
  if m >= 0 && arity_ok t cs m then m else -1

(* ------------------------------------------------- coalescing worklist *)

(* pending slot of [n], materializing it from the spare list on first use *)
let pending_slot t n =
  let slot = n.pending in
  if slot != t.empty_pending then slot
  else begin
    let b =
      match t.spare with
      | b :: rest ->
        t.spare <- rest;
        b
      | [] -> Bits.create ()
    in
    n.pending <- b;
    b
  end

let mark_dirty t p =
  if Bits.mem t.dirty p then Registry.incr t.c_wl_coalesced
  else begin
    ignore (Bits.add t.dirty p);
    Queue.push p t.wl
  end

let wl_push t p (objs : Bits.t) =
  if not (Bits.is_empty objs) then begin
    (* fully redundant pushes never enqueue (the fast subset early-exits on
       the first fresh word); keeps repeat receiver seeds off the queue *)
    let n = node t p in
    if not (Bits.subset objs n.pts) then begin
      Registry.incr t.c_wl_pushes;
      Bits.union_quiet ~into:(pending_slot t n) objs;
      mark_dirty t p
    end
  end

(* single-object push: the coalescing table makes this allocation-free *)
let wl_push1 t p o =
  let n = node t p in
  if not (Bits.mem n.pts o) then begin
    Registry.incr t.c_wl_pushes;
    ignore (Bits.add (pending_slot t n) o);
    mark_dirty t p
  end

let via_of_kind = function
  | KNormal -> "flow"
  | KReturn -> "return"
  | KShortcut -> "shortcut"

(* record a flow derivation for every object about to be pushed to [dst];
   a single branch when provenance is off *)
let prov_flow t ~src ~dst kind (objs : Bits.t) =
  match t.prov with
  | None -> ()
  | Some pr ->
    let via = via_of_kind kind in
    Bits.iter (fun o -> Prov.record_flow pr ~ptr:dst ~obj:o ~src ~via) objs

(* a source's out-edge set holds [out_key] of each edge *)
let out_key fc dst = (fc lsl 31) lor dst

(* does one of the edges [succ.(i..len)] lead to [dst] unfiltered or
   through the filter coded [fc]? *)
let rec subsumed succ len dst fc i =
  i <= len
  && (let e = Array.unsafe_get succ i in
      (edge_dst e = dst && (let c = edge_fc e in c = 0 || c = fc))
      || subsumed succ len dst fc (i + 1))

(* [true] iff no out-edge of [n] subsumes a new edge to [dst] with the
   filter coded [fc]; the caller then adds it. An existing edge subsumes
   it when it is unfiltered or has the same filter: a cast edge beside a
   copy edge to the same pointer must not hide the copy. Below
   [scan_limit] edges the source scans [succ]; at the limit it starts a
   set of its own. *)
let fresh_succ n dst fc =
  if n.out != no_out then
    (fc = 0 || not (Inttbl.Set.mem n.out dst))
    && Inttbl.Set.add n.out (out_key fc dst)
  else begin
    let succ = n.succ in
    let len = succ.(0) in
    (not (subsumed succ len dst fc 1))
    && begin
      if len + 1 >= scan_limit then begin
        let out = Inttbl.Set.create scan_limit in
        for i = 1 to len do
          let e = succ.(i) in
          ignore (Inttbl.Set.add out (out_key (edge_fc e) (edge_dst e)))
        done;
        ignore (Inttbl.Set.add out (out_key fc dst));
        n.out <- out
      end;
      true
    end
  end

(* [add_edge] over a filter code; neither allocates *)
let add_edge_fc t ~src ~dst fc kind =
  if src <> dst then begin
    let n = node t src in
    if fresh_succ n dst fc then begin
      let succ = reserve n.succ 1 in
      let len = succ.(0) + 1 in
      succ.(len) <- pack_edge ~dst ~fc kind;
      succ.(0) <- len;
      n.succ <- succ;
      Registry.incr t.c_edges;
      (match (t.attr, kind) with
      | Some a, KShortcut ->
        Attr.observe_shortcut a ~meth:(meth_of_ptr t dst) ~ptr:dst
      | _ -> ());
      t.plugin.pl_on_edge ~src ~dst ~fc kind;
      let cur = n.pts in
      if not (Bits.is_empty cur) then begin
        let d = filter_delta t fc cur in
        prov_flow t ~src ~dst kind d;
        wl_push t dst d
      end
    end
  end

(** Add an edge src->dst to the PFG; existing points-to facts of [src] flow
    immediately. No-op if an edge src->dst exists that is unfiltered or
    has the same filter, whatever its kind. *)
let add_edge ?(kind = KNormal) ?filter t ~src ~dst =
  add_edge_fc t ~src ~dst (filter_code filter) kind

let seed ?(why = "seed") t p (objs : Bits.t) =
  (match t.prov with
  | None -> ()
  | Some pr ->
    Bits.iter (fun o -> Prov.record_seed pr ~ptr:p ~obj:o ~label:why) objs);
  wl_push t p objs

let seed1 ?(why = "seed") t p o =
  (match t.prov with
  | None -> ()
  | Some pr -> Prov.record_seed pr ~ptr:p ~obj:o ~label:why);
  wl_push1 t p o

(* --------------------------------------------------- reachable methods *)

let add_watch t p head payload =
  let n = node t p in
  let w = reserve n.watch 2 in
  let len = w.(0) in
  w.(len + 1) <- head;
  w.(len + 2) <- payload;
  w.(0) <- len + 2;
  n.watch <- w

let rec add_reachable t ~ctx ~(mid : Ir.method_id) =
  if Inttbl.Set.add t.reached ((ctx * t.n_methods) + mid) then begin
    Registry.incr t.c_reach_ctx;
    (* context-explosion cascades can spend a long time inside one worklist
       iteration; keep the budget honest here too *)
    if Registry.value t.c_reach_ctx land 255 = 0 then Timer.check t.budget;
    if Bits.add t.reached_methods mid then t.plugin.pl_on_reachable mid;
    let m = Ir.metho t.prog mid in
    Ir.iter_stmts (process_stmt t ~ctx) m.m_body
  end

and process_stmt t ~ctx (s : Ir.stmt) =
  let pv v = ptr_var t ~ctx v in
  match s with
  | New { lhs; site; _ } | NewArray { lhs; site; _ } | StrConst { lhs; site; _ }
    ->
    let hctx = t.sel.sel_heap_ctx t.env ~mctx:ctx ~site in
    let o = intern_obj t ~hctx ~site in
    seed1 ~why:"alloc" t (pv lhs) o
  | Copy { lhs; rhs } ->
    if Ir.is_ref_type (Ir.var t.prog rhs).v_ty || Ir.is_ref_type (Ir.var t.prog lhs).v_ty
    then add_edge t ~src:(pv rhs) ~dst:(pv lhs)
  | Cast { lhs; ty; rhs; _ } ->
    add_edge ~filter:(cast_filter t ty) t ~src:(pv rhs) ~dst:(pv lhs)
  | Load { lhs; base; fld } ->
    watch t (pv base) (watch_head ~ctx WLoad) (pack_pair lhs fld)
  | Store { base; fld; rhs } ->
    if not (t.plugin.pl_is_cut_store ~base ~rhs) then
      watch t (pv base) (watch_head ~ctx WStore) (pack_pair fld rhs)
  | ALoad { lhs; arr; _ } -> watch t (pv arr) (watch_head ~ctx WALoad) lhs
  | AStore { arr; rhs; _ } -> watch t (pv arr) (watch_head ~ctx WAStore) rhs
  | SLoad { lhs; fld } ->
    if Ir.is_ref_type (Ir.field t.prog fld).f_ty then
      add_edge t ~src:(ptr_static t ~fld) ~dst:(pv lhs)
  | SStore { fld; rhs } ->
    if Ir.is_ref_type (Ir.field t.prog fld).f_ty then
      add_edge t ~src:(pv rhs) ~dst:(ptr_static t ~fld)
  | Invoke { kind = Static; target; site; _ } ->
    let cctx =
      t.sel.sel_callee_ctx t.env ~caller_ctx:ctx ~site ~recv:(-1)
        ~callee:target
    in
    add_call_edge t ~caller_ctx:ctx ~site ~callee_ctx:cctx ~callee:target
  | Invoke { kind = Virtual | Special; recv; site; _ } -> (
    match recv with
    | Some r -> watch t (pv r) (watch_head ~ctx WInvoke) site
    | None -> ())
  | Return _ | If _ | While _ | Print _ | Nop | ConstInt _ | ConstBool _
  | ConstNull _ | Binop _ | Unop _ | ALen _ | InstanceOf _ ->
    ()

(* a statement watches the pointer [p] from now on, and sees what [p]
   already points to *)
and watch t p head payload =
  add_watch t p head payload;
  fire_watch t head payload (pts t p)

(* The statement's own variable is interned at the first object that
   needs it: before that object's field or array pointer when it is the
   edge's destination, after it when it is the source. Pointers are thus
   numbered as if each object's [add_edge] interned both of its ends,
   arguments right to left. *)
and fire_watch t head payload (delta : Bits.t) =
  if not (Bits.is_empty delta) then
    let ctx = head_ctx head in
    match head_watch head with
    | WLoad ->
      let lhs = pair_fst payload and fld = pair_snd payload in
      let dst = ref (-1) in
      Bits.iter
        (fun o ->
          if obj_cls t o >= 0 then begin
            if !dst < 0 then dst := ptr_var t ~ctx lhs;
            add_edge_fc t ~src:(ptr_field t ~obj:o ~fld) ~dst:!dst 0 KNormal
          end)
        delta
    | WStore ->
      let fld = pair_fst payload and rhs = pair_snd payload in
      let src = ref (-1) in
      Bits.iter
        (fun o ->
          if obj_cls t o >= 0 then begin
            let dst = ptr_field t ~obj:o ~fld in
            if !src < 0 then src := ptr_var t ~ctx rhs;
            add_edge_fc t ~src:!src ~dst 0 KNormal
          end)
        delta
    | WALoad ->
      let dst = ref (-1) in
      Bits.iter
        (fun o ->
          if obj_cls t o < 0 then begin
            if !dst < 0 then dst := ptr_var t ~ctx payload;
            add_edge_fc t ~src:(ptr_arr t ~obj:o) ~dst:!dst 0 KNormal
          end)
        delta
    | WAStore ->
      let src = ref (-1) in
      Bits.iter
        (fun o ->
          if obj_cls t o < 0 then begin
            let dst = ptr_arr t ~obj:o in
            if !src < 0 then src := ptr_var t ~ctx payload;
            add_edge_fc t ~src:!src ~dst 0 KNormal
          end)
        delta
    | WInvoke ->
      let site = payload in
      let cs = Ir.call t.prog site in
      (* a receiver resolving to the previous one's (callee, callee
         context) finds that call edge in place: it only seeds [this] *)
      let last_callee = ref (-1) and last_cctx = ref (-1) in
      let this_ptr = ref (-1) in
      Bits.iter
        (fun o ->
          let callee =
            match cs.cs_kind with
            | Special -> if arity_ok t cs cs.cs_target then cs.cs_target else -1
            | Static -> -1 (* unreachable: statics have no receiver watch *)
            | Virtual ->
              let cls = obj_cls t o in
              if cls < 0 then -1 else dispatch t cs cls
          in
          if callee >= 0 then begin
            let cctx =
              t.sel.sel_callee_ctx t.env ~caller_ctx:ctx ~site ~recv:o ~callee
            in
            if callee <> !last_callee || cctx <> !last_cctx then begin
              add_call_edge t ~caller_ctx:ctx ~site ~callee_ctx:cctx ~callee;
              last_callee := callee;
              last_cctx := cctx;
              this_ptr :=
                match (Ir.metho t.prog callee).m_this with
                | Some this -> ptr_var t ~ctx:cctx this
                | None -> -1
            end;
            (* the receiver flows to [this] even on a repeat edge *)
            if !this_ptr >= 0 then seed1 ~why:"receiver" t !this_ptr o
          end)
        delta

and add_call_edge t ~caller_ctx ~site ~callee_ctx ~callee =
  let sc = (site * t.n_methods) + callee in
  let cc = (caller_ctx lsl 31) lor callee_ctx in
  let ctx_tbl =
    match Inttbl.find t.call_edges sc with
    | tbl -> tbl
    | exception Not_found ->
      let tbl = Inttbl.Set.create 4 in
      Inttbl.add t.call_edges sc tbl;
      tbl
  in
  if Inttbl.Set.add ctx_tbl cc then begin
    Registry.incr t.c_call_edges;
    if not (Hashtbl.mem t.call_edges_proj sc) then begin
      Hashtbl.add t.call_edges_proj sc ();
      t.plugin.pl_on_call_edge site callee
    end;
    add_reachable t ~ctx:callee_ctx ~mid:callee;
    let cs = Ir.call t.prog site in
    let m = Ir.metho t.prog callee in
    (* arguments *)
    Array.iteri
      (fun i arg ->
        if Ir.is_ref_type (Ir.var t.prog arg).v_ty then
          add_edge t
            ~src:(ptr_var t ~ctx:caller_ctx arg)
            ~dst:(ptr_var t ~ctx:callee_ctx m.m_params.(i)))
      cs.cs_args;
    (* return edge, unless cut *)
    (match (cs.cs_lhs, m.m_ret_var) with
    | Some lhs, Some rv when Ir.is_ref_type (Ir.var t.prog rv).v_ty ->
      if not (t.plugin.pl_is_cut_return callee) then
        add_edge ~kind:KReturn t
          ~src:(ptr_var t ~ctx:callee_ctx rv)
          ~dst:(ptr_var t ~ctx:caller_ctx lhs)
    | _ -> ())
  end

(* ------------------------------------------------------------ main loop *)

let sample_heap t =
  let st = Gc.quick_stat () in
  Registry.set_max t.g_heap (float_of_int st.Gc.heap_words);
  Trace.sample_gc ();
  (* solver counter series merged into the span stream ([--trace]); a single
     branch inside Trace when tracing is off *)
  Trace.counter "solver"
    [
      ("ptrs", float_of_int (Registry.value t.c_ptrs));
      ("pfg_edges", float_of_int (Registry.value t.c_edges));
      ("propagated", float_of_int (Registry.value t.c_prop));
      ("ctx_methods", float_of_int (Registry.value t.c_reach_ctx));
    ]

(* Heap words of a stdlib [Hashtbl]: its record, its bucket array and
   one cons block per binding *)
let hashtbl_words h =
  let st = Hashtbl.stats h in
  5 + (st.Hashtbl.num_buckets + 1) + (4 * st.Hashtbl.num_bindings)

(* The solver's memory ledger, one pass when a solve stops: heap words of
   the points-to sets; of the pending deltas with the spare buffers they
   recycle through; of the edge vectors with their out-edge sets; of the
   watch vectors; of the node vector and records; of the pointer table;
   and of the call-edge tables. Counted from the blocks' sizes, so
   deterministic. *)
let measure_sets t =
  let pts = ref 0 and pending = ref 0 and edges = ref 0 and watches = ref 0 in
  Vec.iter
    (fun n ->
      pts := !pts + Bits.footprint n.pts;
      if n.pending != t.empty_pending then
        pending := !pending + Bits.footprint n.pending;
      edges := !edges + ints_words n.succ;
      if n.out != no_out then edges := !edges + Inttbl.Set.words n.out;
      watches := !watches + ints_words n.watch)
    t.nodes;
  List.iter (fun b -> pending := !pending + Bits.footprint b) t.spare;
  let call_edges =
    ref (Inttbl.words t.call_edges + hashtbl_words t.call_edges_proj)
  in
  Inttbl.iter
    (fun _ s -> call_edges := !call_edges + Inttbl.Set.words s)
    t.call_edges;
  let set g n = Registry.set g (float_of_int n) in
  set t.g_pts_words !pts;
  set t.g_pending_words !pending;
  set t.g_edge_words !edges;
  set t.g_watch_words !watches;
  (* a node record is six fields and a header *)
  set t.g_node_words (Vec.words t.nodes + (7 * Vec.length t.nodes));
  set t.g_ptr_table_words (Inttbl.words t.ptr_ids);
  set t.g_call_edge_words !call_edges

(* [--progress] heartbeat: one stderr line per interval, cheap enough to
   check from the 255-iteration cadence *)
let maybe_progress t ~t0 ~iter =
  let now = Timer.now () in
  if now -. t.last_progress >= t.progress_s then begin
    t.last_progress <- now;
    Fmt.epr
      "[progress] %s+%s %.1fs: %d iters, %d ptrs, %d pfg-edges, %d propagated, %d ctx-methods, wl=%d@."
      t.sel.sel_name t.plugin.pl_name (now -. t0) iter
      (Registry.value t.c_ptrs) (Registry.value t.c_edges)
      (Registry.value t.c_prop)
      (Registry.value t.c_reach_ctx)
      (Queue.length t.wl)
  end

let run_loop (t : t) : unit =
  let t0 = Timer.now () in
  let stop () =
    Registry.set t.g_time (Timer.now () -. t0);
    sample_heap t;
    measure_sets t
  in
  let iter = ref 0 in
  (try
     Timer.check t.budget;
     add_reachable t ~ctx:Context.empty ~mid:t.prog.main;
     while not (Queue.is_empty t.wl) do
       incr iter;
       if !iter land 255 = 0 then begin
         Timer.check t.budget;
         if t.progress_s > 0. then maybe_progress t ~t0 ~iter:!iter;
         if !iter land 4095 = 0 then sample_heap t
       end;
       let p = Queue.pop t.wl in
       Bits.remove t.dirty p;
       let n = node t p in
       let objs = n.pending in
       n.pending <- t.empty_pending;
       (match Bits.union_into ~into:n.pts objs with
       | None -> ()
       | Some delta ->
         let dn = Bits.cardinal delta in
         Registry.incr ~by:dn t.c_prop;
         (match t.attr with
         | None -> ()
         | Some a -> Attr.observe_pop a ~meth:(meth_of_ptr t p) ~ptr:p ~delta:dn);
         (* flow along PFG edges, newest first *)
         let succ = n.succ in
         for i = succ.(0) downto 1 do
           let e = Array.unsafe_get succ i in
           let dst = edge_dst e in
           let d = filter_delta t (edge_fc e) delta in
           prov_flow t ~src:p ~dst (edge_kind e) d;
           wl_push t dst d
         done;
         (* statement watches, newest first; a watch added meanwhile has
            already seen the whole set *)
         let w = n.watch in
         let i = ref w.(0) in
         while !i > 0 do
           fire_watch t (Array.unsafe_get w (!i - 1)) (Array.unsafe_get w !i)
             delta;
           i := !i - 2
         done;
         t.plugin.pl_on_new_pts p delta);
       Bits.clear objs;
       t.spare <- objs :: t.spare
     done
   with Timer.Out_of_budget ->
     stop ();
     raise Timeout);
  stop ()

(* Profiled runs time each plugin hook into an attribution rule row named
   after the plugin and the hook ("csc:on_new_pts", ...). Times are
   inclusive: [on_new_pts] adds edges, and their [on_edge] runs inside it.
   Unprofiled runs keep the plugin as given, so they pay nothing. *)
let timed_plugin a (p : plugin) : plugin =
  let timed hook =
    let r = Attr.rule a (p.pl_name ^ ":" ^ hook) in
    fun f ->
      let t0 = Timer.now () in
      f ();
      Attr.rule_fire r;
      Attr.rule_time r (Timer.now () -. t0)
  in
  let reachable = timed "on_reachable" and call_edge = timed "on_call_edge"
  and new_pts = timed "on_new_pts" and on_edge = timed "on_edge" in
  {
    p with
    pl_on_reachable = (fun m -> reachable (fun () -> p.pl_on_reachable m));
    pl_on_call_edge =
      (fun site callee -> call_edge (fun () -> p.pl_on_call_edge site callee));
    pl_on_new_pts = (fun ptr d -> new_pts (fun () -> p.pl_on_new_pts ptr d));
    pl_on_edge =
      (fun ~src ~dst ~fc kind ->
        on_edge (fun () -> p.pl_on_edge ~src ~dst ~fc kind));
  }

let run (t : t) : unit =
  (match t.attr with
  | None -> ()
  | Some a ->
    if t.plugin != no_plugin then t.plugin <- timed_plugin a t.plugin);
  Trace.with_span ~cat:"solver"
    ("solve:" ^ t.sel.sel_name ^ "+" ^ t.plugin.pl_name)
    (fun () -> run_loop t)

(* --------------------------------------------------------------- results *)

(** Context-projected analysis results, shared with the Datalog engine so the
    precision clients are engine-agnostic. *)
type result = {
  r_name : string;
  r_time : float;
  r_reach : Bits.t;                               (** reachable methods *)
  r_edges : (Ir.call_id * Ir.method_id) list;     (** projected call edges *)
  r_pt : Ir.var_id -> Bits.t;
      (** var -> alloc sites; the imperative engine projects a variable on
          its first read and memoizes it *)
  r_snapshot : Snapshot.t;                        (** structured engine metrics *)
}

(** Freeze the engine metrics; callable at any time, including after a
    {!Timeout} (the driver attaches the aborted-state snapshot to timed-out
    outcomes). *)
let snapshot (t : t) : Snapshot.t =
  let s = Registry.snapshot t.reg in
  match t.prov with
  | None -> s
  | Some pr ->
    let s = Snapshot.with_counter s "prov_records" (Prov.size pr) in
    Snapshot.with_counter s "prov_dropped" (Prov.dropped pr)

(** The engine-agnostic result of a finished solve. Points-to sets are
    projected onto allocation sites when a variable is first read, so a
    client that reads a few variables pays for those alone; a caller that
    measures the result's residency reads every variable first. Until
    then unread variables share the solver's sets, so the solver must not
    run again. *)
let result (t : t) : result =
  (* Until a variable is first read, its slot holds its points-to set in
     object ids: the solver's own set when the variable has one pointer
     (every variable under ci and csc), a word-level union of its
     pointers' sets when it is split across contexts. The first read maps
     the slot through the site vector, memoizes the image and drops the
     source; once no variable is left unread the site vector goes too.
     The closure reaches those sets and the site vector, not the solver.
     Variables that point to nothing share [empty]. *)
  let empty = Bits.create () in
  let n = Array.length t.prog.vars in
  let var_pt = Array.make n empty in
  let unread = Bits.create ~capacity:n () in
  let merged = Bits.create ~capacity:n () in
  Vec.iter
    (fun nd ->
      let pt = nd.pts in
      if nd.key land 3 = 0 && not (Bits.is_empty pt) then begin
        let v = (nd.key lsr 2) mod t.n_vars in
        if var_pt.(v) == empty then begin
          var_pt.(v) <- pt;
          ignore (Bits.add unread v)
        end
        else begin
          if Bits.add merged v then var_pt.(v) <- Bits.copy var_pt.(v);
          Bits.union_quiet ~into:var_pt.(v) pt
        end
      end)
    t.nodes;
  let sites =
    ref (if Bits.is_empty unread then [||] else Context.obj_sites t.env)
  in
  let r_pt v =
    if v < 0 || v >= n then empty
    else if Bits.mem unread v then begin
      let img = Bits.create () in
      Bits.add_image ~into:img !sites var_pt.(v);
      var_pt.(v) <- img;
      Bits.remove unread v;
      if Bits.is_empty unread then sites := [||];
      img
    end
    else var_pt.(v)
  in
  {
    r_name =
      (if t.plugin.pl_name = "none" then t.sel.sel_name
       else t.sel.sel_name ^ "+" ^ t.plugin.pl_name);
    r_time = Registry.gauge_value t.g_time;
    r_reach = Bits.copy t.reached_methods;
    r_edges =
      Hashtbl.fold
        (fun sc () acc -> (sc / t.n_methods, sc mod t.n_methods) :: acc)
        t.call_edges_proj [];
    r_pt;
    r_snapshot = snapshot t;
  }

(* ------------------------------------------------------- explain helpers *)

let iter_ptrs t f = Vec.iteri (fun p n -> f p (desc_of_key t n.key)) t.nodes

let ptr_to_string t p =
  match ptr_desc t p with
  | PVar (ctx, v) ->
    let vr = Ir.var t.prog v in
    let m = Ir.method_name t.prog vr.v_method in
    if ctx = Context.empty then Printf.sprintf "%s.%s" m vr.v_name
    else Printf.sprintf "%s.%s@ctx%d" m vr.v_name ctx
  | PField (o, fld) ->
    Printf.sprintf "obj#%d.%s" o (Ir.field t.prog fld).f_name
  | PArr o -> Printf.sprintf "obj#%d[*]" o
  | PStatic fld ->
    let f = Ir.field t.prog fld in
    Printf.sprintf "%s.%s" (Ir.class_name t.prog f.f_class) f.f_name

let obj_to_string t o =
  let site = obj_alloc t o in
  let a = Ir.alloc t.prog site in
  Fmt.str "obj#%d(new %a in %s)" o (Ir.pp_typ t.prog)
    (Ir.alloc_typ t.prog site)
    (Ir.method_name t.prog a.a_method)

(** Render the derivation chain of [(ptr, obj)], one step per line, ending in
    the seed event that introduced the object. Empty when provenance was not
    enabled or the fact does not hold. *)
let explain_chain t ~ptr ~obj : string list =
  match t.prov with
  | None -> []
  | Some pr ->
    List.map
      (fun (p, r) ->
        match r with
        | Prov.Seed { label } ->
          Printf.sprintf "%s <- %s  [%s]" (ptr_to_string t p)
            (obj_to_string t obj) label
        | Prov.Flow { src; via } ->
          Printf.sprintf "%s <- %s  [%s]" (ptr_to_string t p)
            (ptr_to_string t src) via)
      (Prov.chain pr ~ptr ~obj)

(** Rendered cost-attribution profile ([None] unless {!enable_attr} preceded
    the run). Ids resolve through {!Ir.method_name} / {!ptr_to_string}, so
    the result is deterministic for a deterministic run. *)
let profile ?top (t : t) : Attr.profile option =
  match t.attr with
  | None -> None
  | Some a ->
    Some
      (Attr.render ?top a ~engine:"imperative"
         ~meth_name:(fun m ->
           if m < 0 then "<static>" else Ir.method_name t.prog m)
         ~ptr_name:(ptr_to_string t))

(** Run an analysis end to end. Raises {!Timeout} if the budget expires. *)
let analyze ?budget ?sel ?plugin_of (prog : Ir.program) : t =
  let t = create ?budget ?sel prog in
  (match plugin_of with Some f -> set_plugin t (f t) | None -> ());
  run t;
  t
