(** The Cut-Shortcut analysis (the paper's contribution, §3–§4).

    Implemented as a {!Csc_pta.Solver.plugin} over the context-insensitive
    solver: the solver consults [pl_is_cut_store]/[pl_is_cut_return] *before*
    adding PFG edges (so cut edges are never added, as §3.1 requires), and the
    plugin reacts to points-to deltas, new call edges and new PFG edges by
    adding shortcut edges ([E_SC]).

    Pattern machinery, rule by rule:
    - Field stores (Fig. 8): [cutStores] = stores whose base and rhs are
      never-redefined parameters (decided statically); [tempStores] becomes
      per-method (k_base, field, k_rhs) triples propagated caller-wards along
      discovered call edges ([PropStore]); when propagation stops,
      subscriptions on the base argument's points-to set emit
      [from -> o.f] shortcut edges ([ShortcutStore]).
    - Field loads (Fig. 9): [cutReturns] is pre-approximated by the CHA
      closure of {!Static.load_info} (over-cutting is sound thanks to
      [RelayEdge]); [tempLoads] propagate along call edges; subscriptions
      emit [o.f -> lhs] shortcuts ([ShortcutLoad]); every in-edge of a cut
      return variable that is not classified as a returnLoadEdge — including
      allocations directly into it — is relayed to the call-site LHS
      ([RelayEdge]).
    - Containers (Fig. 10): Exit methods' returns are cut ([CutContainer]);
      the pointer-host map [pt_H] is propagated along PFG edges except
      Transfer-return edges ([ColHost]/[MapHost]/[TransferHost]/[PropHost]);
      matching Source/Target pairs per (host, category) yield shortcuts
      ([HostSource]/[HostTarget]/[ShortcutContainer]).
    - Local flow (Fig. 11): methods whose return values all come from
      parameters are cut ([CutLFlow]) and each call site gets
      [arg_k -> lhs] shortcuts ([ShortcutLFlow]). *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Context = Csc_pta.Context
module Registry = Csc_obs.Registry
module Attr = Csc_obs.Attr

type config = {
  field_pattern : bool;
  container_pattern : bool;
  local_flow : bool;
}

let default_config =
  { field_pattern = true; container_pattern = true; local_flow = true }

let config_name cfg =
  match (cfg.field_pattern, cfg.container_pattern, cfg.local_flow) with
  | true, true, true -> "csc"
  | true, false, false -> "csc-field"
  | false, true, false -> "csc-container"
  | false, false, true -> "csc-localflow"
  | f, c, l -> Printf.sprintf "csc-%b-%b-%b" f c l

(* Lists by int key, newest first (emission order). [callers] and
   [retload_pats] are bare lists; the others are [keyed]: beside the
   lists, the set of membership ids they hold, so that [push] prepends an
   item only when its id is new. An id packs the key with the item. *)
let find_list tbl key =
  match Inttbl.find tbl key with l -> l | exception Not_found -> []

let cons tbl key x = Inttbl.replace tbl key (x :: find_list tbl key)

type 'a keyed = { lists : 'a list Inttbl.t; ids : Inttbl.Set.t }

let keyed n = { lists = Inttbl.create n; ids = Inttbl.Set.create n }
let items k key = find_list k.lists key

let push k key ~id x =
  Inttbl.Set.add k.ids id
  && begin
    cons k.lists key x;
    true
  end

(* subscriptions fired when pt(base ptr) grows *)
type sub =
  | Sub_store of { fld : Ir.field_id; from_ptr : int }
      (** ShortcutStore: from_ptr -> o.fld for o in pt(base) *)
  | Sub_load of { fld : Ir.field_id; to_ptr : int; tag : bool }
      (** ShortcutLoad: o.fld -> to_ptr for o in pt(base); [tag] marks the
          emitted edges as returnLoadEdges (exempt from relaying) *)

(* container roles attached to a receiver pointer, applied to each host *)
type role =
  | R_entrance of { arg_ptr : int; cat : Spec.category }
  | R_exit of { lhs_ptr : int; cat : Spec.category }
  | R_transfer of { lhs_ptr : int }

(* A pattern's shortcut counter and its profiler row ["csc:<pattern>"],
   whose handle is looked up at the pattern's first shortcut in a
   profiled run (an eager lookup would add rows for patterns that never
   fire) *)
type pattern = {
  p_count : Registry.counter;
  p_row : string;
  mutable p_rule : Attr.rule option;
}

type t = {
  solver : Solver.t;
  prog : Ir.program;
  cfg : config;
  spec : Spec.t;
  n_fields : int;  (* key-packing radices *)
  n_ks : int;      (* parameter positions: 0 (this) to the most params *)
  (* ---- static cut sets ---- *)
  li : Static.load_info;
  cut_load : Bits.t;  (* li_cut minus container exits/transfers *)
  cut_lflow : Bits.t;
  lflow_srcs : int list Inttbl.t;  (* method -> source parameter indices *)
  (* ---- objects, sorted once as the solver interns them ---- *)
  mutable n_sorted : int;  (* objects [0, n_sorted) are sorted *)
  host_objs : Bits.t;      (* instances of host classes *)
  (* ---- field pattern dynamic state ---- *)
  store_pats : (int * Ir.field_id * int) keyed;  (* by method, [store_key] *)
  load_pats : (int * Ir.field_id) keyed;         (* by method, [load_key] *)
  callers : Ir.call_id list Inttbl.t;            (* by method *)
  subs : sub keyed;  (* by base ptr, [pair_key] of base ptr and sub *)
  pair_ids : int Inttbl.t;  (* packed sub, role or relay edge -> dense id *)
  (* returnLoadEdges classification *)
  retload_pats : (int * Ir.field_id) list Inttbl.t;
      (* cut ret-var ptr -> (base ptr, field): in-method load edges *)
  tagged : Inttbl.Set.t;
      (* plugin-added returnLoad edges, (src lsl 31) lor dst *)
  (* [RelayEdge], by cut-load method m: in-edges (src, filter) of m_ret,
     call-site LHS ptrs, and objects allocated directly into m_ret *)
  relay_in : (int * Solver.filter option) keyed;
  relay_lhs : int keyed;
  relay_seeds : Bits.t Inttbl.t;
  ret_ptr_owner : Ir.method_id Inttbl.t;  (* m_ret ptr -> cut-load m *)
  ret_ptrs : Bits.t;  (* the keys of [ret_ptr_owner], tested first *)
  (* ---- container pattern dynamic state ---- *)
  pt_h : Bits.t Vec.t;  (* ptr -> host objects; [no_hosts] until the first *)
  no_hosts : Bits.t;    (* shared empty sentinel, compared physically *)
  roles : role keyed;  (* by receiver ptr, [pair_key] of it and the role *)
  (* Source/Target pointers by [host_cat], ids (host_cat lsl 31) lor ptr *)
  sources : int keyed;
  targets : int keyed;
  (* ---- statistics ---- *)
  involved : Bits.t;  (* methods touched by cuts and propagated patterns *)
  sc_ends : Bits.t;   (* endpoint pointers of shortcut edges *)
  (* per-pattern counters in the solver's registry: which pattern fired *)
  sc_store : pattern;
  sc_load : pattern;
  sc_relay : pattern;
  sc_container : pattern;
  sc_lflow : pattern;
  c_cut_stores : Registry.counter;
  c_cut_ret_load : Registry.counter;
  c_cut_ret_lflow : Registry.counter;
  c_cut_ret_exit : Registry.counter;
}

(* ----------------------------------------------------------- small utils *)

let ptr_var t v = Solver.ptr_var t.solver ~ctx:Context.empty v

(* One int for the pair ([a], [b]) whatever [b]'s range: [b] is interned
   to a dense id first, [a] is a pointer or method id. *)
let pair_key t a b =
  let id =
    match Inttbl.find t.pair_ids b with
    | id -> id
    | exception Not_found ->
      let id = Inttbl.length t.pair_ids in
      Inttbl.add t.pair_ids b id;
      id
  in
  (a lsl 31) lor id

let sub_code t = function
  | Sub_store { fld; from_ptr } -> ((from_ptr * t.n_fields) + fld) lsl 2
  | Sub_load { fld; to_ptr; tag } ->
    (((to_ptr * t.n_fields) + fld) lsl 2) lor if tag then 2 else 1

let role_code = function
  | R_entrance { arg_ptr; cat } -> (arg_ptr lsl 3) lor Spec.category_code cat
  | R_exit { lhs_ptr; cat } -> (lhs_ptr lsl 3) lor (3 + Spec.category_code cat)
  | R_transfer { lhs_ptr } -> (lhs_ptr lsl 3) lor 6

(* pattern ids: method, field and parameter positions *)
let store_key t m (k1, fld, k2) =
  (((((m * t.n_fields) + fld) * t.n_ks) + k1) * t.n_ks) + k2

let load_key t m (k, fld) = (((m * t.n_fields) + fld) * t.n_ks) + k

(** Parameter variable of [m] at position [k] (0 = this). *)
let param_at (m : Ir.metho) k : Ir.var_id option =
  if k = 0 then m.m_this
  else if k <= Array.length m.m_params then Some m.m_params.(k - 1)
  else None

(* sort the objects the solver interned since the last call *)
let sort_objs t =
  let n = Solver.n_objs t.solver in
  for o = t.n_sorted to n - 1 do
    let c = Solver.obj_cls t.solver o in
    if c >= 0 && Spec.is_host_class t.spec c then
      ignore (Bits.add t.host_objs o)
  done;
  t.n_sorted <- n

(** Fault-injection hook for the soundness fuzzer: when set, store-pattern
    shortcut edges are silently dropped while the matching cuts still apply —
    a deliberate unsoundness the fuzzer must catch and minimize. Never set
    outside tests and the hidden [fuzz --inject-unsound] flag. *)
let sabotage_drop_shortcuts = ref false

(** Add a shortcut edge (E_SC) emitted by pattern [pat]. *)
let shortcut ?filter t pat ~src ~dst =
  if src <> dst && not (!sabotage_drop_shortcuts && pat == t.sc_store) then begin
    Registry.incr pat.p_count;
    (match Solver.attr t.solver with
    | None -> ()
    | Some a ->
      let r =
        match pat.p_rule with
        | Some r -> r
        | None ->
          let r = Attr.rule a pat.p_row in
          pat.p_rule <- Some r;
          r
      in
      Attr.rule_fire r);
    ignore (Bits.add t.sc_ends src);
    ignore (Bits.add t.sc_ends dst);
    Solver.add_edge ~kind:Solver.KShortcut ?filter t.solver ~src ~dst
  end

(* -------------------------------------------------- field store pattern *)

(* Fire one store pattern of [callee] at one of its call sites
   ([PropStore] / [ShortcutStore]). *)
let rec apply_store_pattern t (site : Ir.call_id) (k1, fld, k2) =
  let cs = Ir.call t.prog site in
  match (Static.arg_at t.prog cs k1, Static.arg_at t.prog cs k2) with
  | Some base_v, Some from_v -> (
    match (Static.param_index t.prog base_v, Static.param_index t.prog from_v) with
    | Some k1', Some k2' ->
      (* both args are never-redefined parameters of the caller: propagate
         the temp store one level up *)
      add_store_pattern t cs.cs_method (k1', fld, k2')
    | _ ->
      (* propagation stops: emit shortcuts from the rhs argument to the
         fields of everything the base argument points to, now and later *)
      add_sub t (ptr_var t base_v)
        (Sub_store { fld; from_ptr = ptr_var t from_v }))
  | _ -> ()

and add_store_pattern t (m : Ir.method_id) pat =
  if push t.store_pats m ~id:(store_key t m pat) pat then begin
    ignore (Bits.add t.involved m);
    List.iter
      (fun site -> apply_store_pattern t site pat)
      (find_list t.callers m)
  end

(* ---------------------------------------------------- field load pattern *)

and apply_load_pattern t (site : Ir.call_id) (k, fld) =
  let cs = Ir.call t.prog site in
  match (cs.cs_lhs, Static.arg_at t.prog cs k) with
  | Some lhs, Some base_v ->
    let lhs_ptr = ptr_var t lhs in
    let base_ptr = ptr_var t base_v in
    (* ShortcutLoad subscription; its edges are returnLoadEdges only when
       the classification is unambiguous for this site *)
    let tag = Hashtbl.mem t.li.Static.li_site_ok (site, fld) in
    add_sub t base_ptr (Sub_load { fld; to_ptr = lhs_ptr; tag });
    (* CutPropLoad: propagate the temp load if lhs is the caller's return
       variable and the base argument a never-redefined parameter *)
    let caller = Ir.metho t.prog cs.cs_method in
    (match (caller.m_ret_var, Static.param_index t.prog base_v) with
    | Some rv, Some k' when rv = lhs -> add_load_pattern t cs.cs_method (k', fld)
    | _ -> ())
  | _ -> ()

and add_load_pattern t (m : Ir.method_id) pat =
  if push t.load_pats m ~id:(load_key t m pat) pat then begin
    ignore (Bits.add t.involved m);
    List.iter
      (fun site -> apply_load_pattern t site pat)
      (find_list t.callers m)
  end

(* ---------------------------------------------------------- subscriptions *)

and add_sub t (base_ptr : int) (s : sub) =
  if push t.subs base_ptr ~id:(pair_key t base_ptr (sub_code t s)) s then
    fire_sub t s (Solver.pts t.solver base_ptr)

(* arrays have no fields: their class is [-1] *)
and fire_sub t (s : sub) (objs : Bits.t) =
  Bits.iter
    (fun o ->
      if Solver.obj_cls t.solver o >= 0 then
        match s with
        | Sub_store { fld; from_ptr } ->
          shortcut t t.sc_store ~src:from_ptr
            ~dst:(Solver.ptr_field t.solver ~obj:o ~fld)
        | Sub_load { fld; to_ptr; tag } ->
          let src = Solver.ptr_field t.solver ~obj:o ~fld in
          if tag then
            ignore (Inttbl.Set.add t.tagged ((src lsl 31) lor to_ptr));
          shortcut t t.sc_load ~src ~dst:to_ptr)
    objs

(* ------------------------------------------------------------------ relay *)

(* [RelayEdge]: in-edges of a cut return variable that are not
   returnLoadEdges are forwarded to every call-site LHS; objects allocated
   directly into the return variable are forwarded as seeds. *)

let relay_in_edge t (m : Ir.method_id) ~(src : int) ~(fc : int) =
  let id = pair_key t m ((src lsl 31) lor fc) in
  let filter = Solver.filter_of_code t.solver fc in
  if push t.relay_in m ~id (src, filter) then
    List.iter
      (fun lhs -> shortcut ?filter t t.sc_relay ~src ~dst:lhs)
      (items t.relay_lhs m)

let relay_call_site t (m : Ir.method_id) (lhs_ptr : int) =
  if push t.relay_lhs m ~id:((m lsl 31) lor lhs_ptr) lhs_ptr then begin
    List.iter
      (fun (src, filter) -> shortcut ?filter t t.sc_relay ~src ~dst:lhs_ptr)
      (items t.relay_in m);
    match Inttbl.find_opt t.relay_seeds m with
    | Some seeds -> Solver.seed ~why:"relay" t.solver lhs_ptr (Bits.copy seeds)
    | None -> ()
  end

let relay_seed t (m : Ir.method_id) (o : int) =
  let seeds =
    match Inttbl.find t.relay_seeds m with
    | b -> b
    | exception Not_found ->
      let b = Bits.create () in
      Inttbl.add t.relay_seeds m b;
      b
  in
  if Bits.add seeds o then
    List.iter
      (fun lhs -> Solver.seed1 ~why:"relay" t.solver lhs o)
      (items t.relay_lhs m)

(* ------------------------------------------------------ container pattern *)

(* host objects of [ptr]; the shared empty sentinel if it has none yet *)
let pt_h_of t ptr = Vec.get_or t.pt_h ptr

(* [ptr]'s own host set, materialized for writing *)
let pt_h_slot t ptr =
  let b = Vec.get_or t.pt_h ptr in
  if b != t.no_hosts then b
  else begin
    let b = Bits.create () in
    Vec.set_grow t.pt_h ptr b;
    b
  end

let host_cat host cat = (host lsl 2) lor Spec.category_code cat

(* Is an edge of [kind] out of [src] a return edge of a transfer method?
   A return edge's callee is the method of its source. *)
let transfer_return t src (kind : Solver.edge_kind) =
  match kind with
  | KReturn -> Spec.is_transfer t.spec (Solver.meth_of_ptr t.solver src)
  | KNormal | KShortcut -> false

let rec add_source t host cat (src_ptr : int) =
  let hc = host_cat host cat in
  if push t.sources hc ~id:((hc lsl 31) lor src_ptr) src_ptr then
    List.iter
      (fun tgt -> shortcut t t.sc_container ~src:src_ptr ~dst:tgt)
      (items t.targets hc)

and add_target t host cat (tgt_ptr : int) =
  let hc = host_cat host cat in
  if push t.targets hc ~id:((hc lsl 31) lor tgt_ptr) tgt_ptr then
    List.iter
      (fun src -> shortcut t t.sc_container ~src ~dst:tgt_ptr)
      (items t.sources hc)

(* host propagation: ColHost/MapHost seeds arrive via [on_new_pts];
   PropHost follows PFG edges except Transfer-return edges; TransferHost and
   the Source/Target registration are driven by roles. *)
and add_hosts t (ptr : int) (delta : Bits.t) =
  let cur = pt_h_slot t ptr in
  match Bits.union_into ~into:cur delta with
  | None -> ()
  | Some fresh ->
    (* roles on this pointer as a receiver *)
    List.iter (fun role -> apply_role t role fresh) (items t.roles ptr);
    (* PropHost along PFG successors *)
    Solver.iter_succs t.solver ptr (fun dst _ kind ->
        if not (transfer_return t ptr kind) then add_hosts t dst fresh)

and apply_role t (role : role) (hosts : Bits.t) =
  Bits.iter
    (fun h ->
      match role with
      | R_entrance { arg_ptr; cat } -> add_source t h cat arg_ptr
      | R_exit { lhs_ptr; cat } -> add_target t h cat lhs_ptr
      | R_transfer { lhs_ptr } ->
        let one = Bits.create () in
        ignore (Bits.add one h);
        add_hosts t lhs_ptr one)
    hosts

(* ---------------------------------------------------- local flow pattern *)

let apply_lflow t (site : Ir.call_id) (callee : Ir.method_id) =
  let cs = Ir.call t.prog site in
  match (cs.cs_lhs, Inttbl.find_opt t.lflow_srcs callee) with
  | Some lhs, Some srcs ->
    let lhs_ptr = ptr_var t lhs in
    List.iter
      (fun k ->
        match Static.arg_at t.prog cs k with
        | Some arg when Ir.is_ref_type (Ir.var t.prog arg).v_ty ->
          shortcut t t.sc_lflow ~src:(ptr_var t arg) ~dst:lhs_ptr
        | _ -> ())
      srcs
  | _ -> ()

let add_role t (recv_ptr : int) (role : role) =
  if push t.roles recv_ptr ~id:(pair_key t recv_ptr (role_code role)) role then
    apply_role t role (pt_h_of t recv_ptr)

(* --------------------------------------------------------------- events *)

let on_reachable t (mid : Ir.method_id) =
  let m = Ir.metho t.prog mid in
  if t.cfg.field_pattern then begin
    (* seed static store patterns *)
    List.iter (add_store_pattern t mid) (Static.store_patterns t.prog m);
    (* seed static load patterns + in-method returnLoad classification *)
    if Bits.mem t.cut_load mid then begin
      ignore (Bits.add t.involved mid);
      let rv = Option.get m.m_ret_var in
      let rp = ptr_var t rv in
      Inttbl.replace t.ret_ptr_owner rp mid;
      ignore (Bits.add t.ret_ptrs rp);
      List.iter
        (fun (k, fld) ->
          (* classify the in-method load edges o.f -> rv as returnLoads,
             when unambiguous *)
          (if Hashtbl.mem t.li.Static.li_static_ok (mid, fld) then
             match param_at m k with
             | Some base_v ->
               cons t.retload_pats rp (ptr_var t base_v, fld)
             | None -> ());
          add_load_pattern t mid (k, fld))
        (Static.load_patterns t.prog m);
      (* allocations directly into the return variable must be relayed *)
      Ir.iter_stmts
        (fun s ->
          match s with
          | (New { lhs; site; _ } | NewArray { lhs; site; _ }
            | StrConst { lhs; site; _ })
            when lhs = rv ->
            relay_seed t mid (Solver.intern_obj t.solver ~hctx:Context.empty ~site)
          | _ -> ())
        m.m_body
    end
  end;
  if
    t.cfg.local_flow
    && (not (Bits.mem t.cut_lflow mid))
    && (not (Spec.is_exit t.spec mid))
    && not (t.cfg.field_pattern && Bits.mem t.cut_load mid)
  then begin
    match Static.local_flow_sources t.prog m with
    | Some srcs ->
      ignore (Bits.add t.cut_lflow mid);
      Inttbl.replace t.lflow_srcs mid srcs;
      ignore (Bits.add t.involved mid);
      (* the first call edge fires before the method is processed *)
      List.iter (fun site -> apply_lflow t site mid) (find_list t.callers mid)
    | None -> ()
  end

let on_call_edge t (site : Ir.call_id) (callee : Ir.method_id) =
  cons t.callers callee site;
  let cs = Ir.call t.prog site in
  if t.cfg.field_pattern then begin
    List.iter
      (fun pat -> apply_store_pattern t site pat)
      (items t.store_pats callee);
    List.iter
      (fun pat -> apply_load_pattern t site pat)
      (items t.load_pats callee);
    (* relay plumbing for cut-load callees *)
    if Bits.mem t.cut_load callee then
      match cs.cs_lhs with
      | Some lhs when Ir.is_ref_type (Ir.var t.prog lhs).v_ty ->
        relay_call_site t callee (ptr_var t lhs)
      | _ -> ()
  end;
  if t.cfg.local_flow && Bits.mem t.cut_lflow callee then
    apply_lflow t site callee;
  if t.cfg.container_pattern then begin
    match cs.cs_recv with
    | None -> ()
    | Some recv ->
      let recv_ptr = ptr_var t recv in
      List.iter
        (fun (k, cat) ->
          match Static.arg_at t.prog cs k with
          | Some arg when Ir.is_ref_type (Ir.var t.prog arg).v_ty ->
            add_role t recv_ptr (R_entrance { arg_ptr = ptr_var t arg; cat })
          | _ -> ())
        (Spec.entrance_roles t.spec callee);
      (match (Spec.exit_category t.spec callee, cs.cs_lhs) with
      | Some cat, Some lhs ->
        ignore (Bits.add t.involved callee);
        add_role t recv_ptr (R_exit { lhs_ptr = ptr_var t lhs; cat })
      | _ -> ());
      if Spec.is_transfer t.spec callee then
        match cs.cs_lhs with
        | Some lhs -> add_role t recv_ptr (R_transfer { lhs_ptr = ptr_var t lhs })
        | None -> ()
  end

let on_new_pts t (ptr : int) (delta : Bits.t) =
  (* subscriptions of the field patterns *)
  List.iter (fun s -> fire_sub t s delta) (items t.subs ptr);
  (* ColHost / MapHost: container objects flowing anywhere become hosts *)
  if t.cfg.container_pattern then begin
    sort_objs t;
    if Bits.inter_nonempty delta t.host_objs then
      add_hosts t ptr (Bits.inter delta t.host_objs)
  end

let on_edge t ~(src : int) ~(dst : int) ~(fc : int) kind =
  (* PropHost across late-added edges *)
  if t.cfg.container_pattern && not (transfer_return t src kind) then begin
    let hosts = pt_h_of t src in
    if not (Bits.is_empty hosts) then add_hosts t dst (Bits.copy hosts)
  end;
  (* RelayEdge: classify in-edges of cut return variables *)
  if t.cfg.field_pattern && Bits.mem t.ret_ptrs dst then begin
    match Inttbl.find_opt t.ret_ptr_owner dst with
    | None -> ()
    | Some m ->
      let is_return_load =
        Inttbl.Set.mem t.tagged ((src lsl 31) lor dst)
        ||
        match Solver.ptr_desc t.solver src with
        | Solver.PField (o, fld) ->
          List.exists
            (fun (base_ptr, f) ->
              f = fld && Bits.mem (Solver.pts t.solver base_ptr) o)
            (find_list t.retload_pats dst)
        | _ -> false
      in
      if not is_return_load then relay_in_edge t m ~src ~fc
  end

(* ---------------------------------------------------------------- public *)

let is_cut_return t (m : Ir.method_id) : bool =
  if t.cfg.field_pattern && Bits.mem t.cut_load m then begin
    Registry.incr t.c_cut_ret_load;
    true
  end
  else if t.cfg.local_flow && Bits.mem t.cut_lflow m then begin
    Registry.incr t.c_cut_ret_lflow;
    true
  end
  else if t.cfg.container_pattern && Spec.is_exit t.spec m then begin
    Registry.incr t.c_cut_ret_exit;
    true
  end
  else false

let is_cut_store t ~base ~rhs : bool =
  t.cfg.field_pattern
  && Static.is_cut_store t.prog ~base ~rhs
  &&
  (Registry.incr t.c_cut_stores;
   ignore (Bits.add t.involved (Ir.var t.prog base).v_method);
   true)

(** Build the plugin (and its inspection handle) for a solver. *)
let plugin_with_handle ?(config = default_config) (solver : Solver.t) :
    Solver.plugin * t =
  let prog = solver.Solver.prog in
  let spec = Spec.of_program prog in
  let li =
    if config.field_pattern then Static.load_info prog
    else
      Static.
        { li_pats = Hashtbl.create 1; li_cut = Bits.create ();
          li_static_ok = Hashtbl.create 1; li_site_ok = Hashtbl.create 1 }
  in
  let cut_load = Bits.copy li.Static.li_cut in
  (* exit methods get their precision from container shortcuts and their
     soundness from Assumption 1; transfer methods must keep their return
     edges so pt_H's transfer-return exclusion stays exact *)
  if config.container_pattern then begin
    Hashtbl.iter (fun m _ -> Bits.remove cut_load m) spec.Spec.exits;
    Bits.iter (fun m -> Bits.remove cut_load m) spec.Spec.transfers
  end;
  let no_hosts = Bits.create () in
  let pattern name =
    {
      p_count =
        Registry.counter solver.Solver.reg ~labels:[ ("pattern", name) ]
          "csc_shortcuts";
      p_row = "csc:" ^ name;
      p_rule = None;
    }
  in
  let t =
    {
      solver;
      prog;
      cfg = config;
      spec;
      n_fields = max 1 (Array.length prog.fields);
      n_ks =
        2
        + Array.fold_left
            (fun n (m : Ir.metho) -> max n (Array.length m.m_params))
            0 prog.methods;
      li;
      cut_load;
      cut_lflow = Bits.create ();
      lflow_srcs = Inttbl.create 64;
      n_sorted = 0;
      host_objs = Bits.create ();
      store_pats = keyed 64;
      load_pats = keyed 64;
      callers = Inttbl.create 256;
      subs = keyed 256;
      pair_ids = Inttbl.create 256;
      retload_pats = Inttbl.create 64;
      tagged = Inttbl.Set.create 256;
      relay_in = keyed 64;
      relay_lhs = keyed 64;
      relay_seeds = Inttbl.create 64;
      ret_ptr_owner = Inttbl.create 64;
      ret_ptrs = Bits.create ();
      pt_h = Vec.create ~capacity:1024 no_hosts;
      no_hosts;
      roles = keyed 256;
      sources = keyed 256;
      targets = keyed 256;
      involved = Bits.create ();
      sc_ends = Bits.create ();
      sc_store = pattern "store";
      sc_load = pattern "load";
      sc_relay = pattern "relay";
      sc_container = pattern "container";
      sc_lflow = pattern "lflow";
      c_cut_stores = Registry.counter solver.Solver.reg "csc_cut_stores";
      c_cut_ret_load =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "load") ]
          "csc_cut_returns";
      c_cut_ret_lflow =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "lflow") ]
          "csc_cut_returns";
      c_cut_ret_exit =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "exit") ]
          "csc_cut_returns";
    }
  in
  ( {
      Solver.pl_name = config_name config;
      pl_on_reachable = on_reachable t;
      pl_on_call_edge = on_call_edge t;
      pl_on_new_pts = on_new_pts t;
      pl_on_edge = on_edge t;
      pl_is_cut_store = (fun ~base ~rhs -> is_cut_store t ~base ~rhs);
      pl_is_cut_return = is_cut_return t;
    },
    t )

let plugin ?config (solver : Solver.t) : Solver.plugin =
  fst (plugin_with_handle ?config solver)

(** Methods touched by cut or shortcut edges (Table 3's "involved"
    column): the methods marked as patterns and cuts applied, plus the
    owners of every shortcut endpoint, resolved here rather than per
    shortcut. A fresh set on each call. *)
let involved_methods t =
  let inv = Bits.copy t.involved in
  Bits.iter
    (fun p ->
      let m = Solver.meth_of_ptr t.solver p in
      if m >= 0 then ignore (Bits.add inv m))
    t.sc_ends;
  inv
let shortcut_count t =
  List.fold_left
    (fun n p -> n + Registry.value p.p_count)
    0
    [ t.sc_store; t.sc_load; t.sc_relay; t.sc_container; t.sc_lflow ]

let cut_store_count t = Registry.value t.c_cut_stores
