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

(* per cut-load-method relay bookkeeping *)
type relay = {
  mutable rl_in_edges : (int * Ir.typ option) list;  (* (src ptr, filter) *)
  mutable rl_lhs : int list;                         (* call-site LHS ptrs *)
  rl_seeds : Bits.t;  (* objects allocated directly into m_ret *)
}

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

type t = {
  solver : Solver.t;
  prog : Ir.program;
  cfg : config;
  spec : Spec.t;
  ci : int;  (* the (only) context id *)
  (* ---- static cut sets ---- *)
  li : Static.load_info;
  cut_load : Bits.t;  (* li_cut minus container exits/transfers *)
  cut_lflow : Bits.t;
  lflow_srcs : (Ir.method_id, int list) Hashtbl.t;
  (* ---- field pattern dynamic state ---- *)
  store_pats : (Ir.method_id, (int * Ir.field_id * int) list ref) Hashtbl.t;
  load_pats : (Ir.method_id, (int * Ir.field_id) list ref) Hashtbl.t;
  callers : (Ir.method_id, Ir.call_id list ref) Hashtbl.t;
  subs : (int, sub list ref) Hashtbl.t;  (* base ptr -> subscriptions *)
  sub_seen : (int * sub, unit) Hashtbl.t;
  (* returnLoadEdges classification *)
  retload_pats : (int, (int * Ir.field_id) list ref) Hashtbl.t;
      (* cut ret-var ptr -> (base ptr, field): in-method load edges *)
  tagged : (int * int, unit) Hashtbl.t;  (* plugin-added returnLoad edges *)
  relays : (Ir.method_id, relay) Hashtbl.t;
  ret_ptr_owner : (int, Ir.method_id) Hashtbl.t;  (* m_ret ptr -> cut-load m *)
  (* ---- container pattern dynamic state ---- *)
  pt_h : (int, Bits.t) Hashtbl.t;  (* ptr -> host objects *)
  roles : (int, role list ref) Hashtbl.t;  (* receiver ptr -> roles *)
  role_seen : (int * role, unit) Hashtbl.t;
  sources : (int * Spec.category, int list ref) Hashtbl.t;  (* host -> srcs *)
  targets : (int * Spec.category, int list ref) Hashtbl.t;
  (* ---- statistics ---- *)
  involved : Bits.t;  (* methods touched by cut or shortcut edges *)
  mutable n_shortcuts : int;
  mutable n_cut_stores : int;
  (* per-rule counters in the solver's registry: which pattern fired *)
  c_sc_store : Registry.counter;
  c_sc_load : Registry.counter;
  c_sc_relay : Registry.counter;
  c_sc_container : Registry.counter;
  c_sc_lflow : Registry.counter;
  c_cut_stores : Registry.counter;
  c_cut_ret_load : Registry.counter;
  c_cut_ret_lflow : Registry.counter;
  c_cut_ret_exit : Registry.counter;
}

(* ----------------------------------------------------------- small utils *)

let get_list tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl key r;
    r

let ptr_var t v = Solver.ptr_var t.solver ~ctx:t.ci v

(** Parameter variable of [m] at position [k] (0 = this). *)
let param_at (m : Ir.metho) k : Ir.var_id option =
  if k = 0 then m.m_this
  else if k <= Array.length m.m_params then Some m.m_params.(k - 1)
  else None

let method_of_ptr t (ptr : int) : Ir.method_id option =
  match Solver.ptr_desc t.solver ptr with
  | Solver.PVar (_, v) -> Some (Ir.var t.prog v).v_method
  | PField (o, _) | PArr o ->
    Some (Ir.alloc t.prog (Solver.obj_alloc t.solver o)).a_method
  | PStatic _ -> None

let mark_involved t ptr =
  match method_of_ptr t ptr with
  | Some m -> ignore (Bits.add t.involved m)
  | None -> ()

(** Fault-injection hook for the soundness fuzzer: when set, store-pattern
    shortcut edges are silently dropped while the matching cuts still apply —
    a deliberate unsoundness the fuzzer must catch and minimize. Never set
    outside tests and the hidden [fuzz --inject-unsound] flag. *)
let sabotage_drop_shortcuts = ref false

(** Add a shortcut edge (E_SC); [rule] is the per-pattern counter of the
    rule that emitted it. *)
let shortcut ?filter t rule ~src ~dst =
  if src <> dst && not (!sabotage_drop_shortcuts && rule == t.c_sc_store) then begin
    t.n_shortcuts <- t.n_shortcuts + 1;
    Registry.incr rule;
    (match Solver.attr t.solver with
    | None -> ()
    | Some a ->
      (* attribution rule row keyed by the CSC pattern (the counters all
         share one name and differ by their "pattern" label) *)
      let pat =
        match List.assoc_opt "pattern" (Registry.counter_labels rule) with
        | Some p -> p
        | None -> Registry.counter_name rule
      in
      Attr.rule_fire (Attr.rule a ("csc:" ^ pat)));
    mark_involved t src;
    mark_involved t dst;
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
  let pats = get_list t.store_pats m in
  if not (List.mem pat !pats) then begin
    pats := pat :: !pats;
    ignore (Bits.add t.involved m);
    List.iter (fun site -> apply_store_pattern t site pat) !(get_list t.callers m)
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
  let pats = get_list t.load_pats m in
  if not (List.mem pat !pats) then begin
    pats := pat :: !pats;
    ignore (Bits.add t.involved m);
    List.iter (fun site -> apply_load_pattern t site pat) !(get_list t.callers m)
  end

(* ---------------------------------------------------------- subscriptions *)

and add_sub t (base_ptr : int) (s : sub) =
  if not (Hashtbl.mem t.sub_seen (base_ptr, s)) then begin
    Hashtbl.add t.sub_seen (base_ptr, s) ();
    (get_list t.subs base_ptr) := s :: !(get_list t.subs base_ptr);
    fire_sub t s (Solver.pts t.solver base_ptr)
  end

and fire_sub t (s : sub) (objs : Bits.t) =
  Bits.iter
    (fun o ->
      if Solver.obj_class t.solver o <> None then
        match s with
        | Sub_store { fld; from_ptr } ->
          shortcut t t.c_sc_store ~src:from_ptr
            ~dst:(Solver.ptr_field t.solver ~obj:o ~fld)
        | Sub_load { fld; to_ptr; tag } ->
          let src = Solver.ptr_field t.solver ~obj:o ~fld in
          if tag then Hashtbl.replace t.tagged (src, to_ptr) ();
          shortcut t t.c_sc_load ~src ~dst:to_ptr)
    objs

(* ------------------------------------------------------------------ relay *)

(* [RelayEdge]: in-edges of a cut return variable that are not
   returnLoadEdges are forwarded to every call-site LHS; objects allocated
   directly into the return variable are forwarded as seeds. *)

let relay_of t (m : Ir.method_id) : relay =
  match Hashtbl.find_opt t.relays m with
  | Some r -> r
  | None ->
    let r = { rl_in_edges = []; rl_lhs = []; rl_seeds = Bits.create () } in
    Hashtbl.add t.relays m r;
    r

let relay_in_edge t (m : Ir.method_id) ~(src : int) ~(filter : Ir.typ option) =
  let r = relay_of t m in
  if not (List.mem (src, filter) r.rl_in_edges) then begin
    r.rl_in_edges <- (src, filter) :: r.rl_in_edges;
    List.iter (fun lhs -> shortcut ?filter t t.c_sc_relay ~src ~dst:lhs) r.rl_lhs
  end

let relay_call_site t (m : Ir.method_id) (lhs_ptr : int) =
  let r = relay_of t m in
  if not (List.mem lhs_ptr r.rl_lhs) then begin
    r.rl_lhs <- lhs_ptr :: r.rl_lhs;
    List.iter
      (fun (src, filter) -> shortcut ?filter t t.c_sc_relay ~src ~dst:lhs_ptr)
      r.rl_in_edges;
    Solver.seed ~why:"relay" t.solver lhs_ptr (Bits.copy r.rl_seeds)
  end

let relay_seed t (m : Ir.method_id) (o : int) =
  let r = relay_of t m in
  if Bits.add r.rl_seeds o then
    List.iter (fun lhs -> Solver.seed1 ~why:"relay" t.solver lhs o) r.rl_lhs

(* ------------------------------------------------------ container pattern *)

let pt_h_of t ptr =
  match Hashtbl.find_opt t.pt_h ptr with
  | Some b -> b
  | None ->
    let b = Bits.create () in
    Hashtbl.add t.pt_h ptr b;
    b

let rec add_source t host cat (src_ptr : int) =
  let srcs = get_list t.sources (host, cat) in
  if not (List.mem src_ptr !srcs) then begin
    srcs := src_ptr :: !srcs;
    List.iter
      (fun tgt -> shortcut t t.c_sc_container ~src:src_ptr ~dst:tgt)
      !(get_list t.targets (host, cat))
  end

and add_target t host cat (tgt_ptr : int) =
  let tgts = get_list t.targets (host, cat) in
  if not (List.mem tgt_ptr !tgts) then begin
    tgts := tgt_ptr :: !tgts;
    List.iter
      (fun src -> shortcut t t.c_sc_container ~src ~dst:tgt_ptr)
      !(get_list t.sources (host, cat))
  end

(* host propagation: ColHost/MapHost seeds arrive via [on_new_pts];
   PropHost follows PFG edges except Transfer-return edges; TransferHost and
   the Source/Target registration are driven by roles. *)
and add_hosts t (ptr : int) (delta : Bits.t) =
  let cur = pt_h_of t ptr in
  match Bits.union_into ~into:cur delta with
  | None -> ()
  | Some fresh ->
    (* roles on this pointer as a receiver *)
    (match Hashtbl.find_opt t.roles ptr with
    | Some roles ->
      List.iter (fun role -> apply_role t role fresh) !roles
    | None -> ());
    (* PropHost along PFG successors *)
    List.iter
      (fun (e : Solver.edge) ->
        match e.e_kind with
        | Solver.KReturn callee when Spec.is_transfer t.spec callee -> ()
        | _ -> add_hosts t e.e_dst fresh)
      (Solver.succs t.solver ptr)

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
  match (cs.cs_lhs, Hashtbl.find_opt t.lflow_srcs callee) with
  | Some lhs, Some srcs ->
    let lhs_ptr = ptr_var t lhs in
    List.iter
      (fun k ->
        match Static.arg_at t.prog cs k with
        | Some arg when Ir.is_ref_type (Ir.var t.prog arg).v_ty ->
          shortcut t t.c_sc_lflow ~src:(ptr_var t arg) ~dst:lhs_ptr
        | _ -> ())
      srcs
  | _ -> ()

let add_role t (recv_ptr : int) (role : role) =
  if not (Hashtbl.mem t.role_seen (recv_ptr, role)) then begin
    Hashtbl.add t.role_seen (recv_ptr, role) ();
    (get_list t.roles recv_ptr) := role :: !(get_list t.roles recv_ptr);
    apply_role t role (pt_h_of t recv_ptr)
  end

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
      Hashtbl.replace t.ret_ptr_owner rp mid;
      List.iter
        (fun (k, fld) ->
          (* classify the in-method load edges o.f -> rv as returnLoads,
             when unambiguous *)
          (if Hashtbl.mem t.li.Static.li_static_ok (mid, fld) then
             match param_at m k with
             | Some base_v ->
               let pats = get_list t.retload_pats rp in
               pats := (ptr_var t base_v, fld) :: !pats
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
            relay_seed t mid (Solver.intern_obj t.solver ~hctx:t.ci ~site)
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
      Hashtbl.replace t.lflow_srcs mid srcs;
      ignore (Bits.add t.involved mid);
      (* the first call edge fires before the method is processed *)
      List.iter (fun site -> apply_lflow t site mid) !(get_list t.callers mid)
    | None -> ()
  end

let on_call_edge t (site : Ir.call_id) (callee : Ir.method_id) =
  (get_list t.callers callee) := site :: !(get_list t.callers callee);
  let cs = Ir.call t.prog site in
  if t.cfg.field_pattern then begin
    List.iter
      (fun pat -> apply_store_pattern t site pat)
      !(get_list t.store_pats callee);
    List.iter
      (fun pat -> apply_load_pattern t site pat)
      !(get_list t.load_pats callee);
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
  (match Hashtbl.find_opt t.subs ptr with
  | Some subs -> List.iter (fun s -> fire_sub t s delta) !subs
  | None -> ());
  (* ColHost / MapHost: container objects flowing anywhere become hosts *)
  if t.cfg.container_pattern then begin
    let hosts = ref None in
    Bits.iter
      (fun o ->
        match Solver.obj_class t.solver o with
        | Some c when Spec.is_host_class t.spec c ->
          let b =
            match !hosts with
            | Some b -> b
            | None ->
              let b = Bits.create () in
              hosts := Some b;
              b
          in
          ignore (Bits.add b o)
        | _ -> ())
      delta;
    match !hosts with Some b -> add_hosts t ptr b | None -> ()
  end

let on_edge t ~(src : int) (e : Solver.edge) =
  (* PropHost across late-added edges *)
  (if t.cfg.container_pattern then
     match e.e_kind with
     | Solver.KReturn callee when Spec.is_transfer t.spec callee -> ()
     | _ ->
       let hosts = pt_h_of t src in
       if not (Bits.is_empty hosts) then add_hosts t e.e_dst (Bits.copy hosts));
  (* RelayEdge: classify in-edges of cut return variables *)
  if t.cfg.field_pattern then begin
    match Hashtbl.find_opt t.ret_ptr_owner e.e_dst with
    | None -> ()
    | Some m ->
      let is_return_load =
        Hashtbl.mem t.tagged (src, e.e_dst)
        ||
        match Solver.ptr_desc t.solver src with
        | Solver.PField (o, fld) -> (
          match Hashtbl.find_opt t.retload_pats e.e_dst with
          | Some pats ->
            List.exists
              (fun (base_ptr, f) ->
                f = fld && Bits.mem (Solver.pts t.solver base_ptr) o)
              !pats
          | None -> false)
        | _ -> false
      in
      if not is_return_load then relay_in_edge t m ~src ~filter:e.e_filter
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

let is_cut_store t ~base ~fld ~rhs : bool =
  ignore fld;
  t.cfg.field_pattern
  && Static.is_cut_store t.prog ~base ~rhs
  &&
  (t.n_cut_stores <- t.n_cut_stores + 1;
   Registry.incr t.c_cut_stores;
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
  let t =
    {
      solver;
      prog;
      cfg = config;
      spec;
      ci = Interner.intern solver.Solver.ctxs [];
      li;
      cut_load;
      cut_lflow = Bits.create ();
      lflow_srcs = Hashtbl.create 64;
      store_pats = Hashtbl.create 64;
      load_pats = Hashtbl.create 64;
      callers = Hashtbl.create 256;
      subs = Hashtbl.create 256;
      sub_seen = Hashtbl.create 256;
      retload_pats = Hashtbl.create 64;
      tagged = Hashtbl.create 256;
      relays = Hashtbl.create 64;
      ret_ptr_owner = Hashtbl.create 64;
      pt_h = Hashtbl.create 256;
      roles = Hashtbl.create 256;
      role_seen = Hashtbl.create 256;
      sources = Hashtbl.create 256;
      targets = Hashtbl.create 256;
      involved = Bits.create ();
      n_shortcuts = 0;
      n_cut_stores = 0;
      c_sc_store =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "store") ]
          "csc_shortcuts";
      c_sc_load =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "load") ]
          "csc_shortcuts";
      c_sc_relay =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "relay") ]
          "csc_shortcuts";
      c_sc_container =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "container") ]
          "csc_shortcuts";
      c_sc_lflow =
        Registry.counter solver.Solver.reg
          ~labels:[ ("pattern", "lflow") ]
          "csc_shortcuts";
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
      pl_on_edge = (fun ~src e -> on_edge t ~src e);
      pl_is_cut_store = (fun ~base ~fld ~rhs -> is_cut_store t ~base ~fld ~rhs);
      pl_is_cut_return = is_cut_return t;
    },
    t )

let plugin ?config (solver : Solver.t) : Solver.plugin =
  fst (plugin_with_handle ?config solver)

let involved_methods t = t.involved
let shortcut_count t = t.n_shortcuts
let cut_store_count t = t.n_cut_stores
