(** EDB extraction: encode an IR program as Datalog input relations,
    mirroring Doop's fact generation.

    All extracted relations are listed below; ids are the IR's dense ids
    (vars, fields, methods, alloc sites, call sites, cast sites), method
    names are interned to ints for the dispatch join.

    Pointer-analysis core:
    - AllocIn(m, v, h)              allocation in method m
    - Assign(to, from)              local copy (ref-typed)
    - CastAssign(to, from, x)       cast at site x
    - CastOk(x, h)                  allocation h passes cast x's type check
    - Store(s, base, f, from)       field store statement s
    - Load(to, base, f)
    - AStoreR(arr, from) / ALoadR(to, arr)
    - SStoreR(f, from) / SLoadR(to, f)
    - VCallIn(m, site, recv, name)  virtual call
    - SpecialIn(m, site, recv, tgt) constructor call
    - StaticIn(m, site, tgt)
    - SiteIn(site, m), SiteRecv(site, recv), CallLhs(site, lhs)
    - ArgVar(site, k, var)          k >= 1, ref-typed
    - ArgOrRecv(site, k, var)       k = 0 is the receiver
    - FormalParam(m, k, param)      k = 0 is `this`
    - MethodRet(m, ret)
    - Dispatch(cls, name, m), HeapClass(h, cls), HeapIsArray(h)
    - EntryMethod(m)

    Cut-Shortcut statics (stratum 0, all negations refer here):
    - CutStore(s), CutReturn(m)
    - StorePattern(m, k1, f, k2)
    - ArgParamIdx(site, k, k'), ArgNotParam(site, k)
    - LFlowSrc(m, k)
    - Entrance(m, k, cat), ExitR(m, cat), TransferR(m), HostHeap(h) *)

open Csc_common
module Ir = Csc_ir.Ir
module Static = Csc_core.Static
module Spec = Csc_core.Spec
module E = Engine

let is_ref (p : Ir.program) v = Ir.is_ref_type (Ir.var p v).v_ty

(** Declare every relation (so rules can reference empty ones) and load the
    EDB facts of [p]. Method names are interned to ints for Dispatch. *)
let load ?(csc = true) (t : E.t) (p : Ir.program) : unit =
  let names : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let name_id n =
    match Hashtbl.find_opt names n with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names n i;
      i
  in
  let decl name arity = ignore (E.relation t name arity) in
  List.iter
    (fun (n, a) -> decl n a)
    [
      ("AllocIn", 3); ("Assign", 2); ("CastAssign", 3); ("CastOk", 2);
      ("Store", 4); ("Load", 3); ("AStoreR", 2); ("ALoadR", 2);
      ("SStoreR", 2); ("SLoadR", 2); ("VCallIn", 4); ("SpecialIn", 4);
      ("StaticIn", 3); ("SiteIn", 2); ("SiteRecv", 2); ("CallLhs", 2);
      ("ArgVar", 3); ("ArgOrRecv", 3); ("FormalParam", 3); ("MethodRet", 2);
      ("Dispatch", 3); ("HeapClass", 2); ("HeapIsArray", 1); ("EntryMethod", 1);
      ("CutStore", 1); ("CutReturn", 1); ("StorePattern", 4);
      ("ArgParamIdx", 3); ("ArgNotParam", 2); ("LFlowSrc", 2);
      ("Entrance", 3); ("ExitR", 2); ("TransferR", 1); ("HostHeap", 1);
      ("VarMeth", 2);
    ];
  let store_count = ref 0 in
  (* ---- statements ---- *)
  Array.iter
    (fun (m : Ir.metho) ->
      Ir.iter_stmts
        (fun s ->
          match s with
          | New { lhs; site; _ } | NewArray { lhs; site; _ }
          | StrConst { lhs; site; _ } ->
            E.fact t "AllocIn" [ m.m_id; lhs; site ]
          | Copy { lhs; rhs } ->
            if is_ref p lhs || is_ref p rhs then E.fact t "Assign" [ lhs; rhs ]
          | Cast { lhs; rhs; site; _ } ->
            E.fact t "CastAssign" [ lhs; rhs; site ]
          | Store { base; fld; rhs } ->
            let sid = !store_count in
            incr store_count;
            if is_ref p rhs then begin
              E.fact t "Store" [ sid; base; fld; rhs ];
              if csc && Static.is_cut_store p ~base ~rhs then
                E.fact t "CutStore" [ sid ]
            end
          | Load { lhs; base; fld } ->
            if is_ref p lhs then E.fact t "Load" [ lhs; base; fld ]
          | AStore { arr; rhs; _ } ->
            if is_ref p rhs then E.fact t "AStoreR" [ arr; rhs ]
          | ALoad { lhs; arr; _ } ->
            if is_ref p lhs then E.fact t "ALoadR" [ lhs; arr ]
          | SStore { fld; rhs } ->
            if is_ref p rhs then E.fact t "SStoreR" [ fld; rhs ]
          | SLoad { lhs; fld } ->
            if is_ref p lhs then begin
              E.fact t "SLoadR" [ lhs; fld ];
              E.fact t "VarMeth" [ lhs; m.m_id ]
            end
          | Invoke { kind; recv; target; site; _ } -> (
            match (kind, recv) with
            | Ir.Virtual, Some r ->
              let name = name_id (Ir.metho p target).m_name in
              E.fact t "VCallIn" [ m.m_id; site; r; name ]
            | Ir.Special, Some r -> E.fact t "SpecialIn" [ m.m_id; site; r; target ]
            | Ir.Static, _ -> E.fact t "StaticIn" [ m.m_id; site; target ]
            | _ -> ())
          | Return _ | If _ | While _ | Print _ | Nop | ConstInt _ | ConstBool _ | InstanceOf _
          | ConstNull _ | Binop _ | Unop _ | ALen _ ->
            ())
        m.m_body)
    p.methods;
  (* ---- call sites ---- *)
  Array.iter
    (fun (cs : Ir.call_site) ->
      E.fact t "SiteIn" [ cs.cs_id; cs.cs_method ];
      (match cs.cs_recv with
      | Some r ->
        E.fact t "SiteRecv" [ cs.cs_id; r ];
        E.fact t "ArgOrRecv" [ cs.cs_id; 0; r ]
      | None -> ());
      (match cs.cs_lhs with
      | Some l when is_ref p l -> E.fact t "CallLhs" [ cs.cs_id; l ]
      | _ -> ());
      Array.iteri
        (fun i a ->
          E.fact t "ArgOrRecv" [ cs.cs_id; i + 1; a ];
          if is_ref p a then E.fact t "ArgVar" [ cs.cs_id; i + 1; a ])
        cs.cs_args;
      if csc then begin
        (* Arg2Var helpers for the temp-store propagation *)
        let classify k v =
          match Static.param_index p v with
          | Some k' -> E.fact t "ArgParamIdx" [ cs.cs_id; k; k' ]
          | None -> E.fact t "ArgNotParam" [ cs.cs_id; k ]
        in
        (match cs.cs_recv with Some r -> classify 0 r | None -> ());
        Array.iteri (fun i a -> classify (i + 1) a) cs.cs_args
      end)
    p.calls;
  (* ---- methods ---- *)
  Array.iter
    (fun (m : Ir.metho) ->
      (match m.m_this with
      | Some this -> E.fact t "FormalParam" [ m.m_id; 0; this ]
      | None -> ());
      Array.iteri
        (fun i v ->
          if is_ref p v then E.fact t "FormalParam" [ m.m_id; i + 1; v ])
        m.m_params;
      match m.m_ret_var with
      | Some rv when is_ref p rv -> E.fact t "MethodRet" [ m.m_id; rv ]
      | _ -> ())
    p.methods;
  E.fact t "EntryMethod" [ p.main ];
  (* ---- type hierarchy / dispatch ---- *)
  Array.iteri
    (fun c vt ->
      Hashtbl.iter
        (fun name m ->
          E.fact t "Dispatch" [ c; name_id name; m ])
        vt)
    p.vtables;
  Array.iter
    (fun (a : Ir.alloc_site) ->
      match a.a_kind with
      | `Class c -> E.fact t "HeapClass" [ a.a_id; c ]
      | `String -> E.fact t "HeapClass" [ a.a_id; p.string_cls ]
      | `Array _ -> E.fact t "HeapIsArray" [ a.a_id ])
    p.allocs;
  (* ---- cast compatibility (instanceof sites generate no flow) ---- *)
  (* each distinct cast type is tested once against every allocation; the
     facts still come cast by cast, allocations in order *)
  let alloc_typs = Array.map (fun (a : Ir.alloc_site) -> Ir.alloc_typ p a.a_id) p.allocs in
  let passing : (Ir.typ, int list) Hashtbl.t = Hashtbl.create 16 in
  let passing ty =
    match Hashtbl.find_opt passing ty with
    | Some l -> l
    | None ->
      let l = ref [] in
      for i = Array.length p.allocs - 1 downto 0 do
        if Ir.subtype p alloc_typs.(i) ty then l := p.allocs.(i).a_id :: !l
      done;
      Hashtbl.add passing ty !l;
      !l
  in
  Array.iter
    (fun (x : Ir.cast_site) ->
      if x.x_kind = `Cast then
        List.iter (fun a -> E.fact t "CastOk" [ x.x_id; a ]) (passing x.x_ty))
    p.casts;
  (* ---- Cut-Shortcut statics ---- *)
  if csc then begin
    let spec = Spec.of_program p in
    Array.iter
      (fun (m : Ir.metho) ->
        List.iter
          (fun (k1, f, k2) -> E.fact t "StorePattern" [ m.m_id; k1; f; k2 ])
          (Static.store_patterns p m);
        (* local flow, with the same exclusions as the imperative plugin *)
        if not (Spec.is_exit spec m.m_id) then begin
          match Static.local_flow_sources p m with
          | Some srcs ->
            E.fact t "CutReturn" [ m.m_id ];
            List.iter (fun k -> E.fact t "LFlowSrc" [ m.m_id; k ]) srcs
          | None -> ()
        end)
      p.methods;
    Hashtbl.iter
      (fun m roles ->
        ignore roles;
        List.iter
          (fun (k, cat) -> E.fact t "Entrance" [ m; k; Spec.category_code cat ])
          (Spec.entrance_roles spec m))
      spec.Spec.entrances;
    Hashtbl.iter
      (fun m cat ->
        E.fact t "ExitR" [ m; Spec.category_code cat ];
        E.fact t "CutReturn" [ m ])
      spec.Spec.exits;
    Bits.iter (fun m -> E.fact t "TransferR" [ m ]) spec.Spec.transfers;
    Array.iter
      (fun (a : Ir.alloc_site) ->
        match a.a_kind with
        | `Class c when Spec.is_host_class spec c -> E.fact t "HostHeap" [ a.a_id ]
        | _ -> ())
      p.allocs
  end
