(** Name resolution, light type checking, and lowering of MiniJava ASTs into
    the typed TAC {!Csc_ir.Ir} used by every analysis and the interpreter.

    Design points that matter to the Cut-Shortcut patterns downstream:
    - [x = e] and [T x = e] lower the expression *directly into* [x]
      (no spurious temporary + copy), so parameter/def counts and local
      copy chains in the IR mirror the source;
    - methods keep a single return variable where possible ([m_ret_var]);
      multiple distinct returned variables are funnelled through a
      synthesized [$ret] (see DESIGN.md §3). *)

open Csc_common
module A = Ast
module Ir = Csc_ir.Ir

type class_info = {
  ci_id : int;
  ci_decl : A.class_decl option;        (* None for synthesized Object *)
  mutable ci_super : int option;
  mutable ci_fields : Ir.field_id list;  (* declared, in reverse order *)
  mutable ci_methods : Ir.method_id list;  (* declared, incl <init>, reversed *)
  field_ids : (string, Ir.field_id) Hashtbl.t;  (* declared, by name *)
  method_ids : (string, Ir.method_id) Hashtbl.t;
}

type t = {
  class_by_name : (string, class_info) Hashtbl.t;
  class_by_id : (int, class_info) Hashtbl.t;
  mutable class_list : class_info list;              (* reverse order *)
  fields : Ir.field Vec.t;
  methods : Ir.metho Vec.t;
  vars : Ir.var Vec.t;
  allocs : Ir.alloc_site Vec.t;
  calls : Ir.call_site Vec.t;
  casts : Ir.cast_site Vec.t;
  mutable main : Ir.method_id option;
}

let dummy_var : Ir.var =
  { v_id = -1; v_name = ""; v_ty = Tvoid; v_method = -1; v_kind = `Local }

let dummy_method : Ir.metho =
  { m_id = -1; m_class = -1; m_name = ""; m_static = true; m_this = None;
    m_params = [||]; m_ret_ty = Tvoid; m_ret_var = None; m_body = [||] }

let dummy_field : Ir.field =
  { f_id = -1; f_class = -1; f_name = ""; f_ty = Tvoid; f_static = false }

let dummy_alloc : Ir.alloc_site = { a_id = -1; a_kind = `String; a_method = -1; a_line = 0 }

let dummy_call : Ir.call_site =
  { cs_id = -1; cs_method = -1; cs_line = 0; cs_kind = Static; cs_lhs = None;
    cs_recv = None; cs_args = [||]; cs_target = -1 }

let dummy_cast : Ir.cast_site =
  { x_id = -1; x_method = -1; x_ty = Tvoid; x_line = 0; x_kind = `Cast }

(* ----------------------------------------------------------- class table *)

let create () : t =
  {
    class_by_name = Hashtbl.create 64;
    class_by_id = Hashtbl.create 64;
    class_list = [];
    fields = Vec.create dummy_field;
    methods = Vec.create dummy_method;
    vars = Vec.create dummy_var;
    allocs = Vec.create dummy_alloc;
    calls = Vec.create dummy_call;
    casts = Vec.create dummy_cast;
    main = None;
  }

let n_classes t = List.length t.class_list

let add_class t (decl : A.class_decl option) name : class_info =
  if Hashtbl.mem t.class_by_name name then
    A.semantic_error
      (match decl with Some d -> d.cd_pos | None -> A.dummy_pos)
      "duplicate class %s" name;
  let ci =
    { ci_id = n_classes t; ci_decl = decl; ci_super = None;
      ci_fields = []; ci_methods = []; field_ids = Hashtbl.create 8;
      method_ids = Hashtbl.create 8 }
  in
  Hashtbl.add t.class_by_name name ci;
  Hashtbl.add t.class_by_id ci.ci_id ci;
  t.class_list <- ci :: t.class_list;
  ci

let find_class t pos name : class_info =
  match Hashtbl.find_opt t.class_by_name name with
  | Some ci -> ci
  | None -> A.semantic_error pos "unknown class %s" name

let class_info_by_id t id = Hashtbl.find t.class_by_id id

let class_name_of t id =
  let ci = class_info_by_id t id in
  match ci.ci_decl with Some d -> d.cd_name | None -> "Object"

(* type conversion *)
let rec conv_ty t pos : A.ty -> Ir.typ = function
  | A.Ty_int -> Tint
  | A.Ty_bool -> Tbool
  | A.Ty_void -> Tvoid
  | A.Ty_class c -> Tclass (find_class t pos c).ci_id
  | A.Ty_array e -> Tarray (conv_ty t pos e)

(* [name] in the [table] of class [cid] or of its nearest superclass *)
let rec lookup table t (cid : int) name =
  let ci = class_info_by_id t cid in
  match Hashtbl.find_opt (table ci) name with
  | Some _ as found -> found
  | None -> Option.bind ci.ci_super (fun s -> lookup table t s name)

let lookup_field = lookup (fun ci -> ci.field_ids)
let lookup_method = lookup (fun ci -> ci.method_ids)

(* --------------------------------------------------------- declarations *)

let declare_classes t (prog : A.program) =
  (* synthesize Object if the sources don't define it *)
  if not (List.exists (fun (c : A.class_decl) -> c.cd_name = "Object") prog)
  then ignore (add_class t None "Object");
  List.iter (fun (c : A.class_decl) -> ignore (add_class t (Some c) c.cd_name)) prog;
  (* resolve supers, defaulting to Object *)
  let obj = (Hashtbl.find t.class_by_name "Object").ci_id in
  List.iter
    (fun (c : A.class_decl) ->
      let ci = Hashtbl.find t.class_by_name c.cd_name in
      match c.cd_super with
      | Some s ->
        let sci = find_class t c.cd_pos s in
        ci.ci_super <- Some sci.ci_id
      | None -> if ci.ci_id <> obj then ci.ci_super <- Some obj)
    prog;
  (* cycle check *)
  List.iter
    (fun ci ->
      let seen = Hashtbl.create 8 in
      let rec go c =
        if Hashtbl.mem seen c.ci_id then
          A.semantic_error A.dummy_pos "inheritance cycle involving class %s"
            (class_name_of t c.ci_id);
        Hashtbl.add seen c.ci_id ();
        match c.ci_super with Some s -> go (class_info_by_id t s) | None -> ()
      in
      go ci)
    t.class_list

let fresh_var t ~method_id ~name ~ty ~kind : Ir.var_id =
  let v_id = Vec.length t.vars in
  Vec.push t.vars { v_id; v_name = name; v_ty = ty; v_method = method_id; v_kind = kind };
  v_id

let declare_members t (prog : A.program) =
  List.iter
    (fun (c : A.class_decl) ->
      let ci = Hashtbl.find t.class_by_name c.cd_name in
      List.iter
        (fun (m : A.member) ->
          match m with
          | A.M_field { mf_static; mf_ty; mf_name; mf_pos } ->
            if Hashtbl.mem ci.field_ids mf_name then
              A.semantic_error mf_pos "duplicate field %s.%s" c.cd_name mf_name;
            let f_id = Vec.length t.fields in
            Vec.push t.fields
              { f_id; f_class = ci.ci_id; f_name = mf_name;
                f_ty = conv_ty t mf_pos mf_ty; f_static = mf_static };
            Hashtbl.add ci.field_ids mf_name f_id;
            ci.ci_fields <- f_id :: ci.ci_fields
          | A.M_method { mm_static; mm_ret; mm_name; mm_params; mm_pos; _ } ->
            if Hashtbl.mem ci.method_ids mm_name then
              A.semantic_error mm_pos "duplicate method %s.%s" c.cd_name mm_name;
            let m_id = Vec.length t.methods in
            let ret_ty = conv_ty t mm_pos mm_ret in
            let this =
              if mm_static then None
              else
                Some (fresh_var t ~method_id:m_id ~name:"this"
                        ~ty:(Tclass ci.ci_id) ~kind:`This)
            in
            let params =
              List.mapi
                (fun k (ty, name) ->
                  fresh_var t ~method_id:m_id ~name ~ty:(conv_ty t mm_pos ty)
                    ~kind:(`Param (k + 1)))
                mm_params
            in
            Vec.push t.methods
              { m_id; m_class = ci.ci_id; m_name = mm_name; m_static = mm_static;
                m_this = this; m_params = Array.of_list params;
                m_ret_ty = ret_ty; m_ret_var = None; m_body = [||] };
            Hashtbl.add ci.method_ids mm_name m_id;
            ci.ci_methods <- m_id :: ci.ci_methods;
            if mm_static && mm_name = "main" then begin
              match t.main with
              | Some _ -> A.semantic_error mm_pos "duplicate main method"
              | None -> t.main <- Some m_id
            end)
        c.cd_members)
    prog

(* ------------------------------------------------------------- lowering *)

type env = {
  t : t;
  meth : Ir.metho;
  cls : class_info;
  locals : (string, Ir.var_id * int) Hashtbl.t;  (* innermost, with depth *)
  mutable scopes : string list list;  (* names bound per scope, innermost first *)
  mutable buf : Ir.stmt Vec.t;
  mutable tmp_count : int;
}

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env =
  List.iter (Hashtbl.remove env.locals) (List.hd env.scopes);
  env.scopes <- List.tl env.scopes

let bind env name v =
  Hashtbl.add env.locals name (v, List.length env.scopes);
  env.scopes <- (name :: List.hd env.scopes) :: List.tl env.scopes

let declare_local env pos name ty =
  (match Hashtbl.find_opt env.locals name with
  | Some (_, depth) when depth = List.length env.scopes ->
    A.semantic_error pos "duplicate local variable %s" name
  | _ -> ());
  let v = fresh_var env.t ~method_id:env.meth.m_id ~name ~ty ~kind:`Local in
  bind env name v;
  v

let lookup_var env name : Ir.var_id option =
  Option.map fst (Hashtbl.find_opt env.locals name)

(* run [f] with a fresh statement buffer, returning what it emitted *)
let lower_into env f =
  let outer = env.buf in
  env.buf <- Vec.create Ir.Nop;
  let r = f () in
  let stmts = Vec.to_array env.buf in
  env.buf <- outer;
  (r, stmts)

let fresh_temp env ty : Ir.var_id =
  let name = "$t" ^ string_of_int env.tmp_count in
  env.tmp_count <- env.tmp_count + 1;
  fresh_var env.t ~method_id:env.meth.m_id ~name ~ty ~kind:`Temp

let emit env s = Vec.push env.buf s

let var_ty env v = (Vec.get env.t.vars v).Ir.v_ty

let new_alloc env pos kind : Ir.alloc_id =
  let a_id = Vec.length env.t.allocs in
  Vec.push env.t.allocs
    { a_id; a_kind = kind; a_method = env.meth.m_id; a_line = pos.A.line };
  a_id

let new_cast_site ?(kind = `Cast) env pos ty : Ir.cast_id =
  let x_id = Vec.length env.t.casts in
  Vec.push env.t.casts
    { x_id; x_method = env.meth.m_id; x_ty = ty; x_line = pos.A.line;
      x_kind = kind };
  x_id

let new_call_site env pos ~kind ~lhs ~recv ~args ~target : Ir.call_id =
  let cs_id = Vec.length env.t.calls in
  Vec.push env.t.calls
    { cs_id; cs_method = env.meth.m_id; cs_line = pos.A.line; cs_kind = kind;
      cs_lhs = lhs; cs_recv = recv; cs_args = args; cs_target = target };
  cs_id

let class_of_ty env pos (ty : Ir.typ) : class_info =
  match ty with
  | Tclass c -> class_info_by_id env.t c
  | _ -> A.semantic_error pos "expected an object type"

let check_args _env pos (m : Ir.metho) args =
  if Array.length m.m_params <> List.length args then
    A.semantic_error pos "method %s expects %d argument(s), got %d"
      m.m_name (Array.length m.m_params) (List.length args)

(** Lower [e] and return the variable holding its value. [dst], when given,
    is used as that variable (avoiding temporaries). *)
let rec lower_expr ?dst env (e : A.expr) : Ir.var_id =
  let pos = e.A.e_pos in
  let into ty mk =
    let d = match dst with Some d -> d | None -> fresh_temp env ty in
    emit env (mk d);
    d
  in
  match e.A.e with
  | A.Int_lit v -> into Tint (fun lhs -> ConstInt { lhs; value = v })
  | A.Bool_lit v -> into Tbool (fun lhs -> ConstBool { lhs; value = v })
  | A.Null_lit -> into Tnull (fun lhs -> ConstNull { lhs })
  | A.Str_lit value ->
    let strc = (find_class env.t pos "String").ci_id in
    let site = new_alloc env pos `String in
    into (Tclass strc) (fun lhs -> StrConst { lhs; value; site })
  | A.This -> (
    match env.meth.m_this with
    | Some v -> copy_to ?dst env v
    | None -> A.semantic_error pos "'this' in a static method")
  | A.Var name -> (
    match lookup_var env name with
    | Some v -> copy_to ?dst env v
    | None -> A.semantic_error pos "unknown variable %s" name)
  | A.Field (b, fname) -> lower_field_access ?dst env pos b fname
  | A.Static_field (cname, fname) -> lower_static_field ?dst env pos cname fname
  | A.Index (b, idx) ->
    let arr = lower_expr env b in
    let idx_v = lower_expr env idx in
    let elem_ty =
      match var_ty env arr with
      | Tarray e -> e
      | _ -> A.semantic_error pos "indexing a non-array"
    in
    into elem_ty (fun lhs -> ALoad { lhs; arr; idx = idx_v })
  | A.Call (b, mname, args) -> (
    match b.A.e with
    | A.Var cname
      when lookup_var env cname = None && Hashtbl.mem env.t.class_by_name cname ->
      (* `C.m(args)` static call *)
      lower_static_call ?dst env pos cname mname args
    | _ -> lower_virtual_call ?dst env pos b mname args)
  | A.Self_call (mname, args) -> (
    (* m(args): instance method on this, or static method of this class *)
    match lookup_method env.t env.cls.ci_id mname with
    | None -> A.semantic_error pos "unknown method %s in class %s" mname
                (class_name_of env.t env.cls.ci_id)
    | Some mid ->
      let m = Vec.get env.t.methods mid in
      if m.m_static then lower_call ?dst env pos Ir.Static None mid args
      else begin
        match env.meth.m_this with
        | None ->
          A.semantic_error pos "instance method %s called from static context" mname
        | Some this -> lower_call ?dst env pos Ir.Virtual (Some this) mid args
      end)
  | A.Static_call (cname, mname, args) -> lower_static_call ?dst env pos cname mname args
  | A.New (cname, args) -> lower_new ?dst env pos cname args
  | A.New_array (elem_ast, len) ->
    let elem = conv_ty env.t pos elem_ast in
    let len_v = lower_expr env len in
    let site = new_alloc env pos (`Array elem) in
    into (Tarray elem) (fun lhs -> NewArray { lhs; elem; len = len_v; site })
  | A.Cast (ty_ast, inner) -> (
    let ty = conv_ty env.t pos ty_ast in
    let rhs = lower_expr env inner in
    match ty with
    | Tclass _ | Tarray _ ->
      let site = new_cast_site env pos ty in
      into ty (fun lhs -> Cast { lhs; ty; rhs; site })
    | _ -> copy_to ?dst env rhs)
  | A.Instanceof (inner, ty_ast) -> (
    let ty = conv_ty env.t pos ty_ast in
    let rhs = lower_expr env inner in
    match ty with
    | Tclass _ | Tarray _ ->
      if not (Ir.is_ref_type (var_ty env rhs)) then
        A.semantic_error pos "instanceof on a primitive value";
      let site = new_cast_site ~kind:`InstanceOf env pos ty in
      into Tbool (fun lhs -> InstanceOf { lhs; ty; rhs; site })
    | _ -> A.semantic_error pos "instanceof requires a reference type")
  | A.Super_call (mname, args) -> (
    match env.meth.m_this with
    | None -> A.semantic_error pos "'super' in a static method"
    | Some this -> (
      let super =
        match (class_info_by_id env.t env.cls.ci_id).ci_super with
        | Some s -> s
        | None -> A.semantic_error pos "class has no superclass"
      in
      match lookup_method env.t super mname with
      | None ->
        A.semantic_error pos "no method %s in superclasses of %s" mname
          (class_name_of env.t env.cls.ci_id)
      | Some mid ->
        let m = Vec.get env.t.methods mid in
        if m.m_static then
          A.semantic_error pos "super call to a static method";
        lower_call ?dst env pos Ir.Special (Some this) mid args))
  | A.Binop (op, a, b) ->
    let a_v = lower_expr env a in
    let b_v = lower_expr env b in
    let op' : Ir.binop =
      match op with
      | A.Add -> Add | A.Sub -> Sub | A.Mul -> Mul | A.Div -> Div | A.Mod -> Mod
      | A.Lt -> Lt | A.Le -> Le | A.Gt -> Gt | A.Ge -> Ge | A.Eq -> Eq
      | A.Ne -> Ne | A.And -> And | A.Or -> Or
    in
    let ty : Ir.typ =
      match op with A.Add | A.Sub | A.Mul | A.Div | A.Mod -> Tint | _ -> Tbool
    in
    into ty (fun lhs -> Binop { lhs; op = op'; a = a_v; b = b_v })
  | A.Unop (op, a) ->
    let a_v = lower_expr env a in
    let op' : Ir.unop = match op with A.Not -> Not | A.Neg -> Neg in
    let ty : Ir.typ = match op with A.Not -> Tbool | A.Neg -> Tint in
    into ty (fun lhs -> Unop { lhs; op = op'; a = a_v })
  | A.Array_len a ->
    let arr = lower_expr env a in
    into Tint (fun lhs -> ALen { lhs; arr })

and copy_to ?dst env v : Ir.var_id =
  match dst with
  | None -> v
  | Some d ->
    emit env (Copy { lhs = d; rhs = v });
    d

and lower_field_access ?dst env pos base fname : Ir.var_id =
  (* `C.f` static field parses as Field(Var C, f) *)
  match base.A.e with
  | A.Var cname
    when lookup_var env cname = None && Hashtbl.mem env.t.class_by_name cname ->
    lower_static_field ?dst env pos cname fname
  | _ -> (
    let b = lower_expr env base in
    match var_ty env b with
    | Tarray _ when fname = "length" ->
      let d = match dst with Some d -> d | None -> fresh_temp env Tint in
      emit env (ALen { lhs = d; arr = b });
      d
    | bty ->
      let ci = class_of_ty env pos bty in
      (match lookup_field env.t ci.ci_id fname with
      | None ->
        A.semantic_error pos "unknown field %s in class %s" fname
          (class_name_of env.t ci.ci_id)
      | Some fld ->
        let f = Vec.get env.t.fields fld in
        if f.f_static then
          A.semantic_error pos "static field %s accessed via instance" fname;
        let d = match dst with Some d -> d | None -> fresh_temp env f.f_ty in
        emit env (Load { lhs = d; base = b; fld });
        d))

and lower_static_field ?dst env pos cname fname : Ir.var_id =
  let ci = find_class env.t pos cname in
  match lookup_field env.t ci.ci_id fname with
  | None -> A.semantic_error pos "unknown static field %s.%s" cname fname
  | Some fld ->
    let f = Vec.get env.t.fields fld in
    if not f.f_static then
      A.semantic_error pos "instance field %s.%s used statically" cname fname;
    let d = match dst with Some d -> d | None -> fresh_temp env f.f_ty in
    emit env (SLoad { lhs = d; fld });
    d

and lower_virtual_call ?dst env pos base mname args : Ir.var_id =
  let recv = lower_expr env base in
  let ci = class_of_ty env pos (var_ty env recv) in
  match lookup_method env.t ci.ci_id mname with
  | None ->
    A.semantic_error pos "unknown method %s in class %s" mname
      (class_name_of env.t ci.ci_id)
  | Some mid ->
    let m = Vec.get env.t.methods mid in
    if m.m_static then
      A.semantic_error pos "static method %s called via instance" mname;
    lower_call ?dst env pos Ir.Virtual (Some recv) mid args

and lower_static_call ?dst env pos cname mname args : Ir.var_id =
  let ci = find_class env.t pos cname in
  match lookup_method env.t ci.ci_id mname with
  | None -> A.semantic_error pos "unknown static method %s.%s" cname mname
  | Some mid ->
    let m = Vec.get env.t.methods mid in
    if not m.m_static then
      A.semantic_error pos "instance method %s.%s called statically" cname mname;
    lower_call ?dst env pos Ir.Static None mid args

and lower_call ?dst env pos (kind : Ir.invoke_kind) recv target args : Ir.var_id =
  let m = Vec.get env.t.methods target in
  check_args env pos m args;
  let arg_vs = Array.of_list (List.map (lower_expr env) args) in
  let lhs =
    match (dst, m.m_ret_ty) with
    | _, Tvoid -> None
    | Some d, _ -> Some d
    | None, ty -> Some (fresh_temp env ty)
  in
  let site = new_call_site env pos ~kind ~lhs ~recv ~args:arg_vs ~target in
  emit env (Invoke { lhs; kind; recv; target; args = arg_vs; site });
  match lhs with
  | Some d -> d
  | None ->
    (* void call in expression position: only legal as a statement *)
    fresh_temp env Tvoid

and lower_new ?dst env pos cname args : Ir.var_id =
  let ci = find_class env.t pos cname in
  let site = new_alloc env pos (`Class ci.ci_id) in
  let d =
    match dst with Some d -> d | None -> fresh_temp env (Tclass ci.ci_id)
  in
  emit env (New { lhs = d; cls = ci.ci_id; site });
  (match lookup_method env.t ci.ci_id "<init>" with
  | Some ctor ->
    let m = Vec.get env.t.methods ctor in
    check_args env pos m args;
    let arg_vs = Array.of_list (List.map (lower_expr env) args) in
    let csite =
      new_call_site env pos ~kind:Special ~lhs:None ~recv:(Some d) ~args:arg_vs
        ~target:ctor
    in
    emit env
      (Invoke { lhs = None; kind = Special; recv = Some d; target = ctor;
                args = arg_vs; site = csite })
  | None ->
    if args <> [] then
      A.semantic_error pos "class %s has no constructor but got arguments" cname);
  d

(* statements *)

let rec lower_stmt env (s : A.stmt) : unit =
  let pos = s.A.s_pos in
  match s.A.s with
  | A.Decl (ty_ast, name, init) -> (
    let ty = conv_ty env.t pos ty_ast in
    let v = declare_local env pos name ty in
    match init with
    | None -> ()
    | Some e -> ignore (lower_expr ~dst:v env e))
  | A.Assign (lv, rhs) -> (
    match lv.A.e with
    | A.Var name -> (
      match lookup_var env name with
      | Some v -> ignore (lower_expr ~dst:v env rhs)
      | None -> A.semantic_error pos "unknown variable %s" name)
    | A.Field (b, fname) -> (
      match b.A.e with
      | A.Var cname
        when lookup_var env cname = None && Hashtbl.mem env.t.class_by_name cname
        -> (
        let ci = find_class env.t pos cname in
        match lookup_field env.t ci.ci_id fname with
        | Some fld when (Vec.get env.t.fields fld).f_static ->
          let r = lower_expr env rhs in
          emit env (SStore { fld; rhs = r })
        | _ -> A.semantic_error pos "unknown static field %s.%s" cname fname)
      | _ ->
        let bv = lower_expr env b in
        let ci = class_of_ty env pos (var_ty env bv) in
        (match lookup_field env.t ci.ci_id fname with
        | None ->
          A.semantic_error pos "unknown field %s in class %s" fname
            (class_name_of env.t ci.ci_id)
        | Some fld ->
          let r = lower_expr env rhs in
          emit env (Store { base = bv; fld; rhs = r })))
    | A.Index (b, idx) ->
      let arr = lower_expr env b in
      let idx_v = lower_expr env idx in
      let r = lower_expr env rhs in
      emit env (AStore { arr; idx = idx_v; rhs = r })
    | _ -> A.semantic_error pos "invalid assignment target")
  | A.Expr e -> ignore (lower_expr env e)
  | A.Print e ->
    let v = lower_expr env e in
    emit env (Print { arg = v })
  | A.Return None -> emit env (Return None)
  | A.Return (Some e) ->
    let v = lower_expr env e in
    emit env (Return (Some v))
  | A.Block body ->
    push_scope env;
    List.iter (lower_stmt env) body;
    pop_scope env
  | A.If (cond, then_, else_) ->
    let c = lower_expr env cond in
    let then_a = lower_block env then_ in
    let else_a = lower_block env else_ in
    emit env (If { cond = c; cond_pre = [||]; then_ = then_a; else_ = else_a })
  | A.While (cond, body) ->
    (* the condition is lowered into its own buffer so the interpreter can
       re-evaluate it at each iteration *)
    let c, cond_pre = lower_into env (fun () -> lower_expr env cond) in
    let body_a = lower_block env body in
    emit env (While { cond = c; cond_pre; body = body_a })

and lower_block env (body : A.stmt list) : Ir.stmt array =
  snd
    (lower_into env (fun () ->
         push_scope env;
         List.iter (lower_stmt env) body;
         pop_scope env))

(* single-return funnelling *)

let returned_vars (body : Ir.stmt array) : Ir.var_id list =
  let acc = ref [] in
  Ir.iter_stmts
    (fun s ->
      match s with
      | Return (Some v) when not (List.mem v !acc) -> acc := v :: !acc
      | _ -> ())
    body;
  !acc

let rec rewrite_returns (ret : Ir.var_id) (body : Ir.stmt array) : Ir.stmt array =
  Array.of_list
    (List.concat_map
       (fun (s : Ir.stmt) ->
         match s with
         | Return (Some v) when v <> ret ->
           [ Ir.Copy { lhs = ret; rhs = v }; Ir.Return (Some ret) ]
         | If i ->
           [ Ir.If { i with then_ = rewrite_returns ret i.then_;
                     else_ = rewrite_returns ret i.else_ } ]
         | While w -> [ Ir.While { w with body = rewrite_returns ret w.body } ]
         | s -> [ s ])
       (Array.to_list body))

let lower_method t (ci : class_info) (mid : Ir.method_id) (decl : A.member) : unit
    =
  match decl with
  | A.M_field _ -> ()
  | A.M_method { mm_body; mm_params; _ } ->
    let meth = Vec.get t.methods mid in
    let env =
      { t; meth; cls = ci; locals = Hashtbl.create 16; scopes = [ [] ];
        buf = Vec.create Ir.Nop; tmp_count = 0 }
    in
    (* params are pre-declared vars; bring them into scope, binding in
       reverse so that a repeated name resolves to its first param *)
    List.iter2
      (fun (_, name) v -> bind env name v)
      (List.rev mm_params)
      (List.rev (Array.to_list meth.m_params));
    push_scope env;
    List.iter (lower_stmt env) mm_body;
    let body = Vec.to_array env.buf in
    let ret_var, body =
      if meth.m_ret_ty = Tvoid then (None, body)
      else
        match returned_vars body with
        | [] -> (None, body) (* falls off the end; treated as returning null *)
        | [ v ] -> (Some v, body)
        | _ ->
          let ret =
            fresh_var t ~method_id:mid ~name:"$ret" ~ty:meth.m_ret_ty ~kind:`Ret
          in
          (Some ret, rewrite_returns ret body)
    in
    Vec.set t.methods mid { meth with m_ret_var = ret_var; m_body = body }

(* ------------------------------------------------------------- finishing *)

let finish t : Ir.program =
  let classes =
    Array.of_list
      (List.rev_map
         (fun ci : Ir.klass ->
           {
             c_id = ci.ci_id;
             c_name =
               (match ci.ci_decl with Some d -> d.cd_name | None -> "Object");
             c_super = ci.ci_super;
             c_fields = List.rev ci.ci_fields;
             c_methods = List.rev ci.ci_methods;
           })
         t.class_list)
  in
  Array.sort (fun (a : Ir.klass) b -> compare a.c_id b.c_id) classes;
  let methods = Vec.to_array t.methods in
  let vars = Vec.to_array t.vars in
  let fields = Vec.to_array t.fields in
  let nclasses = Array.length classes in
  (* vtables *)
  let vtables = Array.init nclasses (fun _ -> Hashtbl.create 8) in
  let rec fill_vtable c =
    let k = classes.(c) in
    if Hashtbl.length vtables.(c) = 0 then begin
      (match k.c_super with
      | Some s ->
        fill_vtable s;
        Hashtbl.iter (fun name m -> Hashtbl.replace vtables.(c) name m) vtables.(s)
      | None -> ());
      List.iter
        (fun mid ->
          let m = methods.(mid) in
          if (not m.m_static) && m.m_name <> "<init>" then
            Hashtbl.replace vtables.(c) m.m_name mid)
        k.c_methods
    end
  in
  for c = 0 to nclasses - 1 do fill_vtable c done;
  (* subtype bitsets: subtypes.(b) = { a | a <: b } *)
  let subtypes = Array.init nclasses (fun _ -> Bits.create ()) in
  for a = 0 to nclasses - 1 do
    let rec up c =
      ignore (Bits.add subtypes.(c) a);
      match classes.(c).c_super with Some s -> up s | None -> ()
    in
    up a
  done;
  (* def counts *)
  let def_counts = Array.make (Array.length vars) 0 in
  Array.iter
    (fun (m : Ir.metho) ->
      Ir.iter_stmts
        (fun s ->
          match Ir.def_of s with
          | Some v -> def_counts.(v) <- def_counts.(v) + 1
          | None -> ())
        m.m_body)
    methods;
  let main =
    match t.main with
    | Some m -> m
    | None -> A.semantic_error A.dummy_pos "no static main method found"
  in
  let object_cls = (Hashtbl.find t.class_by_name "Object").ci_id in
  let string_cls =
    match Hashtbl.find_opt t.class_by_name "String" with
    | Some ci -> ci.ci_id
    | None -> object_cls
  in
  {
    classes;
    fields;
    methods;
    vars;
    allocs = Vec.to_array t.allocs;
    calls = Vec.to_array t.calls;
    casts = Vec.to_array t.casts;
    main;
    object_cls;
    string_cls;
    def_counts;
    vtables;
    subtypes;
  }

(** Compile a list of (unit-name, source) pairs into one program. Each
    phase is a ["frontend"] trace span; lexing has no span of its own,
    because the parser pulls tokens as it goes, so [parse] covers both. *)
let compile (sources : (string * string) list) : Ir.program =
  let span name f = Csc_obs.Trace.with_span ~cat:"frontend" name f in
  let asts =
    span "parse" (fun () ->
        List.concat_map (fun (_name, src) -> Parser.parse_program src) sources)
  in
  let t = create () in
  span "declare" (fun () ->
      declare_classes t asts;
      declare_members t asts);
  span "lower" (fun () ->
      List.iter
        (fun (c : A.class_decl) ->
          let ci = Hashtbl.find t.class_by_name c.cd_name in
          (* pair declared methods with their ids, in declaration order *)
          let decls =
            List.filter (function A.M_method _ -> true | _ -> false) c.cd_members
          in
          List.iter2 (lower_method t ci) (List.rev ci.ci_methods) decls)
        asts);
  span "finish" (fun () -> finish t)
