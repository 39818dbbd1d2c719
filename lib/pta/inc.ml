(** Incremental re-analysis over the imperative solver (DESIGN.md S20).

    Strategy: {b transplant + re-run} — retraction by non-transplant,
    deletion via rederivation. Given the solved state of an old program
    revision and a new revision, we

    + {b diff} the two programs at method granularity (classes, fields and
      hierarchy must match by name, or we fall back to a fresh solve);
      matched methods are fingerprinted by signature, by a name-based body
      rendering (dense ids differ across compiles, names don't) and by an
      optional analysis-specific classification fingerprint (the
      Cut-Shortcut pattern classification is a whole-program property, so a
      method whose patterns change is "edited" even when its text is not);
    + compute a {b dirtiness closure} over the old solver's pointer flow
      graph: every pointer whose facts might not hold in the new program's
      least fixpoint. Seeds are the pointers and heap objects of dirty
      methods plus the lhs/params of virtual sites whose dispatch key names
      an added or removed method; the closure follows PFG successor edges,
      replays the solver's watch rules in "retraction direction" (a dirty
      watched base dirties whatever the watch derived), and consults an
      optional plugin {!type-hook} for analysis-specific derived state;
    + compute {b NR}, an under-approximation of the new program's reachable
      methods (statics unconditionally, virtual/special sites in clean
      methods through clean receivers by re-dispatching the old points-to
      sets on the {e new} class table). Old-reachable methods without an NR
      match might have lost reachability, so they join the dirty set and the
      closure re-runs — to a (monotone, terminating) fixpoint;
    + {b preseed} a fresh solver on the new program with every clean,
      translatable fact, pushed through {!Solver.seed} so each preloaded set
      arrives as an ordinary worklist delta: all watches, call-graph rules
      and plugin subscriptions replay over it exactly as over derived
      facts. The subsequent run re-derives everything retracted and reaches
      the same fixpoint a from-scratch solve would — the
      [Soundness.check_incremental] oracle asserts bit-identity. *)

open Csc_common
module Ir = Csc_ir.Ir
module Registry = Csc_obs.Registry
module S = Solver

(* ------------------------------------------------------------- edits *)

type edit =
  | Replace_method of { cls : string; meth : string; body : string }
  | Add_method of { cls : string; meth_src : string }
  | Remove_method of { cls : string; meth : string }

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

(* index of the '}' matching the '{' at [open_i], skipping string literals
   and line comments *)
let match_brace src open_i : int option =
  let n = String.length src in
  let depth = ref 0 in
  let i = ref open_i in
  let res = ref (-1) in
  let in_str = ref false and in_cmt = ref false in
  while !res < 0 && !i < n do
    let c = src.[!i] in
    if !in_cmt then (if c = '\n' then in_cmt := false)
    else if !in_str then (if c = '"' then in_str := false)
    else begin
      match c with
      | '"' -> in_str := true
      | '/' when !i + 1 < n && src.[!i + 1] = '/' -> in_cmt := true
      | '{' -> incr depth
      | '}' ->
        decr depth;
        if !depth = 0 then res := !i
      | _ -> ()
    end;
    incr i
  done;
  if !res < 0 then None else Some !res

let skip_ws src i =
  let n = String.length src in
  let i = ref i in
  while !i < n && (src.[!i] = ' ' || src.[!i] = '\n' || src.[!i] = '\t' || src.[!i] = '\r') do
    incr i
  done;
  !i

(* (class_start, body_open, body_close) of [class <cls> ... { ... }] *)
let find_class src cls : (int * int * int) option =
  let n = String.length src in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i + 5 < n do
    if
      String.sub src !i 5 = "class"
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
      && not (is_ident_char src.[!i + 5])
    then begin
      let j = skip_ws src (!i + 5) in
      let k = ref j in
      while !k < n && is_ident_char src.[!k] do
        incr k
      done;
      if String.sub src j (!k - j) = cls then begin
        (* skip optional "extends X" up to the opening brace *)
        let b = ref !k in
        while !b < n && src.[!b] <> '{' do
          incr b
        done;
        if !b < n then
          match match_brace src !b with
          | Some e -> result := Some (!i, !b, e)
          | None -> ()
      end
    end;
    incr i
  done;
  !result

(* (header_start, body_open, body_close) of method [meth] declared directly
   in the class body spanning [cls_open+1 .. cls_close-1] *)
let find_method src ~cls_open ~cls_close meth : (int * int * int) option =
  let result = ref None in
  let depth = ref 0 in
  let i = ref (cls_open + 1) in
  let member_start = ref (cls_open + 1) in
  let in_str = ref false and in_cmt = ref false in
  let ml = String.length meth in
  while !result = None && !i < cls_close do
    let c = src.[!i] in
    if !in_cmt then begin
      (if c = '\n' then in_cmt := false);
      incr i
    end
    else if !in_str then begin
      (if c = '"' then in_str := false);
      incr i
    end
    else
      match c with
      | '"' ->
        in_str := true;
        incr i
      | '/' when !i + 1 < cls_close && src.[!i + 1] = '/' ->
        in_cmt := true;
        incr i
      | '{' ->
        incr depth;
        incr i
      | '}' ->
        decr depth;
        if !depth = 0 then member_start := skip_ws src (!i + 1);
        incr i
      | ';' when !depth = 0 ->
        member_start := skip_ws src (!i + 1);
        incr i
      | _
        when !depth = 0 && is_ident_char c
             && (!i = 0 || not (is_ident_char src.[!i - 1]))
             && !i + ml < cls_close
             && String.sub src !i ml = meth
             && not (is_ident_char src.[!i + ml]) -> (
        (* method name at class depth: expect '(' next (fields end in ';') *)
        let p = skip_ws src (!i + ml) in
        if p < cls_close && src.[p] = '(' then begin
          let q = ref p in
          while !q < cls_close && src.[!q] <> ')' do
            incr q
          done;
          let b = skip_ws src (!q + 1) in
          if b < cls_close && src.[b] = '{' then
            match match_brace src b with
            | Some e -> result := Some (!member_start, b, e)
            | None -> ()
          else i := !i + ml
        end
        else i := !i + ml)
      | _ -> incr i
  done;
  !result

let apply_edit (src : string) (e : edit) : (string, string) result =
  let cls_of = function
    | Replace_method { cls; _ } | Add_method { cls; _ } | Remove_method { cls; _ }
      -> cls
  in
  match find_class src (cls_of e) with
  | None -> Error (Printf.sprintf "edit: class %s not found" (cls_of e))
  | Some (_, copen, cclose) -> (
    match e with
    | Add_method { meth_src; _ } ->
      Ok
        (String.sub src 0 cclose
        ^ "  " ^ meth_src ^ "\n"
        ^ String.sub src cclose (String.length src - cclose))
    | Replace_method { cls; meth; body } -> (
      match find_method src ~cls_open:copen ~cls_close:cclose meth with
      | None -> Error (Printf.sprintf "edit: method %s.%s not found" cls meth)
      | Some (_, bopen, bclose) ->
        Ok
          (String.sub src 0 (bopen + 1)
          ^ "\n" ^ body ^ "\n  "
          ^ String.sub src bclose (String.length src - bclose)))
    | Remove_method { cls; meth } -> (
      match find_method src ~cls_open:copen ~cls_close:cclose meth with
      | None -> Error (Printf.sprintf "edit: method %s.%s not found" cls meth)
      | Some (hstart, _, bclose) ->
        Ok
          (String.sub src 0 hstart
          ^ String.sub src (bclose + 1) (String.length src - bclose - 1))))

let apply_edits (src : string) (edits : edit list) : (string, string) result =
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok s -> apply_edit s e)
    (Ok src) edits

(* ------------------------------------------------- name fingerprints *)

let rec typ_str (p : Ir.program) = function
  | Ir.Tint -> "I"
  | Ir.Tbool -> "Z"
  | Ir.Tvoid -> "V"
  | Ir.Tnull -> "0"
  | Ir.Tclass c -> Ir.class_name p c
  | Ir.Tarray t -> "[" ^ typ_str p t

let vn p v = (Ir.var p v).Ir.v_name
let fn p f =
  let fl = Ir.field p f in
  Ir.class_name p fl.Ir.f_class ^ "." ^ fl.Ir.f_name

let mn p m =
  let mt = Ir.metho p m in
  Ir.class_name p mt.Ir.m_class ^ "." ^ mt.Ir.m_name

(* stable, id-free rendering of a method body: variable/field/class/method
   names instead of dense ids, site ids and line numbers omitted *)
let body_fp (p : Ir.program) (m : Ir.metho) : string =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ov = function Some v -> vn p v | None -> "_" in
  let rec stmt (s : Ir.stmt) =
    match s with
    | Ir.New { lhs; cls; _ } -> pf "new %s %s;" (vn p lhs) (Ir.class_name p cls)
    | Ir.NewArray { lhs; elem; len; _ } ->
      pf "newarr %s %s %s;" (vn p lhs) (typ_str p elem) (vn p len)
    | Ir.StrConst { lhs; value; _ } -> pf "str %s %S;" (vn p lhs) value
    | Ir.ConstInt { lhs; value } -> pf "ci %s %d;" (vn p lhs) value
    | Ir.ConstBool { lhs; value } -> pf "cb %s %b;" (vn p lhs) value
    | Ir.ConstNull { lhs } -> pf "cn %s;" (vn p lhs)
    | Ir.Copy { lhs; rhs } -> pf "cp %s %s;" (vn p lhs) (vn p rhs)
    | Ir.Cast { lhs; ty; rhs; _ } ->
      pf "cast %s (%s) %s;" (vn p lhs) (typ_str p ty) (vn p rhs)
    | Ir.InstanceOf { lhs; ty; rhs; _ } ->
      pf "iof %s (%s) %s;" (vn p lhs) (typ_str p ty) (vn p rhs)
    | Ir.Load { lhs; base; fld } -> pf "ld %s %s %s;" (vn p lhs) (vn p base) (fn p fld)
    | Ir.Store { base; fld; rhs } -> pf "st %s %s %s;" (vn p base) (fn p fld) (vn p rhs)
    | Ir.ALoad { lhs; arr; idx } -> pf "ald %s %s %s;" (vn p lhs) (vn p arr) (vn p idx)
    | Ir.AStore { arr; idx; rhs } -> pf "ast %s %s %s;" (vn p arr) (vn p idx) (vn p rhs)
    | Ir.ALen { lhs; arr } -> pf "alen %s %s;" (vn p lhs) (vn p arr)
    | Ir.SLoad { lhs; fld } -> pf "sld %s %s;" (vn p lhs) (fn p fld)
    | Ir.SStore { fld; rhs } -> pf "sst %s %s;" (fn p fld) (vn p rhs)
    | Ir.Binop { lhs; op; a; b } ->
      pf "bin %s %d %s %s;" (vn p lhs) (Hashtbl.hash op) (vn p a) (vn p b)
    | Ir.Unop { lhs; op; a } ->
      pf "un %s %d %s;" (vn p lhs) (Hashtbl.hash op) (vn p a)
    | Ir.Invoke { lhs; kind; recv; target; args; _ } ->
      pf "inv %s %s %s %s("
        (match lhs with Some l -> vn p l | None -> "_")
        (match kind with Ir.Virtual -> "v" | Ir.Special -> "s" | Ir.Static -> "c")
        (ov recv) (mn p target);
      Array.iter (fun a -> pf "%s," (vn p a)) args;
      pf ");"
    | Ir.Return v -> pf "ret %s;" (ov v)
    | Ir.If { cond; cond_pre; then_; else_ } ->
      pf "if %s pre{" (vn p cond);
      Array.iter stmt cond_pre;
      pf "}{";
      Array.iter stmt then_;
      pf "}else{";
      Array.iter stmt else_;
      pf "}"
    | Ir.While { cond; cond_pre; body } ->
      pf "while %s pre{" (vn p cond);
      Array.iter stmt cond_pre;
      pf "}{";
      Array.iter stmt body;
      pf "}"
    | Ir.Print { arg } -> pf "print %s;" (vn p arg)
    | Ir.Nop -> pf "nop;"
  in
  Array.iter stmt m.Ir.m_body;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let sig_fp (p : Ir.program) (m : Ir.metho) : string =
  let buf = Buffer.create 64 in
  Buffer.add_string buf m.Ir.m_name;
  Buffer.add_string buf (if m.Ir.m_static then "/s/" else "/i/");
  (match m.Ir.m_this with
  | Some v -> Buffer.add_string buf (vn p v)
  | None -> ());
  Array.iter
    (fun v ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (vn p v);
      Buffer.add_char buf ':';
      Buffer.add_string buf (typ_str p (Ir.var p v).Ir.v_ty))
    m.Ir.m_params;
  Buffer.add_char buf '>';
  Buffer.add_string buf (typ_str p m.Ir.m_ret_ty);
  (match m.Ir.m_ret_var with
  | Some v -> Buffer.add_string buf (vn p v)
  | None -> ());
  Buffer.contents buf

(* ------------------------------------------------------ program diff *)

type dmatch = {
  d_ok : bool;
  d_reason : string;
  class_map : int array; (* old -> new (total when d_ok) *)
  field_map : int array; (* old -> new (total when d_ok) *)
  meth_map : int array; (* old -> new, -1 for removed *)
  meth_rmap : int array; (* new -> old, -1 for added *)
  var_map : int array; (* old -> new, -1 outside matched-clean methods *)
  alloc_map : int array;
  call_rmap : int array; (* new call site -> old call site, -1 unknown *)
  dirty_seed : Bits.t; (* old method ids: edited or removed *)
  n_edited : int; (* |dirty_seed| + added methods, for the K% policy *)
  vt_names : (string, unit) Hashtbl.t; (* dispatch keys that may change *)
}

let no_match reason =
  {
    d_ok = false;
    d_reason = reason;
    class_map = [||];
    field_map = [||];
    meth_map = [||];
    meth_rmap = [||];
    var_map = [||];
    alloc_map = [||];
    call_rmap = [||];
    dirty_seed = Bits.create ();
    n_edited = 0;
    vt_names = Hashtbl.create 1;
  }

(* group a flat entity array by a method projection, preserving creation
   order within each method *)
let by_method (arr : 'a array) (meth : 'a -> int) : (int, 'a list) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  for i = Array.length arr - 1 downto 0 do
    let m = meth arr.(i) in
    Hashtbl.replace tbl m (arr.(i) :: (try Hashtbl.find tbl m with Not_found -> []))
  done;
  tbl

let diff ?classify_old ?classify_new (op : Ir.program) (np : Ir.program) : dmatch =
  let exception Mismatch of string in
  try
    (* ---- classes: same name set, same hierarchy, same fields ---- *)
    let ncls = Hashtbl.create 64 in
    Array.iter (fun (c : Ir.klass) -> Hashtbl.replace ncls c.Ir.c_name c.Ir.c_id) np.Ir.classes;
    if Array.length op.Ir.classes <> Array.length np.Ir.classes then
      raise (Mismatch "class set changed");
    let class_map =
      Array.map
        (fun (c : Ir.klass) ->
          match Hashtbl.find_opt ncls c.Ir.c_name with
          | Some id -> id
          | None -> raise (Mismatch ("class removed: " ^ c.Ir.c_name)))
        op.Ir.classes
    in
    let field_map = Array.make (Array.length op.Ir.fields) (-1) in
    Array.iteri
      (fun ci (c : Ir.klass) ->
        let nc = Ir.klass np class_map.(ci) in
        (match (c.Ir.c_super, nc.Ir.c_super) with
        | None, None -> ()
        | Some a, Some b when class_map.(a) = b -> ()
        | _ -> raise (Mismatch ("superclass changed: " ^ c.Ir.c_name)));
        let ofs = List.map (Ir.field op) c.Ir.c_fields in
        let nfs = List.map (Ir.field np) nc.Ir.c_fields in
        if List.length ofs <> List.length nfs then
          raise (Mismatch ("fields changed: " ^ c.Ir.c_name));
        List.iter2
          (fun (f : Ir.field) (g : Ir.field) ->
            if
              f.Ir.f_name <> g.Ir.f_name
              || f.Ir.f_static <> g.Ir.f_static
              || typ_str op f.Ir.f_ty <> typ_str np g.Ir.f_ty
            then raise (Mismatch ("fields changed: " ^ c.Ir.c_name));
            field_map.(f.Ir.f_id) <- g.Ir.f_id)
          ofs nfs)
      op.Ir.classes;
    if Array.exists (fun f -> f < 0) field_map then
      raise (Mismatch "field set changed");
    (* ---- methods: match by (class, name) ---- *)
    let nmeth = Hashtbl.create 256 in
    Array.iter
      (fun (m : Ir.metho) ->
        Hashtbl.replace nmeth
          (Ir.class_name np m.Ir.m_class, m.Ir.m_name)
          m.Ir.m_id)
      np.Ir.methods;
    let n_old = Array.length op.Ir.methods in
    let n_new = Array.length np.Ir.methods in
    let meth_map = Array.make n_old (-1) in
    let meth_rmap = Array.make n_new (-1) in
    Array.iteri
      (fun i (m : Ir.metho) ->
        match Hashtbl.find_opt nmeth (Ir.class_name op m.Ir.m_class, m.Ir.m_name) with
        | Some j ->
          meth_map.(i) <- j;
          meth_rmap.(j) <- i
        | None -> ())
      op.Ir.methods;
    let dirty_seed = Bits.create () in
    let vt_names = Hashtbl.create 8 in
    let n_added = ref 0 in
    Array.iteri
      (fun i (m : Ir.metho) ->
        let j = meth_map.(i) in
        if j < 0 then begin
          ignore (Bits.add dirty_seed i);
          Hashtbl.replace vt_names m.Ir.m_name ()
        end
        else begin
          let nm = Ir.metho np j in
          let clean =
            sig_fp op m = sig_fp np nm
            && body_fp op m = body_fp np nm
            && (match (classify_old, classify_new) with
               | Some f, Some g -> f i = g j
               | _ -> true)
          in
          if not clean then ignore (Bits.add dirty_seed i)
        end)
      op.Ir.methods;
    Array.iteri
      (fun j (m : Ir.metho) ->
        if meth_rmap.(j) < 0 then begin
          incr n_added;
          Hashtbl.replace vt_names m.Ir.m_name ()
        end)
      np.Ir.methods;
    (* ---- positional var/alloc/call maps for matched-clean methods ---- *)
    let var_map = Array.make (Array.length op.Ir.vars) (-1) in
    let alloc_map = Array.make (Array.length op.Ir.allocs) (-1) in
    let call_rmap = Array.make (Array.length np.Ir.calls) (-1) in
    let ovars = by_method op.Ir.vars (fun (v : Ir.var) -> v.Ir.v_method) in
    let nvars = by_method np.Ir.vars (fun (v : Ir.var) -> v.Ir.v_method) in
    let oallocs = by_method op.Ir.allocs (fun (a : Ir.alloc_site) -> a.Ir.a_method) in
    let nallocs = by_method np.Ir.allocs (fun (a : Ir.alloc_site) -> a.Ir.a_method) in
    let ocalls = by_method op.Ir.calls (fun (c : Ir.call_site) -> c.Ir.cs_method) in
    let ncalls = by_method np.Ir.calls (fun (c : Ir.call_site) -> c.Ir.cs_method) in
    let get tbl m = try Hashtbl.find tbl m with Not_found -> [] in
    let demote i =
      (* positional maps inconsistent despite equal fingerprints: treat the
         method as edited rather than risk a wrong translation *)
      ignore (Bits.add dirty_seed i)
    in
    for i = 0 to n_old - 1 do
      let j = meth_map.(i) in
      if j >= 0 && not (Bits.mem dirty_seed i) then begin
        let ov = get ovars i and nv = get nvars j in
        let oa = get oallocs i and na = get nallocs j in
        let oc = get ocalls i and nc = get ncalls j in
        if
          List.length ov <> List.length nv
          || List.length oa <> List.length na
          || List.length oc <> List.length nc
        then demote i
        else begin
          List.iter2
            (fun (a : Ir.var) (b : Ir.var) ->
              if a.Ir.v_name = b.Ir.v_name && a.Ir.v_kind = b.Ir.v_kind then
                var_map.(a.Ir.v_id) <- b.Ir.v_id
              else demote i)
            ov nv;
          List.iter2
            (fun (a : Ir.alloc_site) (b : Ir.alloc_site) ->
              let same =
                match (a.Ir.a_kind, b.Ir.a_kind) with
                | `Class ca, `Class cb -> class_map.(ca) = cb
                | `Array ta, `Array tb -> typ_str op ta = typ_str np tb
                | `String, `String -> true
                | _ -> false
              in
              if same then alloc_map.(a.Ir.a_id) <- b.Ir.a_id else demote i)
            oa na;
          List.iter2
            (fun (a : Ir.call_site) (b : Ir.call_site) ->
              if
                a.Ir.cs_kind = b.Ir.cs_kind
                && mn op a.Ir.cs_target = mn np b.Ir.cs_target
              then call_rmap.(b.Ir.cs_id) <- a.Ir.cs_id
              else demote i)
            oc nc
        end
      end
    done;
    {
      d_ok = true;
      d_reason = "";
      class_map;
      field_map;
      meth_map;
      meth_rmap;
      var_map;
      alloc_map;
      call_rmap;
      dirty_seed;
      n_edited = Bits.cardinal dirty_seed + !n_added;
      vt_names;
    }
  with Mismatch reason -> no_match reason

(* ------------------------------------------------- planning the update *)

(** Analysis-specific dirtiness rules (Cut-Shortcut installs shortcut edges
    and relay seeds whose derivations the generic closure cannot see). The
    hook is called once per closure round with membership tests over the
    {e old} solver's id spaces and must [mark] every old pointer whose
    plugin-derived facts might not persist; it runs until it marks nothing
    new. *)
type hook =
  dirty_ptr:(int -> bool) ->
  dirty_obj:(int -> bool) ->
  dirty_meth:(int -> bool) ->
  mark:(int -> unit) ->
  unit

type info = {
  i_mode : [ `Incremental | `Fresh ];
  i_reason : string;
  mutable i_dirty_methods : int;
  mutable i_dirty_ptrs : int;
  mutable i_preloaded : int; (* (ptr, obj) facts carried over *)
  mutable i_retracted : int; (* old facts not carried over *)
  mutable i_rounds : int; (* dirtiness-closure rounds *)
  mutable i_reuse : float; (* preloaded / old facts *)
}

let fresh_info reason =
  {
    i_mode = `Fresh;
    i_reason = reason;
    i_dirty_methods = 0;
    i_dirty_ptrs = 0;
    i_preloaded = 0;
    i_retracted = 0;
    i_rounds = 0;
    i_reuse = 0.;
  }

type plan = Fallback of string | Preseed of (S.t -> unit) * info

let plan ?(k_percent = 20) ?classify_old ?classify_new ?(hook : hook option)
    ~(old : S.t) (np : Ir.program) : plan =
  let op = old.S.prog in
  if Interner.count old.S.ctxs <> 1 then
    Fallback "context-sensitive solver state"
  else begin
    let d = diff ?classify_old ?classify_new op np in
    if not d.d_ok then Fallback d.d_reason
    else if
      d.n_edited * 100 > k_percent * max 1 (Array.length op.Ir.methods)
    then
      Fallback
        (Printf.sprintf "edit touches %d of %d methods (> %d%%)" d.n_edited
           (Array.length op.Ir.methods) k_percent)
    else begin
      let rounds = ref 0 in
      (* per-variable pointer index over the old solver (all contexts) *)
      let var_ptrs : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
      Interner.iteri
        (fun id desc ->
          match desc with
          | S.PVar (_, v) ->
            Hashtbl.replace var_ptrs v
              (id :: (try Hashtbl.find var_ptrs v with Not_found -> []))
          | _ -> ())
        old.S.ptrs;
      (* old projected call graph, per site *)
      let site_callees : (int, int list) Hashtbl.t = Hashtbl.create 256 in
      Hashtbl.iter
        (fun k () ->
          let site = k / old.S.n_methods and callee = k mod old.S.n_methods in
          Hashtbl.replace site_callees site
            (callee :: (try Hashtbl.find site_callees site with Not_found -> [])))
        old.S.call_edges_proj;
      (* outer fixpoint: dirty methods -> dirty pointers -> guaranteed
         reachability -> possibly-unreachable methods -> dirty methods *)
      let dm = Bits.copy d.dirty_seed in
      let final = ref None in
      while !final = None do
        let dobj = Bits.create () in
        Interner.iteri
          (fun o (_, site) ->
            if Bits.mem dm (Ir.alloc op site).Ir.a_method then
              ignore (Bits.add dobj o))
          old.S.objs;
        let dirtyp = Bits.create () in
        let q = Queue.create () in
        let mark p = if Bits.add dirtyp p then Queue.push p q in
        let mark_var v =
          match Hashtbl.find_opt var_ptrs v with
          | Some l -> List.iter mark l
          | None -> ()
        in
        let mark_callee_params callee =
          let m = Ir.metho op callee in
          (match m.Ir.m_this with Some th -> mark_var th | None -> ());
          Array.iter mark_var m.Ir.m_params
        in
        (* seeds: pointers and heap nodes of dirty methods *)
        Interner.iteri
          (fun id desc ->
            match desc with
            | S.PVar (_, v) ->
              if Bits.mem dm (Ir.var op v).Ir.v_method then mark id
            | S.PField (o, _) | S.PArr o -> if Bits.mem dobj o then mark id
            | S.PStatic _ -> ())
          old.S.ptrs;
        (* virtual sites whose dispatch key names an added/removed method:
           dispatch may change, so the call's lhs and every old callee's
           this/params are suspect (reachability is handled by NR, which
           re-dispatches on the new class table) *)
        if Hashtbl.length d.vt_names > 0 then
          Array.iter
            (fun (cs : Ir.call_site) ->
              if
                cs.Ir.cs_kind = Ir.Virtual
                && Hashtbl.mem d.vt_names (Ir.metho op cs.Ir.cs_target).Ir.m_name
              then begin
                (match cs.Ir.cs_lhs with Some l -> mark_var l | None -> ());
                match Hashtbl.find_opt site_callees cs.Ir.cs_id with
                | Some callees -> List.iter mark_callee_params callees
                | None -> ()
              end)
            op.Ir.calls;
        (* closure: follow PFG successors; replay watch rules in retraction
           direction (dirty watched pointer -> whatever the watch derived) *)
        let drain () =
          while not (Queue.is_empty q) do
            let p = Queue.pop q in
            List.iter (fun (e : S.edge) -> mark e.S.e_dst) (S.succs old p);
            List.iter
              (fun (w : S.watch) ->
                match w with
                | S.WLoad { lhs; _ } | S.WALoad { lhs; _ } -> mark_var lhs
                | S.WStore { fld; _ } ->
                  Bits.iter
                    (fun o ->
                      if S.obj_class old o <> None then
                        match
                          Interner.find_opt old.S.ptrs (S.PField (o, fld))
                        with
                        | Some fp -> mark fp
                        | None -> ())
                    (S.pts old p)
                | S.WAStore _ ->
                  Bits.iter
                    (fun o ->
                      match Interner.find_opt old.S.ptrs (S.PArr o) with
                      | Some ap -> mark ap
                      | None -> ())
                    (S.pts old p)
                | S.WInvoke { site; _ } -> (
                  let cs = Ir.call op site in
                  (match cs.Ir.cs_lhs with Some l -> mark_var l | None -> ());
                  match Hashtbl.find_opt site_callees site with
                  | Some callees -> List.iter mark_callee_params callees
                  | None -> ()))
              (Vec.get old.S.watches p)
          done
        in
        incr rounds;
        drain ();
        (match hook with
        | None -> ()
        | Some h ->
          let again = ref true in
          while !again do
            incr rounds;
            h
              ~dirty_ptr:(Bits.mem dirtyp)
              ~dirty_obj:(fun o -> Bits.mem dobj o)
              ~dirty_meth:(fun m -> Bits.mem dm m)
              ~mark;
            if Queue.is_empty q then again := false else drain ()
          done);
        (* NR: guaranteed-reachable methods of the new program *)
        let nr = Bits.create () in
        ignore (Bits.add nr np.Ir.main);
        let obj_translatable o =
          let _, site = Interner.get old.S.objs o in
          let a = Ir.alloc op site in
          (not (Bits.mem dm a.Ir.a_method))
          && d.alloc_map.(site) >= 0
          &&
          let nm = d.meth_map.(a.Ir.a_method) in
          nm >= 0 && Bits.mem nr nm
        in
        let clean_recv_pts (r : Ir.var_id) : Bits.t option =
          (* receiver pointer of an *old* site, if provably unchanged *)
          match Interner.find_opt old.S.ptrs (S.PVar (0, r)) with
          | Some rp when not (Bits.mem dirtyp rp) ->
            Some (S.pts old rp)
          | _ -> None
        in
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun m ->
              let mm = Ir.metho np m in
              let om = if m < Array.length d.meth_rmap then d.meth_rmap.(m) else -1 in
              let m_clean = om >= 0 && not (Bits.mem dm om) in
              Ir.iter_method_stmts
                (fun s ->
                  match s with
                  | Ir.Invoke { kind = Ir.Static; target; _ } ->
                    if Bits.add nr target then changed := true
                  | Ir.Invoke { kind = Ir.Virtual | Ir.Special; site; target; args; _ }
                    when m_clean && d.call_rmap.(site) >= 0 -> (
                    let ocs = Ir.call op d.call_rmap.(site) in
                    match ocs.Ir.cs_recv with
                    | None -> ()
                    | Some r -> (
                      match clean_recv_pts r with
                      | None -> ()
                      | Some pts ->
                        Bits.iter
                          (fun o ->
                            if obj_translatable o then
                              let callee =
                                match ocs.Ir.cs_kind with
                                | Ir.Special -> Some target
                                | Ir.Virtual -> (
                                  match S.obj_class old o with
                                  | Some ocls ->
                                    Ir.dispatch np d.class_map.(ocls)
                                      (Ir.metho np target).Ir.m_name
                                  | None -> None)
                                | Ir.Static -> None
                              in
                              match callee with
                              | Some callee
                                when Array.length (Ir.metho np callee).Ir.m_params
                                     = Array.length args ->
                                if Bits.add nr callee then changed := true
                              | _ -> ())
                          pts))
                  | _ -> ())
                mm)
            (Bits.to_list nr)
        done;
        (* methods that may have lost reachability become dirty; iterate *)
        let grew = ref false in
        Bits.iter
          (fun om ->
            let nm = if om < Array.length d.meth_map then d.meth_map.(om) else -1 in
            if (nm < 0 || not (Bits.mem nr nm)) && Bits.add dm om then
              grew := true)
          old.S.reached_methods;
        if not !grew then final := Some (dirtyp, dobj, nr)
      done;
      let dirtyp, dobj, nr =
        match !final with Some x -> x | None -> assert false
      in
      let info =
        {
          i_mode = `Incremental;
          i_reason = "";
          i_dirty_methods = Bits.cardinal dm;
          i_dirty_ptrs = Bits.cardinal dirtyp;
          i_preloaded = 0;
          i_retracted = 0;
          i_rounds = !rounds;
          i_reuse = 0.;
        }
      in
      let preseed (nt : S.t) =
        let entry_new = Interner.intern nt.S.ctxs [] in
        (* old object -> new object id (or -1), memoized *)
        let obj_tr : (int, int) Hashtbl.t = Hashtbl.create 1024 in
        let tr_obj o =
          match Hashtbl.find_opt obj_tr o with
          | Some r -> r
          | None ->
            let r =
              if Bits.mem dobj o then -1
              else
                let _, site = Interner.get old.S.objs o in
                let a = Ir.alloc op site in
                if Bits.mem dm a.Ir.a_method || d.alloc_map.(site) < 0 then -1
                else
                  let nm = d.meth_map.(a.Ir.a_method) in
                  if nm < 0 || not (Bits.mem nr nm) then -1
                  else S.intern_obj nt ~hctx:entry_new ~site:d.alloc_map.(site)
            in
            Hashtbl.add obj_tr o r;
            r
        in
        let tr_set pid =
          let out = Bits.create () in
          Bits.iter
            (fun o ->
              let o' = tr_obj o in
              if o' >= 0 then ignore (Bits.add out o'))
            (Vec.get old.S.pts pid);
          out
        in
        let preloaded = ref 0 and total = ref 0 in
        Interner.iteri
          (fun pid desc ->
            let sz = Bits.cardinal (Vec.get old.S.pts pid) in
            total := !total + sz;
            if sz > 0 && not (Bits.mem dirtyp pid) then begin
              let dst =
                match desc with
                | S.PVar (_, v) ->
                  let v' = d.var_map.(v) in
                  if v' < 0 then None
                  else
                    let nm = d.meth_map.((Ir.var op v).Ir.v_method) in
                    if nm >= 0 && Bits.mem nr nm then
                      Some (S.ptr_var nt ~ctx:entry_new v')
                    else None
                | S.PField (o, fld) ->
                  let o' = tr_obj o and f' = d.field_map.(fld) in
                  if o' >= 0 && f' >= 0 then
                    Some (S.ptr_field nt ~obj:o' ~fld:f')
                  else None
                | S.PArr o ->
                  let o' = tr_obj o in
                  if o' >= 0 then Some (S.ptr_arr nt ~obj:o') else None
                | S.PStatic fld ->
                  let f' = d.field_map.(fld) in
                  if f' >= 0 then Some (S.ptr_static nt ~fld:f') else None
              in
              match dst with
              | Some dp ->
                let s = tr_set pid in
                preloaded := !preloaded + Bits.cardinal s;
                S.seed ~why:"inc" nt dp s
              | None -> ()
            end)
          old.S.ptrs;
        info.i_preloaded <- !preloaded;
        info.i_retracted <- !total - !preloaded;
        info.i_reuse <-
          (if !total = 0 then 1. else float_of_int !preloaded /. float_of_int !total)
      in
      Preseed (preseed, info)
    end
  end

(* ----------------------------------------------------------- telemetry *)

(** Publish the update's telemetry as [inc_*] metrics on a solver registry
    (so they ride along in snapshots and outcome JSON). *)
let record (reg : Registry.t) (i : info) =
  Registry.incr ~by:i.i_dirty_methods (Registry.counter reg "inc_dirty_methods");
  Registry.incr ~by:i.i_dirty_ptrs (Registry.counter reg "inc_dirty_ptrs");
  Registry.incr ~by:i.i_preloaded (Registry.counter reg "inc_preloaded");
  Registry.incr ~by:i.i_retracted (Registry.counter reg "inc_retracted");
  Registry.incr ~by:i.i_rounds (Registry.counter reg "inc_rounds");
  Registry.set (Registry.gauge reg "inc_reuse_pct") (100. *. i.i_reuse)

let info_json (i : info) : (string * Csc_obs.Json.t) list =
  let open Csc_obs.Json in
  [
    ("mode", Str (match i.i_mode with `Incremental -> "incremental" | `Fresh -> "fresh"));
    ("reason", Str i.i_reason);
    ("dirty_methods", Int i.i_dirty_methods);
    ("dirty_ptrs", Int i.i_dirty_ptrs);
    ("preloaded", Int i.i_preloaded);
    ("retracted", Int i.i_retracted);
    ("rounds", Int i.i_rounds);
    ("reuse_pct", Float (100. *. i.i_reuse));
  ]
