(** Result exporters: Graphviz call graphs and human-readable points-to
    dumps, for the CLI and for debugging analyses. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

(** Graphviz DOT rendering of the (projected) call graph. [include_jdk]
    keeps mini-JDK internal methods (they dominate visually, default off;
    membership comes from {!Csc_lang.Jdk.is_jdk_class}). *)
let callgraph_dot ?(include_jdk = false) (p : Ir.program) (r : Solver.result) :
    string =
  let is_jdk = Csc_lang.Jdk.is_jdk_method p in
  let keep m = include_jdk || not (is_jdk m) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  Bits.iter
    (fun m ->
      if keep m then
        Printf.bprintf buf "  m%d [label=%S];\n" m (Ir.method_name p m))
    r.r_reach;
  let edge_seen = Hashtbl.create 256 in
  List.iter
    (fun (site, callee) ->
      let caller = (Ir.call p site).cs_method in
      if keep caller && keep callee && not (Hashtbl.mem edge_seen (caller, callee))
      then begin
        Hashtbl.add edge_seen (caller, callee) ();
        Printf.bprintf buf "  m%d -> m%d;\n" caller callee
      end)
    r.r_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** Textual dump of points-to sets, optionally restricted to one method. *)
let pts_dump ?method_filter (p : Ir.program) (r : Solver.result) ppf =
  Array.iter
    (fun (v : Ir.var) ->
      let mname = Ir.method_name p v.v_method in
      let keep =
        match method_filter with Some f -> f = mname | None -> true
      in
      if keep && Ir.is_ref_type v.v_ty && Bits.mem r.r_reach v.v_method then begin
        let allocs = r.r_pt v.v_id in
        if not (Bits.is_empty allocs) then
          Fmt.pf ppf "%s.%s -> {%s}@." mname v.v_name
            (String.concat ", "
               (List.map
                  (fun a ->
                    let s = Ir.alloc p a in
                    Printf.sprintf "%s:%d"
                      (match s.a_kind with
                      | `Class c -> Ir.class_name p c
                      | `Array _ -> "array"
                      | `String -> "String")
                      s.a_line)
                  (Bits.to_list allocs)))
      end)
    p.vars

(* qualified-name suffix matching, shared with [Explain] ("main.x" matches
   "Main.main.x") *)
let is_suffix ~affix s =
  let la = String.length affix and ls = String.length s in
  la <= ls && String.sub s (ls - la) la = affix

let obj_name (p : Ir.program) (a : int) : string =
  let s = Ir.alloc p a in
  Printf.sprintf "%s:%d"
    (match s.Ir.a_kind with
    | `Class c -> Ir.class_name p c
    | `Array _ -> "array"
    | `String -> "String")
    s.Ir.a_line

(** JSON points-to sets for the [pt] server request and scripting clients;
    deterministic (variable-id order, ascending object ids). Work is
    proportional to the answer: each site's name is rendered once per call
    (a site is mentioned once per variable that may point to it), each
    method's name once, and JDK membership is decided once per class. *)
let pts_json ?var ?(include_jdk = false) (p : Ir.program) (r : Solver.result) :
    Csc_obs.Json.t =
  let module Json = Csc_obs.Json in
  let is_jdk = Csc_lang.Jdk.is_jdk_method p in
  let site_names = Array.make (Array.length p.allocs) Json.Null in
  let site_name a =
    match site_names.(a) with
    | Json.Null ->
      let j = Json.Str (obj_name p a) in
      site_names.(a) <- j;
      j
    | j -> j
  in
  let method_prefixes = Array.make (Array.length p.methods) "" in
  let qualified (v : Ir.var) =
    let m = v.v_method in
    if method_prefixes.(m) = "" then
      method_prefixes.(m) <- Ir.method_name p m ^ ".";
    method_prefixes.(m) ^ v.v_name
  in
  let rows = ref [] in
  Array.iter
    (fun (v : Ir.var) ->
      if
        Ir.is_ref_type v.v_ty
        && Bits.mem r.r_reach v.v_method
        && (var <> None || include_jdk || not (is_jdk v.v_method))
      then begin
        let allocs = r.r_pt v.v_id in
        if not (Bits.is_empty allocs) then
          let name = qualified v in
          let keep =
            match var with Some affix -> is_suffix ~affix name | None -> true
          in
          if keep then
            rows :=
              Json.Obj
                [ ("var", Json.Str name);
                  ( "objects",
                    Json.List
                      (List.rev
                         (Bits.fold (fun a l -> site_name a :: l) allocs [])) ) ]
              :: !rows
      end)
    p.vars;
  Json.List (List.rev !rows)
