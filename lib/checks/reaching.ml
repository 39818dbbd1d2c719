(** Reaching definitions: a forward {!Dataflow} instance over bitsets of
    definition ids. Each statement that defines a variable gets a dense id;
    the fact at a point is the set of definitions that may reach it. Drives
    the flow-refined fail-cast checker. *)

open Csc_common
module Ir = Csc_ir.Ir

type def = {
  def_id : int;
  def_path : Ir.stmt_path;
  def_stmt : Ir.stmt;
  def_var : Ir.var_id;
}

module DF = Dataflow.Make (Liveness.BitsDom)

type t = {
  defs : def array;
  by_var : (Ir.var_id, Bits.t) Hashtbl.t;  (** kill sets *)
  by_path : (Ir.stmt_path, int) Hashtbl.t;
  df : DF.result;
  spec : DF.spec;
}

let compute (cfg : Cfg.t) : t =
  let defs = ref [] and ndefs = ref 0 in
  let by_var = Hashtbl.create 32 in
  let by_path = Hashtbl.create 32 in
  Cfg.iter_stmts
    (fun path s ->
      match Ir.def_of s with
      | Some v ->
        let id = !ndefs in
        incr ndefs;
        defs := { def_id = id; def_path = path; def_stmt = s; def_var = v }
                :: !defs;
        Hashtbl.replace by_path path id;
        let kill =
          match Hashtbl.find_opt by_var v with
          | Some b -> b
          | None ->
            let b = Bits.create () in
            Hashtbl.add by_var v b;
            b
        in
        ignore (Bits.add kill id)
      | None -> ())
    cfg;
  let defs = Array.of_list (List.rev !defs) in
  let transfer path (s : Ir.stmt) (d : Bits.t) : Bits.t =
    match Ir.def_of s with
    | None -> d
    | Some v ->
      let out = Bits.copy d in
      (match Hashtbl.find_opt by_var v with
      | Some kill -> Bits.iter (fun i -> Bits.remove out i) kill
      | None -> ());
      (match Hashtbl.find_opt by_path path with
      | Some id -> ignore (Bits.add out id)
      | None -> ());
      out
  in
  let spec =
    DF.
      {
        dir = Dataflow.Forward;
        boundary = Bits.create ();
        bottom = Bits.create ();
        transfer;
      }
  in
  { defs; by_var; by_path; df = DF.solve spec cfg; spec }

(** [f path stmt ~reaching] with the definitions reaching *before* [stmt]. *)
let iter (t : t) (cfg : Cfg.t) f =
  DF.iter_stmt_facts t.spec cfg t.df (fun p s ~before ~after:_ ->
      f p s ~reaching:before)

(** The definitions of [v] within a reaching set, in id order. Walks [v]'s
    own definitions, not the (much larger) reaching set. *)
let defs_of_var (t : t) (reaching : Bits.t) (v : Ir.var_id) : def list =
  match Hashtbl.find_opt t.by_var v with
  | None -> []
  | Some mine ->
    Bits.fold
      (fun id acc -> if Bits.mem reaching id then t.defs.(id) :: acc else acc)
      mine []
    |> List.rev
