(** Provenance-backed "why does x point to o" (see the interface). *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

type fact = { x_ptr : string; x_obj : string; x_chain : string list }

let is_suffix ~affix s =
  let la = String.length affix and ls = String.length s in
  la <= ls && String.sub s (ls - la) la = affix

let facts ?var ?(limit = 5) (p : Ir.program) (t : Solver.t) : fact list =
  let is_jdk = Csc_lang.Jdk.is_jdk_method p in
  let matches v =
    let vr = Ir.var p v in
    let qualified = Ir.method_name p vr.Ir.v_method ^ "." ^ vr.Ir.v_name in
    match var with
    | Some affix -> is_suffix ~affix qualified
    | None ->
      (* scan mode: application variables only, the mini-JDK's internals
         are noise *)
      not (is_jdk vr.Ir.v_method)
  in
  let facts = ref [] in
  let shown = ref 0 in
  Solver.iter_ptrs t (fun ptr desc ->
      match desc with
      | Solver.PVar (_, v) when !shown < limit && matches v ->
        Bits.iter
          (fun o ->
            if !shown < limit then begin
              incr shown;
              facts :=
                {
                  x_ptr = Solver.ptr_to_string t ptr;
                  x_obj = Solver.obj_to_string t o;
                  x_chain = Solver.explain_chain t ~ptr ~obj:o;
                }
                :: !facts
            end)
          (Solver.pts t ptr)
      | _ -> ());
  List.rev !facts
