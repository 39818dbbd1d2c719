(** Provenance-backed "why does x point to o" (see the interface). *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Context = Csc_pta.Context
module Csc = Csc_core.Csc

type fact = { x_ptr : string; x_obj : string; x_chain : string list }

(* the imperative context selector an analysis runs under, and the CSC
   plugin config if it uses one; [Error] for engines without provenance *)
let rec plan_of (a : Run.analysis) :
    (Context.t * Csc.config option, string) result =
  match a with
  | Run.Imp_ci -> Ok (Context.ci, None)
  | Run.Imp_csc -> Ok (Context.ci, Some Csc.default_config)
  | Run.Imp_csc_cfg cfg -> Ok (Context.ci, Some cfg)
  | Run.Imp_kobj k -> Ok (Context.kobj ~k ~hk:(max 1 (k - 1)), None)
  | Run.Imp_ktype k -> Ok (Context.ktype ~k ~hk:(max 1 (k - 1)), None)
  | Run.Imp_kcall k -> Ok (Context.kcall ~k ~hk:(max 1 (k - 1)), None)
  | Run.Imp_2obj -> Ok (Context.kobj ~k:2 ~hk:1, None)
  | Run.Imp_2type -> Ok (Context.ktype ~k:2 ~hk:1, None)
  | Run.Imp_2call -> Ok (Context.kcall ~k:2 ~hk:1, None)
  | Run.Imp_no_collapse inner ->
    (* provenance forces collapsing off anyway *)
    plan_of inner
  | Run.Imp_zipper ->
    Error "explain: zipper-e is two staged solves; explain its base instead"
  | Run.Doop_ci | Run.Doop_csc | Run.Doop_2obj | Run.Doop_2type
  | Run.Doop_zipper ->
    Error
      (Printf.sprintf
         "explain: %S runs on the Datalog engine, which has no provenance \
          recorder (imperative analyses only)"
         (Run.name a))

let is_suffix ~affix s =
  let la = String.length affix and ls = String.length s in
  la <= ls && String.sub s (ls - la) la = affix

let run ?budget_s ?var ?(limit = 5) (p : Ir.program) (a : Run.analysis) :
    (fact list, string) result =
  match plan_of a with
  | Error _ as e -> e
  | Ok (sel, plugin_cfg) -> (
    let budget =
      match budget_s with
      | Some s -> Timer.budget_of_seconds s
      | None -> Timer.no_budget
    in
    let t = Solver.create ~budget ~sel p in
    if Solver.enable_provenance t then
      Fmt.epr
        "note: provenance recording (explain) disables online cycle \
         collapsing for this run; expect a slower solve@.";
    (match plugin_cfg with
    | Some config -> Solver.set_plugin t (Csc.plugin ~config t)
    | None -> ());
    match Solver.run t with
    | exception Solver.Timeout ->
      Error (Printf.sprintf "explain: %s timed out" (Run.name a))
    | () ->
      let is_jdk = Csc_lang.Jdk.is_jdk_method p in
      let matches v =
        let vr = Ir.var p v in
        let qualified =
          Ir.method_name p vr.Ir.v_method ^ "." ^ vr.Ir.v_name
        in
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
      Ok (List.rev !facts))
