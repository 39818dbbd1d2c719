(** Devirtualization: the paper's #poly-call client as a per-site pass.

    From the analysis call graph, every reachable [Virtual] call site is
    classified by its number of possible targets:

    - exactly one target: the site is monomorphic and can be devirtualized
      (inlined / statically bound) — surfaced through {!sites} for
      optimizers, e.g. [examples/devirtualizer.ml];
    - two or more targets: a missed-optimization diagnostic (Info) — this is
      what the checker emits, so a more precise analysis (CSC vs CI) shows
      up as strictly fewer diagnostics, mirroring #poly-call.

    Sites with zero targets (dead receivers) are skipped. *)

module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

type site_info = {
  si_site : Ir.call_id;
  si_method : Ir.method_id;          (** containing method *)
  si_targets : Ir.method_id list;    (** possible callees, sorted *)
}

let check_name = "poly-call"

(** All reachable virtual call sites with at least one target. *)
let sites (p : Ir.program) (r : Solver.result) : site_info list =
  let by_site : (Ir.call_id, Ir.method_id list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (site, callee) ->
      Hashtbl.replace by_site site
        (callee :: Option.value ~default:[] (Hashtbl.find_opt by_site site)))
    r.Solver.r_edges;
  Hashtbl.fold
    (fun site callees acc ->
      let cs = Ir.call p site in
      if cs.Ir.cs_kind = Ir.Virtual then
        {
          si_site = site;
          si_method = cs.Ir.cs_method;
          si_targets = List.sort_uniq compare callees;
        }
        :: acc
      else acc)
    by_site []
  |> List.sort (fun a b -> compare a.si_site b.si_site)

(** Path of a call site's statement within its containing method. *)
let site_path (p : Ir.program) (site : Ir.call_id) : Ir.stmt_path =
  let cs = Ir.call p site in
  let found = ref [] in
  Ir.iter_stmts_path
    (fun path s ->
      match s with
      | Ir.Invoke { site = s'; _ } when s' = site -> found := path
      | _ -> ())
    (Ir.metho p cs.Ir.cs_method).Ir.m_body;
  !found

let check (p : Ir.program) (r : Solver.result) : Diagnostic.t list =
  let poly =
    List.filter
      (fun si -> List.compare_length_with si.si_targets 2 >= 0)
      (sites p r)
  in
  (* the statement paths of the polymorphic sites, one walk per containing
     method rather than one per site *)
  let paths = Hashtbl.create 64 and walked = Hashtbl.create 16 in
  List.iter (fun si -> Hashtbl.replace paths si.si_site []) poly;
  List.iter
    (fun si ->
      if not (Hashtbl.mem walked si.si_method) then begin
        Hashtbl.add walked si.si_method ();
        Ir.iter_stmts_path
          (fun path s ->
            match s with
            | Ir.Invoke { site; _ } when Hashtbl.mem paths site ->
              Hashtbl.replace paths site path
            | _ -> ())
          (Ir.metho p si.si_method).Ir.m_body
      end)
    poly;
  List.map
    (fun si ->
      let cs = Ir.call p si.si_site in
      Diagnostic.
        {
          d_check = check_name;
          d_severity = Info;
          d_method = si.si_method;
          d_path = Hashtbl.find paths si.si_site;
          d_message =
            Printf.sprintf "virtual call %s cannot be devirtualized: %d targets"
              (Ir.method_name p cs.Ir.cs_target)
              (List.length si.si_targets);
          d_witness =
            Some (String.concat ", " (List.map (Ir.method_name p) si.si_targets));
        })
    poly
  |> List.sort Diagnostic.compare
