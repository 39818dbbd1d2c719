(** Checker registry: the flow-sensitive, PTA-backed diagnostics suite.

    Every checker consumes the engine-agnostic {!Csc_pta.Solver.result}, so
    any analysis the driver can run (CI, CSC, 2obj, Datalog variants...) can
    back the diagnostics — running a more precise analysis yields fewer
    false alarms, which is the paper's precision claim restated per
    diagnostic instead of per aggregate metric. *)

module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

type checker = {
  ck_name : string;
  ck_doc : string;
  ck_run : Ir.program -> Solver.result -> Diagnostic.t list;
}

let all : checker list =
  [
    {
      ck_name = Null_check.check_name;
      ck_doc = "flow-sensitive null dereferences (PTA-backed emptiness)";
      ck_run = Null_check.check;
    };
    {
      ck_name = Cast_check.check_name;
      ck_doc = "casts that may fail, flow-refined by reaching definitions";
      ck_run = Cast_check.check;
    };
    {
      ck_name = Devirt.check_name;
      ck_doc = "virtual call sites that cannot be devirtualized";
      ck_run = Devirt.check;
    };
    {
      ck_name = Dead_store.check_name;
      ck_doc = "dead stores and unused variables (PTA-independent)";
      ck_run = Dead_store.check;
    };
  ]

let names = List.map (fun c -> c.ck_name) all

let by_name (name : string) : checker option =
  List.find_opt (fun c -> c.ck_name = name) all

(** Run the selected checkers (default: all). [include_jdk] keeps
    diagnostics located in mini-JDK methods (default off: users cannot fix
    library internals, and the JDK's intentional [return null] defaults
    would dominate the report). *)
let run_all ?(checks : string list option) ?(include_jdk = false)
    (p : Ir.program) (r : Solver.result) : Diagnostic.t list =
  let selected =
    match checks with
    | None -> all
    | Some names ->
      List.map
        (fun n ->
          match by_name n with
          | Some c -> c
          | None ->
            Fmt.invalid_arg "unknown checker %S (available: %s)" n
              (String.concat ", " (List.map (fun c -> c.ck_name) all)))
        names
  in
  let ds =
    List.concat_map
      (fun c ->
        Csc_obs.Trace.with_span ~cat:"checks" ("check:" ^ c.ck_name) (fun () ->
            c.ck_run p r))
      selected
  in
  let ds =
    if include_jdk then ds
    else
      let is_jdk = Csc_lang.Jdk.is_jdk_method p in
      List.filter (fun (d : Diagnostic.t) -> not (is_jdk d.Diagnostic.d_method)) ds
  in
  (* sort_uniq: keep output deterministic and free of duplicate findings *)
  List.sort_uniq Diagnostic.compare ds

(** Diagnostic count per checker, over the given list. *)
let count_by_check (ds : Diagnostic.t list) : (string * int) list =
  List.map
    (fun c ->
      ( c.ck_name,
        List.length
          (List.filter (fun d -> d.Diagnostic.d_check = c.ck_name) ds) ))
    all
