(** Analysis driver: run any of the evaluated analyses on a program and
    collect time + precision metrics in one uniform record. This is the layer
    the CLI, the examples and the benchmark harness sit on. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Context = Csc_pta.Context
module Csc = Csc_core.Csc
module Metrics = Csc_clients.Metrics
module Dl = Csc_datalog.Analysis
module Snapshot = Csc_obs.Snapshot
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr

(** The analyses of the paper's evaluation, on both engines. [Imp_*] run on
    the imperative engine (Tai-e analog, Table 2), [Doop_*] on the Datalog
    engine (Doop analog, Table 1). *)
type analysis =
  | Imp_ci
  | Imp_csc
  | Imp_csc_cfg of Csc.config  (** ablations (§5.1 pattern-impact study) *)
  | Imp_kobj of int            (** k-object-sensitive, heap depth k-1 min 1 *)
  | Imp_ktype of int
  | Imp_kcall of int
  | Imp_2obj                   (** [Imp_kobj 2] under its historical name *)
  | Imp_zipper
  | Doop_ci
  | Doop_csc
  | Doop_2obj
  | Doop_2type
  | Doop_zipper

let name = function
  | Imp_ci -> "ci"
  | Imp_csc -> "csc"
  | Imp_csc_cfg cfg -> Csc.config_name cfg
  | Imp_kobj k -> Printf.sprintf "%dobj" k
  | Imp_ktype k -> Printf.sprintf "%dtype" k
  | Imp_kcall k -> Printf.sprintf "%dcall" k
  | Imp_2obj -> "2obj"
  | Imp_zipper -> "zipper-e"
  | Doop_ci -> "doop-ci"
  | Doop_csc -> "doop-csc"
  | Doop_2obj -> "doop-2obj"
  | Doop_2type -> "doop-2type"
  | Doop_zipper -> "doop-zipper-e"

let all_imperative = [ Imp_ci; Imp_csc; Imp_kobj 2; Imp_ktype 2; Imp_zipper ]
let all_datalog = [ Doop_ci; Doop_csc; Doop_2obj; Doop_2type; Doop_zipper ]

(* ------------------------------------------------------------------ plan *)

(* The one place an analysis is decoded. As in the paper's Tai-e plugin
   design, every analysis is one solver run under a context selector, with
   the CSC plugin or not, or a Datalog rule set; Zipper^e stages a CI
   pre-solve and a selective-2obj main solve on either engine. *)
type stage =
  | Imp of Context.t * Csc.config option
  | Dl of Dl.kind

type plan =
  | Solve of stage
  | Zipper of stage * (Bits.t -> stage)
      (** pre-analysis; main analysis over the selected methods *)

(* the k-limited selectors, heap depth k-1 (at least 1), on both engines *)
let kobj k = Context.kobj ~k ~hk:(max 1 (k - 1))
let ktype k = Context.ktype ~k ~hk:(max 1 (k - 1))
let kcall k = Context.kcall ~k ~hk:(max 1 (k - 1))

(* Zipper^e's main analysis: 2obj on the selected methods only *)
let zipper_main selected = Context.selective ~selected ~base:(kobj 2)

let rec plan = function
  | Imp_ci -> Solve (Imp (Context.ci, None))
  | Imp_csc -> Solve (Imp (Context.ci, Some Csc.default_config))
  | Imp_csc_cfg c -> Solve (Imp (Context.ci, Some c))
  | Imp_kobj k -> Solve (Imp (kobj k, None))
  | Imp_ktype k -> Solve (Imp (ktype k, None))
  | Imp_kcall k -> Solve (Imp (kcall k, None))
  | Imp_2obj -> plan (Imp_kobj 2)
  | Imp_zipper ->
    Zipper (Imp (Context.ci, None), fun sel -> Imp (zipper_main sel, None))
  | Doop_ci -> Solve (Dl Dl.Ci)
  | Doop_csc -> Solve (Dl Dl.Csc_doop)
  | Doop_2obj -> Solve (Dl (Dl.Cs (kobj 2)))
  | Doop_2type -> Solve (Dl (Dl.Cs (ktype 2)))
  | Doop_zipper -> Zipper (Dl Dl.Ci, fun sel -> Dl (Dl.Cs (zipper_main sel)))

let is_datalog a =
  match plan a with Solve (Dl _) | Zipper (Dl _, _) -> true | _ -> false

let stage_name = function
  | Imp (sel, csc) ->
    "imp:" ^ sel.Context.sel_name
    ^ Option.fold ~none:"" ~some:(fun c -> "+" ^ Csc.config_name c) csc
  | Dl kind -> "dl:" ^ Dl.kind_name kind

let plan_name a =
  match plan a with
  | Solve st -> stage_name st
  | Zipper (pre, main) ->
    stage_name pre ^ " > select > " ^ stage_name (main (Bits.create ()))

(* --------------------------------------------------- analysis-name grammar *)

let analysis_names =
  [ "ci"; "csc"; "csc-field"; "csc-container"; "csc-localflow"; "1obj";
    "2obj"; "3obj"; "1type"; "2type"; "1call"; "2call"; "zipper-e"; "doop-ci";
    "doop-csc"; "doop-2obj"; "doop-2type"; "doop-zipper-e" ]

let grammar_help =
  "expected one of: ci, csc, csc-field, csc-container, csc-localflow, \
   zipper-e, <K>obj, <K>type, <K>call (or kobj:<K>, ktype:<K>, kcall:<K>), \
   doop-ci, doop-csc, doop-2obj, doop-2type, doop-zipper-e (or doop:<name>)"

(* spellings with no parameter; the eight CSC configs spell as
   [Csc.config_name] *)
let fixed_names =
  List.init 8 (fun i ->
      let c =
        { Csc.field_pattern = i land 4 = 0; container_pattern = i land 2 = 0;
          local_flow = i land 1 = 0 }
      in
      if c = Csc.default_config then ("csc", Imp_csc)
      else (Csc.config_name c, Imp_csc_cfg c))
  @ List.map
      (fun a -> (name a, a))
      [ Imp_ci; Imp_zipper; Doop_ci; Doop_csc; Doop_2obj; Doop_2type;
        Doop_zipper ]

(* the k-limited families: "<K>obj" or "kobj:<K>", K positive *)
let k_families =
  [ ("obj", fun k -> Imp_kobj k); ("type", fun k -> Imp_ktype k);
    ("call", fun k -> Imp_kcall k) ]

let after_prefix s prefix =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let before_suffix s suffix =
  let ls = String.length s and lx = String.length suffix in
  if ls > lx && String.sub s (ls - lx) lx = suffix then
    Some (String.sub s 0 (ls - lx))
  else None

let rec analysis_of_string (s : string) : (analysis, string) result =
  let positive k = match int_of_string_opt k with Some k when k >= 1 -> Some k | _ -> None in
  let family (suffix, mk) =
    match after_prefix s ("k" ^ suffix ^ ":") with
    | Some rest -> (
      match positive rest with
      | Some k -> Some (Ok (mk k))
      | None ->
        Some
          (Error
             (Printf.sprintf "bad context depth %S (want a positive integer)"
                rest)))
    | None ->
      Option.bind (before_suffix s suffix) (fun k ->
          Option.map (fun k -> Ok (mk k)) (positive k))
  in
  match List.assoc_opt s fixed_names with
  | Some a -> Ok a
  | None -> (
    match after_prefix s "doop:" with
    | Some rest -> analysis_of_string ("doop-" ^ rest)
    | None -> (
      match List.find_map family k_families with
      | Some r -> r
      | None -> Error (Printf.sprintf "unknown analysis %S; %s" s grammar_help)))

type outcome = {
  o_analysis : string;
  o_timeout : bool;
  o_time : float;            (** total wall-clock (pre + main) *)
  o_pre_time : float;        (** pre-analysis + selection (Zipper only) *)
  o_main_time : float;
  o_result : Solver.result option;
  o_metrics : Metrics.t option;
  o_selected : Bits.t option;   (** Zipper: selected methods *)
  o_involved : Bits.t option;   (** CSC: methods in cut/shortcut edges *)
  o_shortcuts : int;
  o_snapshot : Snapshot.t option;
      (** engine metrics; present even on timeouts, on either engine *)
  o_profile : Attr.profile option;
      (** cost attribution, present iff [sp_profile] *)
}

(* ------------------------------------------------------------------ spec *)

type spec = {
  sp_analysis : analysis;
  sp_budget_s : float option;
  sp_profile : bool;
  sp_profile_top : int;
  sp_jobs : int;
}

let spec analysis =
  {
    sp_analysis = analysis;
    sp_budget_s = None;
    sp_profile = false;
    sp_profile_top = 25;
    sp_jobs = 1;
  }

(* [sp_jobs] is ignored, so the session result cache must not fragment on
   it; [Imp_2obj] is the same run as [Imp_kobj 2] *)
let spec_key s =
  let a = match s.sp_analysis with Imp_2obj -> Imp_kobj 2 | a -> a in
  { s with sp_analysis = a; sp_jobs = 1 }

let timeout_outcome ?snapshot s elapsed =
  {
    o_analysis = name s.sp_analysis;
    o_timeout = true;
    o_time = elapsed;
    o_pre_time = 0.;
    o_main_time = elapsed;
    o_result = None;
    o_metrics = None;
    o_selected = None;
    o_involved = None;
    o_shortcuts = 0;
    o_snapshot = snapshot;
    o_profile = None;
  }

let of_result ?(pre_time = 0.) ?selected ?involved ?(shortcuts = 0) s p
    (r : Solver.result) total_time =
  let metrics =
    Trace.with_span ~cat:"driver" "client-metrics" (fun () ->
        Metrics.compute p r)
  in
  {
    (timeout_outcome ~snapshot:r.Solver.r_snapshot s total_time) with
    o_timeout = false;
    o_pre_time = pre_time;
    o_main_time = total_time -. pre_time;
    o_result = Some r;
    o_metrics = Some metrics;
    o_selected = selected;
    o_involved = involved;
    o_shortcuts = shortcuts;
  }

(** Run one analysis under an optional time budget (seconds). Timeouts are
    reported in the outcome, not raised — like the paper's ">2h" cells.

    Also returns the finished solver of the last imperative solve when the
    run completed without timeout; [provenance] records derivations in it. *)
let run_kept ?(provenance = false) (s : spec) (p : Ir.program) :
    outcome * Solver.t option =
  let budget = Timer.budget s.sp_budget_s in
  let t0 = Timer.now () in
  let elapsed () = Timer.now () -. t0 in
  let csc_handle = ref None in
  let solver = ref None in
  (* Datalog runs share one attribution table across pre + main phases *)
  let dl_attr = if s.sp_profile then Some (Attr.create ()) else None in
  (* one solve on either engine; a timeout yields the aborted engine's
     snapshot. The imperative solver
     is built via create/run (not [Solver.analyze]) to keep its handle. *)
  let solve = function
    | Imp (sel, csc) -> (
      let t = Solver.create ~budget ~sel p in
      if provenance then Solver.enable_provenance t;
      if s.sp_profile then Solver.enable_attr t;
      Option.iter
        (fun config ->
          let pl, h = Csc.plugin_with_handle ~config t in
          csc_handle := Some h;
          Solver.set_plugin t pl)
        csc;
      match Solver.run t with
      | () ->
        solver := Some t;
        Ok (Solver.result t)
      | exception Solver.Timeout -> Error (Some (Solver.snapshot t)))
    | Dl kind -> (
      match
        Trace.with_span ~cat:"driver" ("datalog:" ^ Dl.kind_name kind)
          (fun () -> Dl.run ~budget ?attr:dl_attr p kind)
      with
      | r -> Ok r
      | exception Dl.Timeout snap -> Error (Some snap))
  in
  let finish ?pre_time ?selected r =
    let involved, shortcuts =
      match !csc_handle with
      | Some h -> (Some (Csc.involved_methods h), Csc.shortcut_count h)
      | None -> (None, 0)
    in
    let o = of_result ?pre_time ?selected ?involved ~shortcuts s p r (elapsed ()) in
    let top = s.sp_profile_top in
    match (!solver, dl_attr) with
    | Some t, _ -> ({ o with o_profile = Solver.profile ~top t }, Some t)
    | None, Some a ->
      let prof =
        Attr.render ~top a ~engine:"datalog" ~meth_name:string_of_int
          ~ptr_name:string_of_int
      in
      ({ o with o_profile = Some prof }, None)
    | None, None -> (o, None)
  in
  let timeout snapshot = (timeout_outcome ?snapshot s (elapsed ()), None) in
  match plan s.sp_analysis with
  | Solve st -> (
    match solve st with Ok r -> finish r | Error snap -> timeout snap)
  | Zipper (pre, main) -> (
    match solve pre with
    | Error snap -> timeout snap
    | Ok pre_r -> (
      let sel =
        Trace.with_span ~cat:"driver" "zipper-select" (fun () ->
            Zipper.select p pre_r)
      in
      let pre_time = elapsed () in
      match solve (main sel.Zipper.selected) with
      | Ok r -> finish ~pre_time ~selected:sel.Zipper.selected r
      | Error snap -> timeout snap))

let run_spec (s : spec) (p : Ir.program) : outcome = fst (run_kept s p)

let run_spec_solver (s : spec) (p : Ir.program) =
  match plan s.sp_analysis with
  | Solve (Dl _) | Zipper (Dl _, _) -> Error `Datalog
  | Zipper (Imp _, _) -> Error `Staged
  | Solve (Imp _) -> Ok (run_kept ~provenance:true s p)

(** Overlap of Zipper-selected methods with CSC-involved methods (Table 3's
    last column): the fraction of CSC-involved methods also selected by
    Zipper^e. *)
let overlap ~(involved : Bits.t) ~(selected : Bits.t) : float =
  let total = Bits.cardinal involved in
  if total = 0 then 0.
  else
    let inter =
      Bits.fold
        (fun m acc -> if Bits.mem selected m then acc + 1 else acc)
        involved 0
    in
    float inter /. float total
