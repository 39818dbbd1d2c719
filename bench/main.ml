(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§5) on the OCaml reproduction (see DESIGN.md §2 for the
    experiment index, EXPERIMENTS.md for paper-vs-measured):

    - fig12   : analysis-time bars per program (Doop engine)
    - table1  : time + 4 precision metrics, Datalog engine (Doop analog)
    - table2  : same on the imperative engine (Tai-e analog)
    - table3  : Zipper^e vs Cut-Shortcut detailed comparison
    - recall  : §5.1 soundness recall experiment
    - ablation: §5.1 per-pattern precision-impact study
    - checks  : flow-sensitive diagnostics counts per workload, CI vs CSC
    - taint   : taint-client leak reports on the ground-truth corpus
                (EXPERIMENTS.md E13)
    - profile : cost attribution vs precision, ci / csc / 2obj
                (EXPERIMENTS.md E14)
    - micro   : Bechamel micro-benchmarks of the substrates
    - custom  : an efficiency table over [--analyses CSV], any names the
                analysis grammar accepts (e.g. csc,kobj:3,doop:csc)

    Usage: dune exec bench/main.exe -- [experiments...] [--quick] [--budget S]
                                       [--json [FILE]] [--out DIR]
                                       [--trace FILE]
                                       [--compare BASELINE.json] [--soft-time]
    Default runs a representative subset sized for a laptop; pass `all` (or
    individual experiment names) and a bigger budget to reproduce everything.

    [--json FILE] additionally writes every experiment's cells (times,
    timeout flags, the four precision metrics and the engine's structured
    metric snapshot) as one JSON document; bare [--json] writes one
    BENCH_<experiment>.json per experiment instead. [--out DIR] places all
    emitted JSON under DIR (created if missing) instead of the working
    directory. [--trace FILE] records a Chrome trace_event timeline of the
    whole run.

    [--compare BASELINE.json] is the regression gate: after running, every
    cell is matched against the baseline document by (experiment, program,
    analysis); any precision-metric change, or a >25% time regression, makes
    the run exit non-zero. [--soft-time] downgrades the time check to a
    warning (CI uses it: shared runners make wall-clock noisy, but precision
    must never drift). *)

module Ir = Csc_ir.Ir
module Run = Csc_driver.Run
module Report = Csc_driver.Report
module Suite = Csc_workloads.Suite
module Metrics = Csc_clients.Metrics
module Bits = Csc_common.Bits
module Csc = Csc_core.Csc
module Json = Csc_obs.Json
module Trace = Csc_obs.Trace

type config = {
  programs : string list;
  budget : float;       (* imperative engine, seconds *)
  doop_budget : float;  (* datalog engine, seconds *)
  quick : bool;         (* --quick: CI-sized grids *)
}

(* results are memoized so fig12/table1/table3 don't re-run analyses; the
   budget is part of the key so a re-run under a different budget (e.g. a
   later experiment raising it) can't be served a stale timeout *)
let cache : (string * string * float, Run.outcome) Hashtbl.t = Hashtbl.create 64
let programs_cache : (string, Ir.program) Hashtbl.t = Hashtbl.create 16

let program name =
  match Hashtbl.find_opt programs_cache name with
  | Some p -> p
  | None ->
    let p = Suite.compile name in
    Hashtbl.add programs_cache name p;
    p

let outcome cfg pname analysis : Run.outcome =
  let budget = if Run.is_datalog analysis then cfg.doop_budget else cfg.budget in
  let spec = { (Run.spec analysis) with Run.sp_budget_s = Some budget } in
  let key = (pname, Run.name analysis, budget) in
  match Hashtbl.find_opt cache key with
  | Some o -> o
  | None ->
    Fmt.epr "  [%s / %s] ...@." pname (Run.name analysis);
    let o = Run.run_spec spec (program pname) in
    (* keep full results only where a later experiment reads them (recall /
       extras / table3 overlap use CI and CSC); context-sensitive results can
       hold hundreds of MB of per-context tables *)
    let keep_result =
      match analysis with
      | Run.Imp_ci | Run.Imp_csc | Run.Doop_ci | Run.Doop_csc -> true
      | _ -> false
    in
    let o = if keep_result then o else { o with Run.o_result = None } in
    Hashtbl.add cache key o;
    (* the timed-out context-sensitive runs leave a bloated heap behind;
       without this, every analysis after a 2obj timeout crawls *)
    Gc.compact ();
    o

(* the budget shown for a timeout cell depends on the engine; dispatch on
   the analysis variant, not on the rendered name *)
let time_cell cfg (a : Run.analysis) (o : Run.outcome) =
  if o.o_timeout then
    Fmt.str ">%.0fs" (if Run.is_datalog a then cfg.doop_budget else cfg.budget)
  else Fmt.str "%.2f" o.o_time

let metric_cells (o : Run.outcome) =
  match o.o_metrics with
  | None -> ("-", "-", "-", "-")
  | Some m ->
    ( string_of_int m.fail_cast,
      string_of_int m.reach_mtd,
      string_of_int m.poly_call,
      string_of_int m.call_edge )

(* ------------------------------------------------------------- tables 1/2 *)

let efficiency_table cfg ~title (analyses : Run.analysis list) =
  Fmt.pr "@.=== %s ===@." title;
  Fmt.pr "%-11s %-14s %9s %11s %11s %11s %11s@." "program" "analysis" "time(s)"
    "#fail-cast" "#reach-mtd" "#poly-call" "#call-edge";
  List.iter
    (fun pname ->
      List.iter
        (fun a ->
          let o = outcome cfg pname a in
          let fc, rm, pc, ce = metric_cells o in
          Fmt.pr "%-11s %-14s %9s %11s %11s %11s %11s@." pname o.o_analysis
            (time_cell cfg a o) fc rm pc ce)
        analyses;
      Fmt.pr "@.")
    cfg.programs

let table2_analyses =
  [ Run.Imp_ci; Run.Imp_kobj 2; Run.Imp_ktype 2; Run.Imp_zipper; Run.Imp_csc ]

let table2 cfg =
  efficiency_table cfg
    ~title:
      "Table 2: efficiency and precision on the imperative engine (Tai-e \
       analog)"
    table2_analyses

let table1 cfg =
  efficiency_table cfg
    ~title:
      "Table 1: efficiency and precision on the Datalog engine (Doop analog)"
    [ Run.Doop_ci; Run.Doop_2obj; Run.Doop_2type; Run.Doop_zipper; Run.Doop_csc ]

(* ---------------------------------------------------------------- custom *)

(* [custom --analyses CSV]: an ad-hoc efficiency table over any analyses the
   grammar accepts (e.g. --analyses csc,kobj:3,doop:csc). Parsed with
   Run.analysis_of_string so bench, the CLI and the server agree on names. *)
let custom_analyses : Run.analysis list ref = ref []

let custom_exp cfg =
  match !custom_analyses with
  | [] ->
    Fmt.epr
      "custom: no analyses given; pass --analyses CSV (e.g. --analyses \
       csc,2obj,kobj:3)@."
  | analyses ->
    efficiency_table cfg
      ~title:
        (Fmt.str "Custom: %s"
           (String.concat ", " (List.map Run.name analyses)))
      analyses

(* --------------------------------------------------------------- figure 12 *)

let fig12 cfg =
  Fmt.pr "@.=== Figure 12: analysis time (s) per program, Datalog engine ===@.";
  let analyses =
    [ Run.Doop_csc; Run.Doop_ci; Run.Doop_zipper; Run.Doop_2obj; Run.Doop_2type ]
  in
  (* bar chart, log-ish scale *)
  List.iter
    (fun pname ->
      Fmt.pr "@.%s:@." pname;
      List.iter
        (fun a ->
          let o = outcome cfg pname a in
          let t = if o.o_timeout then cfg.doop_budget else o.o_time in
          let bar = int_of_float (10. *. log10 (1. +. (t *. 100.))) in
          Fmt.pr "  %-14s %-8s |%s%s@." o.o_analysis (time_cell cfg a o)
            (String.make (max 1 bar) '#')
            (if o.o_timeout then "..." else ""))
        analyses)
    cfg.programs

(* ---------------------------------------------------------------- table 3 *)

let table3 cfg =
  Fmt.pr
    "@.=== Table 3: Zipper^e vs Cut-Shortcut (imperative engine \
     left, Datalog right in the paper; both engines below) ===@.";
  Fmt.pr "%-11s %-8s %9s %9s %9s %9s | %9s %9s %9s@." "program" "engine"
    "zip-total" "zip-pre" "zip-main" "selected" "csc-time" "involved" "overlap";
  List.iter
    (fun pname ->
      List.iter
        (fun (engine, zip_a, csc_a) ->
          let zo = outcome cfg pname zip_a in
          let co = outcome cfg pname csc_a in
          let selected =
            match zo.o_selected with Some b -> Bits.cardinal b | None -> 0
          in
          let involved =
            match co.o_involved with Some b -> Bits.cardinal b | None -> 0
          in
          let overlap =
            match (co.o_involved, zo.o_selected) with
            | Some i, Some s -> Fmt.str "%.1f%%" (100. *. Run.overlap ~involved:i ~selected:s)
            | _ -> "-"
          in
          Fmt.pr "%-11s %-8s %9s %9.2f %9.2f %9d | %9s %9d %9s@." pname engine
            (time_cell cfg zip_a zo) zo.o_pre_time zo.o_main_time selected
            (time_cell cfg csc_a co) involved overlap)
        [ ("tai-e", Run.Imp_zipper, Run.Imp_csc);
          ("doop", Run.Doop_zipper, Run.Doop_csc) ])
    cfg.programs

(* ----------------------------------------------------------------- recall *)

let recall cfg =
  Fmt.pr "@.=== Recall experiment (§5.1): dynamic coverage of each analysis ===@.";
  Fmt.pr "%-11s %10s %10s %-12s %10s %10s@." "program" "dyn-mtd" "dyn-edge"
    "analysis" "recall-m" "recall-e";
  List.iter
    (fun pname ->
      let p = program pname in
      let dyn = Csc_interp.Interp.run p in
      List.iter
        (fun a ->
          match (outcome cfg pname a).o_result with
          | None -> Fmt.pr "%-11s %10s %10s %-12s (timeout)@." pname "" "" (Run.name a)
          | Some r ->
            let rc =
              Metrics.recall r ~dyn_reach:dyn.dyn_reachable
                ~dyn_edges:dyn.dyn_edges
            in
            Fmt.pr "%-11s %10d %10d %-12s %9.1f%% %9.1f%%@." pname
              (Bits.cardinal dyn.dyn_reachable)
              (List.length dyn.dyn_edges)
              (Run.name a)
              (100. *. rc.recall_methods)
              (100. *. rc.recall_edges))
        [ Run.Imp_ci; Run.Imp_csc; Run.Doop_csc ])
    cfg.programs

(* --------------------------------------------------------------- ablation *)

let ablation_variants =
  Csc.
    [
      ("field", { field_pattern = true; container_pattern = false; local_flow = false });
      ("container", { field_pattern = false; container_pattern = true; local_flow = false });
      ("localflow", { field_pattern = false; container_pattern = false; local_flow = true });
    ]

let ablation cfg =
  Fmt.pr
    "@.=== Pattern-impact study (§5.1): share of CSC's precision improvement ===@.";
  let variants = ablation_variants in
  let clients =
    [
      ("#fail-cast", fun (m : Metrics.t) -> m.fail_cast);
      ("#reach-mtd", fun m -> m.reach_mtd);
      ("#poly-call", fun m -> m.poly_call);
      ("#call-edge", fun m -> m.call_edge);
    ]
  in
  (* average over programs of (CI - variant) / (CI - full CSC) *)
  let sums = Hashtbl.create 16 in
  let counts = ref 0 in
  List.iter
    (fun pname ->
      let ci = (outcome cfg pname Run.Imp_ci).o_metrics in
      let full = (outcome cfg pname Run.Imp_csc).o_metrics in
      match (ci, full) with
      | Some ci, Some full ->
        incr counts;
        List.iter
          (fun (vname, cfg_v) ->
            match (outcome cfg pname (Run.Imp_csc_cfg cfg_v)).o_metrics with
            | Some mv ->
              List.iter
                (fun (cname, f) ->
                  let denom = f ci - f full in
                  let share =
                    if denom <= 0 then 0.
                    else float (f ci - f mv) /. float denom
                  in
                  let key = (vname, cname) in
                  Hashtbl.replace sums key
                    (share
                    +. Option.value ~default:0. (Hashtbl.find_opt sums key)))
                clients
            | None -> ())
          variants
      | _ -> ())
    cfg.programs;
  Fmt.pr "%-11s" "pattern";
  List.iter (fun (cname, _) -> Fmt.pr " %11s" cname) clients;
  Fmt.pr "@.";
  List.iter
    (fun (vname, _) ->
      Fmt.pr "%-11s" vname;
      List.iter
        (fun (cname, _) ->
          let s = Option.value ~default:0. (Hashtbl.find_opt sums (vname, cname)) in
          Fmt.pr " %10.1f%%" (100. *. s /. float (max 1 !counts)))
        clients;
      Fmt.pr "@.")
    variants;
  Fmt.pr
    "(share of the CI->CSC improvement each pattern achieves alone, averaged \
     over programs;@. the three shares need not sum to 100%%: patterns \
     reinforce each other, §5.1)@."

(* ----------------------------------------------------------- extensions *)

(* Not in the paper: context-depth study on the programs where object
   sensitivity scales, showing the precision/cost curve CSC sidesteps. *)
let kstudy_programs cfg =
  List.filter
    (fun p -> List.mem p [ "hsqldb"; "findbugs"; "eclipse"; "jedit" ])
    cfg.programs

let kstudy cfg =
  Fmt.pr "@.=== Extension: context-depth study (kobj) vs CSC ===@.";
  Fmt.pr "%-11s %-10s %9s %11s %11s@." "program" "analysis" "time(s)"
    "#fail-cast" "#call-edge";
  let programs = kstudy_programs cfg in
  List.iter
    (fun pname ->
      List.iter
        (fun a ->
          let o = outcome cfg pname a in
          let fc, _, _, ce = metric_cells o in
          Fmt.pr "%-11s %-10s %9s %11s %11s@." pname o.o_analysis
            (time_cell cfg a o) fc ce)
        [ Run.Imp_ci; Run.Imp_kobj 1; Run.Imp_kobj 2; Run.Imp_kobj 3; Run.Imp_csc ])
    programs

(* Not in the paper: the instanceof-resolution client over CI vs CSC. *)
let extras cfg =
  Fmt.pr "@.=== Extension: unresolved instanceof sites (CI vs CSC) ===@.";
  Fmt.pr "%-11s %12s %12s@." "program" "ci" "csc";
  List.iter
    (fun pname ->
      let p = program pname in
      let get a =
        match (outcome cfg pname a).o_result with
        | Some r -> string_of_int (Metrics.unresolved_instanceof p r)
        | None -> "-"
      in
      Fmt.pr "%-11s %12s %12s@." pname (get Run.Imp_ci) (get Run.Imp_csc))
    cfg.programs

(* ----------------------------------------------------------------- checks *)

(* Not in the paper: the csc_checks diagnostic suite, CI vs CSC — the
   precision gain of Table 2 restated client-style as fewer false alarms
   (fail-cast, poly-call) on every workload. dead-store is PTA-independent
   and acts as a control column. *)
let checks cfg =
  Fmt.pr
    "@.=== Extension: flow-sensitive checker diagnostics (CI vs CSC) ===@.";
  Fmt.pr "%-11s %-9s %10s %10s %10s %10s %10s@." "program" "analysis" "total"
    "null-deref" "fail-cast" "poly-call" "dead-store";
  List.iter
    (fun pname ->
      let p = program pname in
      List.iter
        (fun a ->
          match (outcome cfg pname a).Run.o_result with
          | None -> Fmt.pr "%-11s %-9s (timeout)@." pname (Run.name a)
          | Some r ->
            let ds = Csc_checks.Checks.run_all p r in
            let count c =
              List.assoc c (Csc_checks.Checks.count_by_check ds)
            in
            Fmt.pr "%-11s %-9s %10d %10d %10d %10d %10d@." pname (Run.name a)
              (List.length ds) (count "null-deref") (count "fail-cast")
              (count "poly-call") (count "dead-store"))
        [ Run.Imp_ci; Run.Imp_csc ];
      Fmt.pr "@.")
    cfg.programs

(* ------------------------------------------------------------ taint (E13) *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

module Taint = Csc_taint.Taint

(* E13 (EXPERIMENTS.md): leak reports per analysis on the committed
   ground-truth corpus under examples/leaks. Programs named *_leak contain a
   flow every sound analysis must report; programs named *_ok are clean, so
   any report on them is a false positive. The paper's precision claim
   restated for the taint client: csc matches 2obj (zero false leaks) while
   ci over-reports on the field / container / dispatch merge patterns. *)

let leaks_dir () =
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "examples/leaks"; "../examples/leaks"; "../../examples/leaks" ]

let leak_programs =
  lazy
    (match leaks_dir () with
    | None ->
      Fmt.epr "taint: examples/leaks not found (run from the repo root)@.";
      []
    | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".mjava")
      |> List.sort String.compare
      |> List.map (fun f ->
             ( Filename.chop_suffix f ".mjava",
               Csc_lang.Frontend.compile_string
                 (read_file (Filename.concat dir f)) )))

let taint_analyses = [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2 ]

(* corpus programs are tiny, so cells carry no timing: the regression gate
   compares leak counts only *)
let taint_cells_cache : (string * string * int) list option ref = ref None

let taint_cells cfg : (string * string * int) list =
  match !taint_cells_cache with
  | Some cells -> cells
  | None ->
    let cells =
      List.concat_map
        (fun (pname, p) ->
          List.map
            (fun a ->
              let o =
                Run.run_spec { (Run.spec a) with sp_budget_s = Some cfg.budget } p
              in
              let leaks =
                match o.Run.o_result with
                | None -> -1 (* timeout *)
                | Some r ->
                  List.length (Taint.diagnostics p (Taint.analyze p r))
              in
              (pname, Run.name a, leaks))
            taint_analyses)
        (Lazy.force leak_programs)
    in
    taint_cells_cache := Some cells;
    cells

let taint_exp cfg =
  Fmt.pr
    "@.=== Extension: taint leak reports on the ground-truth corpus (E13) \
     ===@.";
  Fmt.pr "%-24s %-9s %6s %9s@." "program" "analysis" "leaks" "expected";
  let cells = taint_cells cfg in
  List.iter
    (fun (pname, aname, leaks) ->
      let expected =
        if Filename.check_suffix pname "_ok" then
          if aname = "ci" then "0 or fp" else "0"
        else ">=1"
      in
      Fmt.pr "%-24s %-9s %6d %9s@." pname aname leaks expected)
    cells;
  Fmt.pr "@.";
  List.iter
    (fun a ->
      let aname = Run.name a in
      let mine = List.filter (fun (_, an, _) -> an = aname) cells in
      let false_leaks =
        List.fold_left
          (fun acc (p, _, n) ->
            if Filename.check_suffix p "_ok" then acc + max 0 n else acc)
          0 mine
      in
      let missed =
        List.length
          (List.filter
             (fun (p, _, n) -> Filename.check_suffix p "_leak" && n = 0)
             mine)
      in
      Fmt.pr "%-9s false leaks: %d   missed true leaks: %d@." aname
        false_leaks missed)
    taint_analyses

let taint_json cfg : Json.t =
  Json.Obj
    [ ("experiment", Json.Str "taint");
      ("cells",
       Json.List
         (List.map
            (fun (pname, aname, leaks) ->
              Json.Obj
                [ ("program", Json.Str pname);
                  ("analysis", Json.Str aname);
                  ("metrics", Json.Obj [ ("leaks", Json.Int leaks) ]) ])
            (taint_cells cfg))) ]

(* ---------------------------------------------------------- profile (E14) *)

module Attr = Csc_obs.Attr

(* E14 (EXPERIMENTS.md): cost attribution vs precision, ci / csc / 2obj.
   Profiled runs pay the telemetry overhead, so they keep their own cache —
   the timing experiments never see them — and their cells carry no time_s:
   the regression gate compares the precision metrics and ignores both the
   wall clock and the attribution payload. *)
let profile_analyses = [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2 ]

let profile_cells_cache : (string * string * Run.outcome) list option ref =
  ref None

let profile_cells cfg : (string * string * Run.outcome) list =
  match !profile_cells_cache with
  | Some cells -> cells
  | None ->
    let cells =
      List.concat_map
        (fun pname ->
          List.map
            (fun a ->
              Fmt.epr "  [%s / %s profiled] ...@." pname (Run.name a);
              let o =
                Run.run_spec
                  { (Run.spec a) with
                    sp_budget_s = Some cfg.budget;
                    sp_profile = true;
                    sp_profile_top = 10 }
                  (program pname)
              in
              let o = { o with Run.o_result = None } in
              Gc.compact ();
              (pname, Run.name a, o))
            profile_analyses)
        cfg.programs
    in
    profile_cells_cache := Some cells;
    cells

let profile_exp cfg =
  Fmt.pr "@.=== Extension: cost attribution vs precision (E14) ===@.";
  Fmt.pr "%-11s %-9s %11s %11s %12s %10s  %s@." "program" "analysis"
    "#fail-cast" "#call-edge" "propagated" "shortcuts" "hottest methods";
  List.iter
    (fun (pname, aname, (o : Run.outcome)) ->
      match o.o_profile with
      | None -> Fmt.pr "%-11s %-9s (timeout)@." pname aname
      | Some pr ->
        let fc, _, _, ce = metric_cells o in
        let hot =
          List.filteri (fun i _ -> i < 3) pr.Attr.p_methods
          |> List.map (fun (e : Attr.entry) -> e.e_name)
          |> String.concat ", "
        in
        Fmt.pr "%-11s %-9s %11s %11s %12d %10d  %s@." pname aname fc ce
          pr.Attr.p_props pr.Attr.p_shortcuts hot)
    (profile_cells cfg);
  Fmt.pr
    "(per-analysis hot-method attribution next to the precision it buys; \
     the shared hot set@. is where CSC's shortcut edges substitute for 2obj's \
     context duplication, E14)@."

let profile_json cfg : Json.t =
  Json.Obj
    [ ("experiment", Json.Str "profile");
      ( "cells",
        Json.List
          (List.map
             (fun (pname, aname, (o : Run.outcome)) ->
               Json.Obj
                 ([ ("program", Json.Str pname);
                    ("analysis", Json.Str aname);
                    ("timeout", Json.Bool o.o_timeout);
                    ( "metrics",
                      match o.o_metrics with
                      | None -> Json.Null
                      | Some m -> Report.metrics_json m ) ]
                 @
                 match o.o_profile with
                 | None -> []
                 | Some pr -> [ ("profile", Attr.profile_json pr) ]))
             (profile_cells cfg)) ) ]

(* ------------------------------------------------------------------ micro *)

let micro () =
  Fmt.pr "@.=== Micro-benchmarks (Bechamel) ===@.";
  let open Bechamel in
  let bits_union =
    Test.make ~name:"bits-union-1k"
      (Staged.stage (fun () ->
           let a = Bits.create () and b = Bits.create () in
           for i = 0 to 999 do
             ignore (Bits.add a (i * 3));
             ignore (Bits.add b (i * 5))
           done;
           ignore (Bits.union_into ~into:a b)))
  in
  let parse_jdk =
    Test.make ~name:"frontend-jdk"
      (Staged.stage (fun () ->
           ignore (Csc_lang.Parser.parse_program Csc_lang.Jdk.source)))
  in
  let small = Csc_workloads.Gen.(generate small_shape) in
  let small_prog = Csc_lang.Frontend.compile_string small in
  let solver_ci =
    Test.make ~name:"solver-ci-small"
      (Staged.stage (fun () ->
           ignore (Csc_pta.Solver.analyze small_prog)))
  in
  let solver_csc =
    Test.make ~name:"solver-csc-small"
      (Staged.stage (fun () ->
           ignore (Csc_pta.Solver.analyze ~plugin_of:Csc.plugin small_prog)))
  in
  let datalog_tc =
    Test.make ~name:"datalog-tc-500"
      (Staged.stage (fun () ->
           let t = Csc_datalog.Engine.create () in
           for i = 0 to 499 do
             Csc_datalog.Engine.fact t "edge" [ i; i + 1 ]
           done;
           Csc_datalog.Engine.fact t "reach" [ 0 ];
           Csc_datalog.Engine.(
             add_rule t
               (atom "reach" [ V "y" ]
               <-- [ atom "reach" [ V "x" ]; atom "edge" [ V "x"; V "y" ] ]));
           Csc_datalog.Engine.solve t))
  in
  let interp_small =
    Test.make ~name:"interp-small"
      (Staged.stage (fun () -> ignore (Csc_interp.Interp.run small_prog)))
  in
  let tests =
    [ bits_union; parse_jdk; solver_ci; solver_csc; datalog_tc; interp_small ]
  in
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg_b
          Toolkit.Instance.[ monotonic_clock ]
          (Test.make_grouped ~name:"g" [ test ])
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Fmt.pr "%-24s %12.1f ns/run@." name t
          | _ -> Fmt.pr "%-24s (no estimate)@." name)
        ols)
    tests

(* ------------------------------------------------------------ bench JSON *)

let experiment_names =
  [ "fig12"; "table1"; "table2"; "table3"; "recall"; "ablation"; "kstudy";
    "extras"; "checks"; "taint"; "profile"; "micro"; "custom" ]

(* the (program, analysis) cells each experiment reads. Serializing an
   experiment maps its grid through the memo cache, so the report re-runs
   nothing. micro has no analysis grid and is not serialized. *)
let grid_of_experiment cfg exp : (string * Run.analysis) list =
  let cross programs analyses =
    List.concat_map (fun p -> List.map (fun a -> (p, a)) analyses) programs
  in
  match exp with
  | "table2" -> cross cfg.programs table2_analyses
  | "table1" | "fig12" ->
    cross cfg.programs
      [ Run.Doop_ci; Run.Doop_2obj; Run.Doop_2type; Run.Doop_zipper;
        Run.Doop_csc ]
  | "table3" ->
    cross cfg.programs
      [ Run.Imp_zipper; Run.Imp_csc; Run.Doop_zipper; Run.Doop_csc ]
  | "recall" -> cross cfg.programs [ Run.Imp_ci; Run.Imp_csc; Run.Doop_csc ]
  | "ablation" ->
    cross cfg.programs
      (Run.Imp_ci :: Run.Imp_csc
      :: List.map (fun (_, v) -> Run.Imp_csc_cfg v) ablation_variants)
  | "kstudy" ->
    cross (kstudy_programs cfg)
      [ Run.Imp_ci; Run.Imp_kobj 1; Run.Imp_kobj 2; Run.Imp_kobj 3; Run.Imp_csc ]
  | "extras" | "checks" -> cross cfg.programs [ Run.Imp_ci; Run.Imp_csc ]
  | "custom" -> cross cfg.programs !custom_analyses
  | _ -> []

let experiment_json cfg exp : Json.t option =
  (* taint cells come from the on-disk corpus, not the Suite grid; profile
     cells re-run with telemetry on, bypassing the shared memo cache *)
  if exp = "taint" then Some (taint_json cfg)
  else if exp = "profile" then Some (profile_json cfg)
  else
  match grid_of_experiment cfg exp with
  | [] -> None
  | grid ->
    Some
      (Report.experiment_json ~name:exp
         (List.map (fun (p, a) -> (p, outcome cfg p a)) grid))

(* --------------------------------------------------------- regression gate *)

(* [--compare BASELINE.json]: match this run's cells against a committed
   baseline by (experiment, program, analysis). Precision metrics must be
   identical — any drift is a hard failure, since every solver optimization
   in this repo is required to be semantics-preserving. Time may regress up
   to 25% (plus a 50ms jitter floor); beyond that it is a failure too unless
   [soft_time] downgrades it to a warning. Cells absent on either side, or
   timed out on either side, are skipped with a note. Returns the number of
   hard failures. *)
let compare_reports ~soft_time ~baseline (reports : (string * Json.t) list) :
    int =
  let failures = ref 0 in
  let baseline_exps =
    match Json.member "experiments" baseline with
    | Some l -> Option.value ~default:[] (Json.get_list l)
    | None -> [ baseline ]  (* a bare single-experiment document *)
  in
  let exp_name j = Option.bind (Json.member "experiment" j) Json.get_string in
  let cells j =
    Option.value ~default:[]
      (Option.bind (Json.member "cells" j) Json.get_list)
  in
  let cell_key c =
    match
      ( Option.bind (Json.member "program" c) Json.get_string,
        Option.bind (Json.member "analysis" c) Json.get_string )
    with
    | Some p, Some a -> Some (p, a)
    | _ -> None
  in
  List.iter
    (fun (ename, j) ->
      match
        List.find_opt (fun b -> exp_name b = Some ename) baseline_exps
      with
      | None ->
        Fmt.epr "compare: no baseline for experiment %s (skipped)@." ename
      | Some b ->
        let base_cells = cells b in
        List.iter
          (fun cur ->
            match cell_key cur with
            | None -> ()
            | Some (p, a) -> (
              match
                List.find_opt (fun bc -> cell_key bc = Some (p, a)) base_cells
              with
              | None ->
                Fmt.epr "compare: %s/%s/%s not in baseline (skipped)@." ename p
                  a
              | Some bc ->
                let timed_out c =
                  Option.bind (Json.member "timeout" c) Json.get_bool
                  = Some true
                in
                if timed_out cur || timed_out bc then
                  Fmt.epr "compare: %s/%s/%s timed out (skipped)@." ename p a
                else begin
                  (match (Json.member "metrics" cur, Json.member "metrics" bc)
                   with
                  | Some mc, Some mb when mc <> mb ->
                    incr failures;
                    Fmt.epr
                      "compare: FAIL %s/%s/%s precision metrics changed@.  \
                       baseline %s@.  current  %s@."
                      ename p a (Json.to_string mb) (Json.to_string mc)
                  | _ -> ());
                  match
                    ( Option.bind (Json.member "time_s" cur) Json.get_float,
                      Option.bind (Json.member "time_s" bc) Json.get_float )
                  with
                  | Some tc, Some tb when tc > (tb *. 1.25) +. 0.05 ->
                    if soft_time then
                      Fmt.epr
                        "compare: warn %s/%s/%s time %.3fs vs baseline %.3fs \
                         (soft)@."
                        ename p a tc tb
                    else begin
                      incr failures;
                      Fmt.epr
                        "compare: FAIL %s/%s/%s time %.3fs vs baseline %.3fs \
                         (>25%% regression)@."
                        ename p a tc tb
                    end
                  | _ -> ()
                end))
          (cells j))
    reports;
  !failures

(* ------------------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let has f = List.mem f args in
  let value ~default key =
    let rec go = function
      | k :: v :: _ when k = key -> float_of_string v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let string_value key =
    let rec go = function
      | k :: v :: _ when k = key && String.length v > 0 && v.[0] <> '-' ->
        Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  (* --json FILE = one document; bare --json = BENCH_<exp>.json per
     experiment (an experiment name after --json is NOT a file) *)
  let json_mode =
    if not (has "--json") then None
    else
      match string_value "--json" with
      | Some v when not (List.mem v ("all" :: experiment_names)) -> Some (Some v)
      | _ -> Some None
  in
  (* --out DIR: directory for all emitted JSON (created if missing), so bare
     --json stops dropping BENCH_*.json into the working tree *)
  let out_dir = string_value "--out" in
  let out_path file =
    match out_dir with
    | None -> file
    | Some dir ->
      if not (Sys.file_exists dir) then
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      Filename.concat dir file
  in
  (match string_value "--trace" with
  | Some file -> Trace.start ~file
  | None -> ());
  let compare_file = string_value "--compare" in
  let soft_time = has "--soft-time" in
  let quick = has "--quick" in
  let cfg =
    {
      programs =
        (if quick then [ "hsqldb"; "findbugs"; "eclipse" ] else Suite.names);
      budget = value ~default:(if quick then 20. else 60.) "--budget";
      doop_budget =
        value ~default:(if quick then 60. else 150.) "--doop-budget";
      quick;
    }
  in
  (match string_value "--analyses" with
  | None -> ()
  | Some csv ->
    custom_analyses :=
      List.map
        (fun s ->
          match Run.analysis_of_string (String.trim s) with
          | Ok a -> a
          | Error e ->
            Fmt.epr "bench: --analyses: %s@." e;
            exit 2)
        (String.split_on_char ',' csv));
  let experiments =
    List.filter
      (fun a -> not (String.length a > 1 && a.[0] = '-'))
      (List.filter (fun a -> a <> string_of_float cfg.budget) args)
    |> List.filter (fun a -> List.mem a ("all" :: experiment_names))
  in
  let experiments =
    if experiments = [] || List.mem "all" experiments then
      (* cheap (imperative) experiments first so interrupted runs still
         cover every experiment; the Datalog grid (table1/fig12) comes last *)
      [ "table2"; "recall"; "ablation"; "kstudy"; "extras";
        "checks"; "taint"; "profile"; "micro"; "table3";
        "table1"; "fig12" ]
    else experiments
  in
  Fmt.pr "cutshortcut bench: programs=[%s] budget=%.0fs doop-budget=%.0fs@."
    (String.concat ", " cfg.programs)
    cfg.budget cfg.doop_budget;
  let reports = ref [] in
  List.iter
    (fun e ->
      (match e with
      | "table2" -> table2 cfg
      | "table1" -> table1 cfg
      | "fig12" -> fig12 cfg
      | "table3" -> table3 cfg
      | "recall" -> recall cfg
      | "ablation" -> ablation cfg
      | "kstudy" -> kstudy cfg
      | "extras" -> extras cfg
      | "checks" -> checks cfg
      | "taint" -> taint_exp cfg
      | "profile" -> profile_exp cfg
      | "micro" -> micro ()
      | "custom" -> custom_exp cfg
      | _ -> ());
      if json_mode <> None || compare_file <> None then
        match experiment_json cfg e with
        | Some j -> reports := (e, j) :: !reports
        | None -> ())
    experiments;
  (match json_mode with
  | None -> ()
  | Some (Some file) ->
    let file = out_path file in
    Report.write_file file
      (Json.Obj [ ("experiments", Json.List (List.rev_map snd !reports)) ]);
    Fmt.epr "wrote %s@." file
  | Some None ->
    List.iter
      (fun (e, j) ->
        let file = out_path ("BENCH_" ^ e ^ ".json") in
        Report.write_file file j;
        Fmt.epr "wrote %s@." file)
      (List.rev !reports));
  let gate_failures =
    match compare_file with
    | None -> 0
    | Some file -> (
      match Json.parse (read_file file) with
      | Error e ->
        Fmt.epr "compare: cannot parse %s: %s@." file e;
        1
      | Ok baseline ->
        let n =
          compare_reports ~soft_time ~baseline (List.rev !reports)
        in
        if n = 0 then Fmt.epr "compare: OK, no regressions vs %s@." file
        else Fmt.epr "compare: %d regression(s) vs %s@." n file;
        n)
  in
  Trace.finish ();
  if gate_failures > 0 then exit 1
