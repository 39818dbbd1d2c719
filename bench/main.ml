(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§5) on the OCaml reproduction (see DESIGN.md §2 for the
    experiment index, EXPERIMENTS.md for paper-vs-measured).

    Each experiment is one record in [experiments] below: its name, a
    one-line description, its grid (programs × analyses), a printer that
    reads the grid's cells, and, for [taint] and [profile] only, its own
    cell JSON. Every program load and every solve goes through one
    {!Csc_driver.Session}, so an experiment re-reading a cell another one
    solved (table3 after table2, the JSON report after the printer) re-runs
    nothing. An unknown experiment or a malformed option exits 2 and lists
    the experiments.

    Usage: dune exec bench/main.exe -- [experiments...] [--quick] [--budget S]
                                       [--doop-budget S] [--analyses CSV]
                                       [--json [FILE]] [--out DIR]
                                       [--trace FILE]
                                       [--compare BASELINE.json] [--soft-time]
    With no experiment (or [all]) every experiment runs, in list order.
    [--quick] shrinks the grid to three programs and smaller budgets, and
    leaves out hsqldb × 2obj, which runs to the quick budget.

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
module Session = Csc_driver.Session
module Suite = Csc_workloads.Suite
module Metrics = Csc_clients.Metrics
module Bits = Csc_common.Bits
module Csc = Csc_core.Csc
module Json = Csc_obs.Json
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr
module Taint = Csc_taint.Taint

type config = {
  programs : string list;
  budget : float;       (* imperative engine, seconds *)
  doop_budget : float;  (* datalog engine, seconds *)
  analyses : Run.analysis list;  (* --analyses: the custom experiment's *)
  left_out : (string * Run.analysis) list;
      (* (program, analysis) cells the suite grids do not run *)
}

(* ------------------------------------------------------------------ grid *)

type row = { name : string; prog : Ir.program; digest : string }

type grid = {
  rows : row list;
  cols : Run.analysis list;
  profiled : bool;
      (* cells run with telemetry on; [sp_profile] is part of the session
         key, so the timing experiments never see these outcomes *)
  left_out : (string * Run.analysis) list;
}

let session = Session.create ()

(* [programs] are Session.load specs: suite names or .mjava paths; a row is
   named by the file's base name *)
let grid ?(profiled = false) ?(left_out = []) programs cols =
  let row spec =
    match Session.load session spec with
    | Ok (prog, digest) ->
      { name = Filename.remove_extension (Filename.basename spec); prog; digest }
    | Error (`Not_found e | `Compile e) -> failwith e
  in
  { rows = List.map row programs; cols; profiled; left_out }

(* the analyses a row runs *)
let cols g r = List.filter (fun a -> not (List.mem (r.name, a) g.left_out)) g.cols

let budget cfg a = if Run.is_datalog a then cfg.doop_budget else cfg.budget

let cell cfg g r a : Run.outcome =
  let spec = { (Run.spec a) with Run.sp_budget_s = Some (budget cfg a) } in
  let spec =
    if g.profiled then { spec with sp_profile = true; sp_profile_top = 10 }
    else spec
  in
  let o, cached = Session.outcome session ~digest:r.digest spec r.prog in
  if not cached then begin
    Fmt.epr "  [%s / %s%s] %.2fs%s@." r.name (Run.name a)
      (if g.profiled then " profiled" else "")
      o.o_time
      (if o.o_timeout then " (timeout)" else "");
    (* the timed-out context-sensitive runs leave a bloated heap behind;
       without this, every analysis after a 2obj timeout crawls *)
    Gc.compact ()
  end;
  o

(* the budget shown for a timeout cell depends on the engine *)
let time_cell cfg a (o : Run.outcome) =
  if o.o_timeout then Fmt.str ">%.0fs" (budget cfg a)
  else Fmt.str "%.2f" o.o_time

let metric_cells (o : Run.outcome) =
  match o.o_metrics with
  | None -> ("-", "-", "-", "-")
  | Some m ->
    ( string_of_int m.fail_cast,
      string_of_int m.reach_mtd,
      string_of_int m.poly_call,
      string_of_int m.call_edge )

(* ----------------------------------------------------- tables 1/2, custom *)

let efficiency_table ~title cfg g =
  Fmt.pr "@.=== %s ===@." title;
  Fmt.pr "%-11s %-14s %9s %11s %11s %11s %11s@." "program" "analysis" "time(s)"
    "#fail-cast" "#reach-mtd" "#poly-call" "#call-edge";
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          let o = cell cfg g r a in
          let fc, rm, pc, ce = metric_cells o in
          Fmt.pr "%-11s %-14s %9s %11s %11s %11s %11s@." r.name o.o_analysis
            (time_cell cfg a o) fc rm pc ce)
        (cols g r);
      Fmt.pr "@.")
    g.rows

(* [custom --analyses CSV]: an ad-hoc efficiency table over any analyses the
   grammar accepts (e.g. --analyses csc,kobj:3,doop:csc) *)
let custom cfg g =
  match g.cols with
  | [] ->
    Fmt.epr
      "custom: no analyses given; pass --analyses CSV (e.g. --analyses \
       csc,2obj,kobj:3)@."
  | cols ->
    efficiency_table cfg g
      ~title:
        (Fmt.str "Custom: %s" (String.concat ", " (List.map Run.name cols)))

(* --------------------------------------------------------------- figure 12 *)

let fig12 cfg g =
  Fmt.pr "@.=== Figure 12: analysis time (s) per program, Datalog engine ===@.";
  (* bar chart, log-ish scale *)
  List.iter
    (fun r ->
      Fmt.pr "@.%s:@." r.name;
      List.iter
        (fun a ->
          let o = cell cfg g r a in
          let t = if o.o_timeout then cfg.doop_budget else o.o_time in
          let bar = int_of_float (10. *. log10 (1. +. (t *. 100.))) in
          Fmt.pr "  %-14s %-8s |%s%s@." o.o_analysis (time_cell cfg a o)
            (String.make (max 1 bar) '#')
            (if o.o_timeout then "..." else ""))
        (cols g r))
    g.rows

(* ---------------------------------------------------------------- table 3 *)

let table3_engines =
  [ ("tai-e", Run.Imp_zipper, Run.Imp_csc);
    ("doop", Run.Doop_zipper, Run.Doop_csc) ]

let table3 cfg g =
  Fmt.pr
    "@.=== Table 3: Zipper^e vs Cut-Shortcut (imperative engine \
     left, Datalog right in the paper; both engines below) ===@.";
  Fmt.pr "%-11s %-8s %9s %9s %9s %9s | %9s %9s %9s@." "program" "engine"
    "zip-total" "zip-pre" "zip-main" "selected" "csc-time" "involved" "overlap";
  List.iter
    (fun r ->
      List.iter
        (fun (engine, zip_a, csc_a) ->
          let zo = cell cfg g r zip_a in
          let co = cell cfg g r csc_a in
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
          Fmt.pr "%-11s %-8s %9s %9.2f %9.2f %9d | %9s %9d %9s@." r.name engine
            (time_cell cfg zip_a zo) zo.o_pre_time zo.o_main_time selected
            (time_cell cfg csc_a co) involved overlap)
        table3_engines)
    g.rows

(* ----------------------------------------------------------------- recall *)

let recall cfg g =
  Fmt.pr "@.=== Recall experiment (§5.1): dynamic coverage of each analysis ===@.";
  Fmt.pr "%-11s %10s %10s %-12s %10s %10s@." "program" "dyn-mtd" "dyn-edge"
    "analysis" "recall-m" "recall-e";
  List.iter
    (fun r ->
      let dyn = Csc_interp.Interp.run r.prog in
      List.iter
        (fun a ->
          match (cell cfg g r a).o_result with
          | None -> Fmt.pr "%-11s %10s %10s %-12s (timeout)@." r.name "" "" (Run.name a)
          | Some res ->
            let rc =
              Metrics.recall res ~dyn_reach:dyn.dyn_reachable
                ~dyn_edges:dyn.dyn_edges
            in
            Fmt.pr "%-11s %10d %10d %-12s %9.1f%% %9.1f%%@." r.name
              (Bits.cardinal dyn.dyn_reachable)
              (List.length dyn.dyn_edges)
              (Run.name a)
              (100. *. rc.recall_methods)
              (100. *. rc.recall_edges))
        (cols g r))
    g.rows

(* --------------------------------------------------------------- ablation *)

let ablation_variants =
  Csc.
    [
      ("field", { field_pattern = true; container_pattern = false; local_flow = false });
      ("container", { field_pattern = false; container_pattern = true; local_flow = false });
      ("localflow", { field_pattern = false; container_pattern = false; local_flow = true });
    ]

let ablation cfg g =
  Fmt.pr
    "@.=== Pattern-impact study (§5.1): share of CSC's precision improvement ===@.";
  let clients =
    [
      ("#fail-cast", fun (m : Metrics.t) -> m.fail_cast);
      ("#reach-mtd", fun m -> m.reach_mtd);
      ("#poly-call", fun m -> m.poly_call);
      ("#call-edge", fun m -> m.call_edge);
    ]
  in
  let metrics r a = (cell cfg g r a).o_metrics in
  let variants =
    (("none (ci)", Run.Imp_ci)
     :: List.map (fun (n, v) -> (n, Run.Imp_csc_cfg v)) ablation_variants)
    @ [ ("all (csc)", Run.Imp_csc) ]
  in
  (* the programs where both CI and full CSC finished *)
  let base =
    List.filter_map
      (fun r ->
        match (metrics r Run.Imp_ci, metrics r Run.Imp_csc) with
        | Some ci, Some full -> Some (r, ci, full)
        | _ -> None)
      g.rows
  in
  Fmt.pr "%-11s" "pattern";
  List.iter (fun (cname, _) -> Fmt.pr " %11s" cname) clients;
  Fmt.pr " %9s@." "solve(s)";
  (* average over programs of (CI - variant) / (CI - full CSC), and the
     variant's solve time summed over the same programs *)
  List.iter
    (fun (vname, a) ->
      Fmt.pr "%-11s" vname;
      List.iter
        (fun (_, f) ->
          let sum =
            List.fold_left
              (fun acc (r, ci, full) ->
                match metrics r a with
                | Some mv when f ci - f full > 0 ->
                  acc +. (float (f ci - f mv) /. float (f ci - f full))
                | _ -> acc)
              0. base
          in
          Fmt.pr " %10.1f%%" (100. *. sum /. float (max 1 (List.length base))))
        clients;
      let time =
        List.fold_left (fun acc (r, _, _) -> acc +. (cell cfg g r a).o_time) 0. base
      in
      Fmt.pr " %9.2f@." time)
    variants;
  Fmt.pr
    "(share of the CI->CSC improvement each pattern achieves alone, averaged \
     over programs;@. the three shares need not sum to 100%%: patterns \
     reinforce each other, §5.1; solve(s) sums the solve times of those \
     programs)@."

(* ----------------------------------------------------------- extensions *)

(* Not in the paper: context-depth study on the programs where object
   sensitivity scales, showing the precision/cost curve CSC sidesteps. *)
let kstudy cfg g =
  Fmt.pr "@.=== Extension: context-depth study (kobj) vs CSC ===@.";
  Fmt.pr "%-11s %-10s %9s %11s %11s@." "program" "analysis" "time(s)"
    "#fail-cast" "#call-edge";
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          let o = cell cfg g r a in
          let fc, _, _, ce = metric_cells o in
          Fmt.pr "%-11s %-10s %9s %11s %11s@." r.name o.o_analysis
            (time_cell cfg a o) fc ce)
        (cols g r))
    g.rows

(* Not in the paper: the instanceof-resolution client over CI vs CSC. *)
let extras cfg g =
  Fmt.pr "@.=== Extension: unresolved instanceof sites (CI vs CSC) ===@.";
  Fmt.pr "%-11s %12s %12s@." "program" "ci" "csc";
  List.iter
    (fun r ->
      Fmt.pr "%-11s" r.name;
      List.iter
        (fun a ->
          Fmt.pr " %12s"
            (match (cell cfg g r a).o_result with
            | Some res -> string_of_int (Metrics.unresolved_instanceof r.prog res)
            | None -> "-"))
        (cols g r);
      Fmt.pr "@.")
    g.rows

(* Not in the paper: the csc_checks diagnostic suite, CI vs CSC — the
   precision gain of Table 2 restated client-style as fewer false alarms
   (fail-cast, poly-call) on every workload. dead-store is PTA-independent
   and acts as a control column. *)
let checks cfg g =
  Fmt.pr
    "@.=== Extension: flow-sensitive checker diagnostics (CI vs CSC) ===@.";
  Fmt.pr "%-11s %-9s %10s %10s %10s %10s %10s@." "program" "analysis" "total"
    "null-deref" "fail-cast" "poly-call" "dead-store";
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          match (cell cfg g r a).o_result with
          | None -> Fmt.pr "%-11s %-9s (timeout)@." r.name (Run.name a)
          | Some res ->
            let ds = Csc_checks.Checks.run_all r.prog res in
            let count c =
              List.assoc c (Csc_checks.Checks.count_by_check ds)
            in
            Fmt.pr "%-11s %-9s %10d %10d %10d %10d %10d@." r.name (Run.name a)
              (List.length ds) (count "null-deref") (count "fail-cast")
              (count "poly-call") (count "dead-store"))
        (cols g r);
      Fmt.pr "@.")
    g.rows

(* ------------------------------------------------------------ taint (E13) *)

(* E13 (EXPERIMENTS.md): leak reports per analysis on the committed
   ground-truth corpus under examples/leaks. Programs named *_leak contain a
   flow every sound analysis must report; programs named *_ok are clean, so
   any report on them is a false positive. The paper's precision claim
   restated for the taint client: csc matches 2obj (zero false leaks) while
   ci over-reports on the field / container / dispatch merge patterns. *)

let leak_programs () =
  match
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "examples/leaks"; "../examples/leaks"; "../../examples/leaks" ]
  with
  | None ->
    Fmt.epr "taint: examples/leaks not found (run from the repo root)@.";
    []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mjava")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

(* -1 marks a timeout *)
let leaks cfg g r a =
  match (cell cfg g r a).o_result with
  | None -> -1
  | Some res -> List.length (Taint.diagnostics r.prog (Taint.analyze r.prog res))

let taint cfg g =
  Fmt.pr
    "@.=== Extension: taint leak reports on the ground-truth corpus (E13) \
     ===@.";
  Fmt.pr "%-24s %-9s %6s %9s@." "program" "analysis" "leaks" "expected";
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          let expected =
            if Filename.check_suffix r.name "_ok" then
              if a = Run.Imp_ci then "0 or fp" else "0"
            else ">=1"
          in
          Fmt.pr "%-24s %-9s %6d %9s@." r.name (Run.name a) (leaks cfg g r a)
            expected)
        (cols g r))
    g.rows;
  Fmt.pr "@.";
  List.iter
    (fun a ->
      let false_leaks, missed =
        List.fold_left
          (fun (fp, missed) r ->
            let n = leaks cfg g r a in
            if Filename.check_suffix r.name "_ok" then (fp + max 0 n, missed)
            else if Filename.check_suffix r.name "_leak" && n = 0 then
              (fp, missed + 1)
            else (fp, missed))
          (0, 0) g.rows
      in
      Fmt.pr "%-9s false leaks: %d   missed true leaks: %d@." (Run.name a)
        false_leaks missed)
    g.cols

(* corpus programs are tiny, so cells carry no timing: the regression gate
   compares leak counts only *)
let taint_cell cfg g r a : Json.t =
  Json.Obj
    [ ("program", Json.Str r.name);
      ("analysis", Json.Str (Run.name a));
      ("metrics", Json.Obj [ ("leaks", Json.Int (leaks cfg g r a)) ]) ]

(* ---------------------------------------------------------- profile (E14) *)

(* E14 (EXPERIMENTS.md): cost attribution vs precision, ci / csc / 2obj.
   Profiled runs pay the telemetry overhead, so their cells carry no time_s:
   the regression gate compares the precision metrics and ignores both the
   wall clock and the attribution payload. *)
let profile cfg g =
  Fmt.pr "@.=== Extension: cost attribution vs precision (E14) ===@.";
  Fmt.pr "%-11s %-9s %11s %11s %12s %10s  %s@." "program" "analysis"
    "#fail-cast" "#call-edge" "propagated" "shortcuts" "hottest methods";
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          let o = cell cfg g r a in
          match o.o_profile with
          | None -> Fmt.pr "%-11s %-9s (timeout)@." r.name (Run.name a)
          | Some pr ->
            let fc, _, _, ce = metric_cells o in
            let hot =
              List.filteri (fun i _ -> i < 3) pr.Attr.p_methods
              |> List.map (fun (e : Attr.entry) -> e.e_name)
              |> String.concat ", "
            in
            Fmt.pr "%-11s %-9s %11s %11s %12d %10d  %s@." r.name (Run.name a)
              fc ce pr.Attr.p_props pr.Attr.p_shortcuts hot)
        (cols g r))
    g.rows;
  Fmt.pr
    "(per-analysis hot-method attribution next to the precision it buys; \
     the shared hot set@. is where CSC's shortcut edges substitute for 2obj's \
     context duplication, E14)@."

(* the outcome's cell without its time and snapshot members *)
let profile_cell cfg g r a : Json.t =
  match Report.cell_json ~program:r.name (cell cfg g r a) with
  | Json.Obj fields ->
    Json.Obj
      (List.filter
         (fun (k, _) ->
           List.mem k [ "program"; "analysis"; "timeout"; "metrics"; "profile" ])
         fields)
  | j -> j

(* ------------------------------------------------------------------ micro *)

let micro _ _ =
  Fmt.pr "@.=== Micro-benchmarks (Bechamel) ===@.";
  let open Bechamel in
  let small_prog =
    Csc_lang.Frontend.compile_string Csc_workloads.Gen.(generate small_shape)
  in
  let datalog_tc () =
    let t = Csc_datalog.Engine.create () in
    for i = 0 to 499 do
      Csc_datalog.Engine.fact t "edge" [ i; i + 1 ]
    done;
    Csc_datalog.Engine.fact t "reach" [ 0 ];
    Csc_datalog.Engine.(
      add_rule t
        (atom "reach" [ V "y" ]
        <-- [ atom "reach" [ V "x" ]; atom "edge" [ V "x"; V "y" ] ]));
    Csc_datalog.Engine.solve t
  in
  let tests =
    [ ( "bits-union-1k",
        fun () ->
          let a = Bits.create () and b = Bits.create () in
          for i = 0 to 999 do
            ignore (Bits.add a (i * 3));
            ignore (Bits.add b (i * 5))
          done;
          ignore (Bits.union_into ~into:a b) );
      ( "frontend-jdk",
        fun () -> ignore (Csc_lang.Parser.parse_program Csc_lang.Jdk.source) );
      ("solver-ci-small", fun () -> ignore (Csc_pta.Solver.analyze small_prog));
      ( "solver-csc-small",
        fun () ->
          ignore (Csc_pta.Solver.analyze ~plugin_of:Csc.plugin small_prog) );
      ("datalog-tc-500", datalog_tc);
      ("interp-small", fun () -> ignore (Csc_interp.Interp.run small_prog)) ]
  in
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  List.iter
    (fun (name, f) ->
      let results =
        Benchmark.all cfg_b
          Toolkit.Instance.[ monotonic_clock ]
          (Test.make_grouped ~name:"g" [ Test.make ~name (Staged.stage f) ])
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

(* ------------------------------------------------------------ experiments *)

type experiment = {
  name : string;
  doc : string;
  grid : config -> grid;
  print : config -> grid -> unit;
  cell_json : (config -> grid -> row -> Run.analysis -> Json.t) option;
      (* [None]: {!Report.cell_json} of the cell's outcome *)
}

let exp ?cell_json name doc grid print = { name; doc; grid; print; cell_json }

let on_programs analyses (cfg : config) =
  grid ~left_out:cfg.left_out cfg.programs analyses

(* list order is the default run order: the cheap (imperative) experiments
   first, so an interrupted run still covers them; the Datalog grid
   (table1/fig12) comes last *)
let experiments =
  [ exp "table2" "Table 2: time + 4 precision metrics, imperative engine"
      (on_programs
         [ Run.Imp_ci; Run.Imp_kobj 2; Run.Imp_ktype 2; Run.Imp_zipper;
           Run.Imp_csc ])
      (efficiency_table
         ~title:
           "Table 2: efficiency and precision on the imperative engine \
            (Tai-e analog)");
    exp "recall" "§5.1 soundness recall against the interpreter"
      (on_programs [ Run.Imp_ci; Run.Imp_csc; Run.Doop_csc ])
      recall;
    exp "ablation" "§5.1 per-pattern precision-impact study"
      (on_programs
         (Run.Imp_ci :: Run.Imp_csc
         :: List.map (fun (_, v) -> Run.Imp_csc_cfg v) ablation_variants))
      ablation;
    exp "kstudy" "context-depth study (kobj) vs CSC"
      (fun cfg ->
        grid ~left_out:cfg.left_out
          (List.filter
             (fun p -> List.mem p [ "hsqldb"; "findbugs"; "eclipse"; "jedit" ])
             cfg.programs)
          [ Run.Imp_ci; Run.Imp_kobj 1; Run.Imp_kobj 2; Run.Imp_kobj 3;
            Run.Imp_csc ])
      kstudy;
    exp "extras" "unresolved instanceof sites, CI vs CSC"
      (on_programs [ Run.Imp_ci; Run.Imp_csc ])
      extras;
    exp "checks" "flow-sensitive checker diagnostics, CI vs CSC"
      (on_programs [ Run.Imp_ci; Run.Imp_csc ])
      checks;
    exp "taint" "taint leak reports on examples/leaks (E13)" ~cell_json:taint_cell
      (fun _ -> grid (leak_programs ()) [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2 ])
      taint;
    exp "profile" "cost attribution vs precision (E14)" ~cell_json:profile_cell
      (fun cfg ->
        grid ~profiled:true ~left_out:cfg.left_out cfg.programs
          [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2 ])
      profile;
    exp "micro" "Bechamel micro-benchmarks of the substrates"
      (fun _ -> grid [] [])
      micro;
    exp "table3" "Table 3: Zipper^e vs Cut-Shortcut"
      (on_programs
         (List.concat_map (fun (_, z, c) -> [ z; c ]) table3_engines))
      table3;
    exp "table1" "Table 1: time + 4 precision metrics, Datalog engine"
      (on_programs
         [ Run.Doop_ci; Run.Doop_2obj; Run.Doop_2type; Run.Doop_zipper;
           Run.Doop_csc ])
      (efficiency_table
         ~title:
           "Table 1: efficiency and precision on the Datalog engine (Doop \
            analog)");
    exp "fig12" "Figure 12: analysis-time bars, Datalog engine"
      (on_programs
         [ Run.Doop_csc; Run.Doop_ci; Run.Doop_zipper; Run.Doop_2obj;
           Run.Doop_2type ])
      fig12;
    exp "custom" "efficiency table over --analyses CSV (e.g. csc,kobj:3,doop:csc)"
      (fun cfg -> grid cfg.programs cfg.analyses)
      custom ]

(* the experiment's JSON document, reading the cells its printer already
   solved; an experiment without cells (micro, custom without --analyses)
   has none *)
let experiment_json cfg e g : Json.t option =
  if g.rows = [] || g.cols = [] then None
  else
    let cell_json =
      match e.cell_json with
      | Some f -> f cfg g
      | None -> fun r a -> Report.cell_json ~program:r.name (cell cfg g r a)
    in
    Some
      (Report.experiment_json ~name:e.name
         (List.concat_map
            (fun r -> List.map (cell_json r) (cols g r))
            g.rows))

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
  let str k j = Option.bind (Json.member k j) Json.get_string in
  let cells j =
    Option.value ~default:[]
      (Option.bind (Json.member "cells" j) Json.get_list)
  in
  let timed_out c =
    Option.bind (Json.member "timeout" c) Json.get_bool = Some true
  in
  let time_s c = Option.bind (Json.member "time_s" c) Json.get_float in
  List.iter
    (fun (ename, j) ->
      match List.find_opt (fun b -> str "experiment" b = Some ename) baseline_exps with
      | None ->
        Fmt.epr "compare: no baseline for experiment %s (skipped)@." ename
      | Some b ->
        List.iter
          (fun cur ->
            let key c = (str "program" c, str "analysis" c) in
            match key cur with
            | Some p, Some a -> (
              let where = Fmt.str "%s/%s/%s" ename p a in
              match List.find_opt (fun bc -> key bc = key cur) (cells b) with
              | None -> Fmt.epr "compare: %s not in baseline (skipped)@." where
              | Some bc when timed_out cur || timed_out bc ->
                Fmt.epr "compare: %s timed out (skipped)@." where
              | Some bc -> (
                (match (Json.member "metrics" cur, Json.member "metrics" bc) with
                | Some mc, Some mb when mc <> mb ->
                  incr failures;
                  Fmt.epr
                    "compare: FAIL %s precision metrics changed@.  baseline \
                     %s@.  current  %s@."
                    where (Json.to_string mb) (Json.to_string mc)
                | _ -> ());
                match (time_s cur, time_s bc) with
                | Some tc, Some tb when tc > (tb *. 1.25) +. 0.05 ->
                  if soft_time then
                    Fmt.epr "compare: warn %s time %.3fs vs baseline %.3fs (soft)@."
                      where tc tb
                  else begin
                    incr failures;
                    Fmt.epr
                      "compare: FAIL %s time %.3fs vs baseline %.3fs (>25%% \
                       regression)@."
                      where tc tb
                  end
                | _ -> ()))
            | _ -> ())
          (cells j))
    reports;
  !failures

(* ------------------------------------------------------------------- main *)

let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "bench: %s@.experiments (none or `all` runs every one):@." msg;
      List.iter (fun e -> Fmt.epr "  %-9s %s@." e.name e.doc) experiments;
      exit 2)
    fmt

let () =
  let find name = List.find_opt (fun e -> e.name = name) experiments in
  let selected = ref [] and quick = ref false and soft_time = ref false in
  let budget = ref None and doop_budget = ref None and analyses = ref [] in
  (* [json]: None = off, Some None = one BENCH_<exp>.json per experiment *)
  let json = ref None and out_dir = ref None and trace = ref None in
  let compare_file = ref None in
  let seconds flag v =
    match float_of_string_opt v with
    | Some s -> Some s
    | None -> usage_error "%s expects seconds, got %S" flag v
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--soft-time" :: rest -> soft_time := true; parse rest
    (* --json FILE = one document; bare --json = BENCH_<exp>.json per
       experiment (an experiment name after --json is NOT a file) *)
    | "--json" :: v :: rest
      when v <> "" && v.[0] <> '-' && v <> "all" && find v = None ->
      json := Some (Some v); parse rest
    | "--json" :: rest -> json := Some None; parse rest
    | ("--budget" | "--doop-budget" | "--analyses" | "--out" | "--trace"
      | "--compare") as flag :: v :: rest ->
      (match flag with
      | "--budget" -> budget := seconds flag v
      | "--doop-budget" -> doop_budget := seconds flag v
      | "--analyses" ->
        analyses :=
          List.map
            (fun s ->
              match Run.analysis_of_string (String.trim s) with
              | Ok a -> a
              | Error e -> usage_error "--analyses: %s" e)
            (String.split_on_char ',' v)
      | "--out" -> out_dir := Some v
      | "--trace" -> trace := Some v
      | _ -> compare_file := Some v);
      parse rest
    | [ ("--budget" | "--doop-budget" | "--analyses" | "--out" | "--trace"
        | "--compare") as flag ] ->
      usage_error "%s needs a value" flag
    | "all" :: rest -> selected := experiments; parse rest
    | a :: rest -> (
      match find a with
      | Some e -> selected := !selected @ [ e ]; parse rest
      | None -> usage_error "unknown experiment or option %S" a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected = if !selected = [] then experiments else !selected in
  let cfg =
    {
      programs =
        (if !quick then [ "hsqldb"; "findbugs"; "eclipse" ] else Suite.names);
      budget = Option.value !budget ~default:(if !quick then 20. else 60.);
      doop_budget =
        Option.value !doop_budget ~default:(if !quick then 60. else 150.);
      analyses = !analyses;
      (* hsqldb's 2obj cells, on either engine, run to the quick budget,
         and a timed-out cell is one the baseline gate skips *)
      left_out =
        (if !quick then [ ("hsqldb", Run.Imp_kobj 2); ("hsqldb", Run.Doop_2obj) ]
         else []);
    }
  in
  (* --out DIR: directory for all emitted JSON (created if missing), so bare
     --json stops dropping BENCH_*.json into the working tree *)
  let out_path file =
    match !out_dir with
    | None -> file
    | Some dir ->
      if not (Sys.file_exists dir) then
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      Filename.concat dir file
  in
  Option.iter (fun file -> Trace.start ~file) !trace;
  Fmt.pr "cutshortcut bench: programs=[%s] budget=%.0fs doop-budget=%.0fs@."
    (String.concat ", " cfg.programs)
    cfg.budget cfg.doop_budget;
  List.iter
    (fun (p, a) -> Fmt.pr "  left out: %s / %s@." p (Run.name a))
    cfg.left_out;
  let reports =
    List.filter_map
      (fun e ->
        let g = e.grid cfg in
        e.print cfg g;
        if !json = None && !compare_file = None then None
        else Option.map (fun j -> (e.name, j)) (experiment_json cfg e g))
      selected
  in
  (match !json with
  | None -> ()
  | Some (Some file) ->
    let file = out_path file in
    Report.write_file file
      (Json.Obj [ ("experiments", Json.List (List.map snd reports)) ]);
    Fmt.epr "wrote %s@." file
  | Some None ->
    List.iter
      (fun (e, j) ->
        let file = out_path ("BENCH_" ^ e ^ ".json") in
        Report.write_file file j;
        Fmt.epr "wrote %s@." file)
      reports);
  let gate_failures =
    match !compare_file with
    | None -> 0
    | Some file -> (
      match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
      | Error e ->
        Fmt.epr "compare: cannot parse %s: %s@." file e;
        1
      | Ok baseline ->
        let n = compare_reports ~soft_time:!soft_time ~baseline reports in
        if n = 0 then Fmt.epr "compare: OK, no regressions vs %s@." file
        else Fmt.epr "compare: %d regression(s) vs %s@." n file;
        n)
  in
  Trace.finish ();
  if gate_failures > 0 then exit 1
