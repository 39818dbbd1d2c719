(** cutshortcut — command-line front door.

    Subcommands:
    - [list]      : show the workload suite with program statistics
    - [gen]       : print a generated workload's MiniJava source
    - [run]       : execute a program with the concrete interpreter
    - [dump-ir]   : print the lowered IR
    - [analyze]   : run one or more pointer analyses, print time + metrics
    - [explain]   : answer "why does x point to o" with derivation chains
    - [check]     : run the flow-sensitive checkers backed by an analysis
    - [profile]   : cost attribution — hot methods, pointers and rules
    - [recall]    : the §5.1 recall experiment for one program
    - [serve]     : resident analysis server on a unix socket
    - [client]    : send one JSON request to a running server

    The analysis subcommands ([analyze]/[explain]/[check]/[profile]/
    [taint]/[recall]/[callgraph]/[pts]) take the same run-spec flags
    ([--budget], [--trace]; [serve] takes them too, as its defaults).
    [--trace FILE] records a Chrome trace_event timeline of the phases
    (open in chrome://tracing or Perfetto), with counter samples from
    inside both solver loops.

    Every batch subcommand and the server share one request path,
    {!Csc_server.Query}: a {!Csc_driver.Run.spec} built from the command's
    flags, executed through a {!Csc_driver.Session} — batch mode simply uses
    a session that lives for one process. A request [Query] refuses prints
    one [cutshortcut: <message>] line on stderr and exits 1 for a timeout, 2
    otherwise. *)

module Ir = Csc_ir.Ir
module Run = Csc_driver.Run
module Report = Csc_driver.Report
module Query = Csc_server.Query
module Suite = Csc_workloads.Suite
module Snapshot = Csc_obs.Snapshot
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr
module Json = Csc_obs.Json
module Diagnostic = Csc_checks.Diagnostic
module Campaign = Csc_fuzz.Campaign
module Soundness = Csc_fuzz.Soundness

(* the process-lifetime session: batch subcommands run every analysis
   through it, so repeated (program, spec) pairs in one invocation are
   solved once — the same cache the server keeps across requests *)
let session = lazy (Csc_driver.Session.create ())

let program name = Query.program (Lazy.force session) name

let all_or analyses =
  if List.mem "all" analyses then Run.analysis_names else analyses

let print_outcome (o : Run.outcome) =
  if o.o_timeout then
    Fmt.pr "%-14s TIMEOUT after %.1fs" o.o_analysis o.o_time
  else begin
    Fmt.pr "%-14s %8.3fs" o.o_analysis o.o_time;
    match o.o_metrics with
    | Some m -> Fmt.pr "  %a" Csc_clients.Metrics.pp m
    | None -> ()
  end;
  (match o.o_snapshot with
  | Some s -> Fmt.pr "  [%s]" (Snapshot.to_line s)
  | None -> ());
  Fmt.pr "@."

(* ------------------------------------------------------------- commands *)

open Cmdliner

let program_arg =
  let doc = "Program to analyze: a suite name (see `list`) or a .mjava file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let budget_arg =
  let doc = "Per-analysis time budget in seconds (0 = no deadline; the 4 GB \
             heap cap still applies)." in
  Arg.(value & opt float 60.0 & info [ "budget" ] ~doc)

let trace_arg =
  let doc =
    "Record a Chrome trace_event timeline of the run to $(docv) (open in \
     chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
    Trace.start ~file;
    Fun.protect ~finally:Trace.finish f

(* The run-spec flags shared by every analysis subcommand and serve: one
   Cmdliner term, so the flag set cannot drift between subcommands. *)
type common = { cm_budget : float; cm_trace : string option }

let common_term =
  let mk budget trace = { cm_budget = budget; cm_trace = trace } in
  Cmdliner.Term.(const mk $ budget_arg $ trace_arg)

let spec_of_common ?(profile = false) ?(profile_top = 25) c analysis =
  {
    (Run.spec analysis) with
    Run.sp_budget_s = (if c.cm_budget <= 0. then None else Some c.cm_budget);
    sp_profile = profile;
    sp_profile_top = profile_top;
  }

(* every batch analysis goes through the session cache — same code path as
   the server *)
let outcome ?profile ?profile_top c analysis pd =
  fst
    (Query.outcome (Lazy.force session)
       (spec_of_common ?profile ?profile_top c analysis)
       pd)

(* the outcome and its answer; a timed-out analysis has none, so a CI gate
   must not pass on it *)
let answer c analysis pd =
  let o = outcome c analysis pd in
  (o, Query.result o)

(* check/taint --json: diagnostics under the versioned envelope, keeping
   Diagnostic.render_json's deterministic one-object-per-line body *)
let print_diagnostics_json p ds =
  Printf.printf "{\"schema\":%d,\n\"diagnostics\": %s}\n" Json.schema_version
    (String.trim (Diagnostic.render_json p ds))

let list_cmd =
  let run () =
    Fmt.pr "%-12s %8s %8s %8s %8s %8s@." "program" "classes" "methods" "stmts"
      "allocs" "calls";
    List.iter
      (fun name ->
        let p = Suite.compile name in
        let s = Ir.stats p in
        Fmt.pr "%-12s %8d %8d %8d %8d %8d@." name s.n_classes s.n_methods
          s.n_stmts s.n_allocs s.n_calls)
      Suite.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload suite with statistics")
    Term.(const run $ const ())

let gen_cmd =
  let rand_arg =
    Arg.(value & opt (some int) None
         & info [ "rand" ] ~docv:"SEED"
             ~doc:"Print the fuzzer's randomized program for $(docv) instead \
                   of a suite workload (reproduces fuzz cases by hand).")
  in
  let size_arg =
    Arg.(value & opt int 30
         & info [ "max-size" ] ~docv:"STMTS"
             ~doc:"Plan size for --rand.")
  in
  let opt_program_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"PROGRAM" ~doc:"Suite workload to print.")
  in
  let run name rand max_size =
    match (rand, name) with
    | Some seed, _ ->
      print_string
        (Csc_workloads.Gen.Rand.render
           (Csc_workloads.Gen.Rand.generate ~seed ~max_size))
    | None, Some name -> print_string (Query.workload name)
    | None, None ->
      Query.reject "bad-request" "gen: need a suite workload name or --rand SEED"
  in
  Cmd.v (Cmd.info "gen" ~doc:"Print a generated workload's source")
    Term.(const run $ opt_program_arg $ rand_arg $ size_arg)

let run_cmd =
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress program output.")
  in
  let run name quiet =
    let p, _ = program name in
    let o = Csc_interp.Interp.run p in
    if not quiet then List.iter print_endline o.output;
    Fmt.pr "; %d steps, %d methods reached dynamically, %d dynamic call edges@."
      o.steps
      (Csc_common.Bits.cardinal o.dyn_reachable)
      (List.length o.dyn_edges)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a program with the interpreter")
    Term.(const run $ program_arg $ quiet)

let dump_ir_cmd =
  let run name = Fmt.pr "%a@." Ir.pp_program (fst (program name)) in
  Cmd.v (Cmd.info "dump-ir" ~doc:"Print the lowered IR")
    Term.(const run $ program_arg)

(* the single analysis behind explain/check/taint/callgraph/pts *)
let analysis_arg ~doc =
  Arg.(value & opt string "csc" & info [ "analysis"; "a" ] ~doc)

let analyses_arg ~doc =
  let doc =
    Printf.sprintf "%s (repeatable). One of: %s, or 'all'." doc
      (String.concat ", " Run.analysis_names)
  in
  Arg.(value & opt_all string [ "ci"; "csc" ] & info [ "analysis"; "a" ] ~doc)

let analyze_cmd =
  let run name analyses common =
    with_trace common.cm_trace @@ fun () ->
    let analyses = List.map Query.analysis (all_or analyses) in
    let ((p, _) as pd) = program name in
    Fmt.pr "program: %s (%a)@." name Ir.pp_stats (Ir.stats p);
    List.iter (fun a -> print_outcome (outcome common a pd)) analyses
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run pointer analyses and print time + metrics")
    Term.(const run $ program_arg $ analyses_arg ~doc:"Analyses to run"
          $ common_term)

(* --------------------------------------------------------------- explain *)

let explain_cmd =
  let var =
    Arg.(value & opt (some string) None
         & info [ "var" ] ~docv:"NAME"
             ~doc:
               "Explain only this variable; matched as a suffix of \
                Class.method.var (e.g. Main.main.x or just main.x).")
  in
  let limit =
    Arg.(value & opt int 5
         & info [ "limit" ] ~doc:"Maximum number of facts explained.")
  in
  let run name analysis var limit common =
    with_trace common.cm_trace @@ fun () ->
    let spec = spec_of_common common (Query.analysis analysis) in
    match Query.explain ?var ~limit spec (fst (program name)) with
    | [] ->
      Fmt.pr "no points-to facts matched%a@."
        Fmt.(option (fmt " variable %S"))
        var
    | facts ->
      List.iter
        (fun (f : Csc_driver.Explain.fact) ->
          Fmt.pr "why %s -> %s:@." f.x_ptr f.x_obj;
          (match f.x_chain with
          | [] -> Fmt.pr "  (no recorded derivation)@."
          | lines -> List.iter (fun l -> Fmt.pr "  %s@." l) lines);
          Fmt.pr "@.")
        facts
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain points-to facts: print the derivation chain (provenance) \
          of why a variable points to an object")
    Term.(const run $ program_arg
          $ analysis_arg
              ~doc:"Imperative analysis to explain under (ci, csc, 2obj, ...)."
          $ var $ limit $ common_term)

(* --fail-on SEVERITY: the checkers as a CI gate *)
let fail_on_arg =
  let severities =
    Diagnostic.[ ("error", Error); ("warning", Warning); ("info", Info) ]
  in
  Arg.(
    value
    & opt (some (enum severities)) None
    & info [ "fail-on" ] ~docv:"SEVERITY"
        ~doc:
          "Exit with code 1 if any diagnostic at $(docv) (error, warning, \
           info) or a more severe level is present — the checkers as a CI \
           gate.")

let exit_fail_on fail_on (ds : Diagnostic.t list) =
  match fail_on with
  | Some sev
    when List.exists
           (fun (d : Diagnostic.t) ->
             Diagnostic.severity_rank d.d_severity
             <= Diagnostic.severity_rank sev)
           ds ->
    exit 1
  | _ -> ()

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")

let check_cmd =
  let checks =
    let doc =
      Printf.sprintf "Checkers to run (repeatable). One of: %s. Default: all."
        (String.concat ", " Csc_checks.Checks.names)
    in
    Arg.(value & opt_all string [] & info [ "check"; "c" ] ~doc)
  in
  let include_jdk =
    Arg.(value & flag
         & info [ "include-jdk" ] ~doc:"Report diagnostics in mini-JDK code too.")
  in
  let run name analysis checks json include_jdk fail_on common =
    with_trace common.cm_trace @@ fun () ->
    let checks =
      if checks = [] then None else Some (List.map Query.checker checks)
    in
    let analysis = Query.analysis analysis in
    let ((p, _) as pd) = program name in
    let o, r = answer common analysis pd in
    let ds = Csc_checks.Checks.run_all ?checks ~include_jdk p r in
    if json then print_diagnostics_json p ds
    else begin
      List.iter (fun d -> Fmt.pr "%a@." (Diagnostic.pp_text p) d) ds;
      Fmt.pr "%d diagnostic(s) under %s:" (List.length ds) o.Run.o_analysis;
      List.iter
        (fun (c, n) -> Fmt.pr " %s=%d" c n)
        (Csc_checks.Checks.count_by_check ds);
      Fmt.pr "@."
    end;
    exit_fail_on fail_on ds
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the flow-sensitive checkers (null-deref, fail-cast, poly-call, \
          dead-store) backed by a pointer analysis")
    Term.(const run $ program_arg
          $ analysis_arg
              ~doc:"Analysis backing the checkers (precision = fewer false \
                    alarms)."
          $ checks $ json_arg $ include_jdk $ fail_on_arg $ common_term)

let profile_cmd =
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows per table (hot methods, pointers, rules).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the profiles as JSON.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON report to $(docv) instead of stdout \
                   (implies --json).")
  in
  let run name analyses top json out common =
    with_trace common.cm_trace @@ fun () ->
    let analyses =
      List.map (fun a -> (a, Query.analysis a)) (all_or analyses)
    in
    let pd = program name in
    let outcomes =
      List.map
        (fun (a, analysis) ->
          (a, outcome ~profile:true ~profile_top:top common analysis pd))
        analyses
    in
    if json || out <> None then begin
      let doc =
        Json.with_schema
          [ ("program", Json.Str name);
            ( "profiles",
              Json.List
                (List.map (fun (_, o) -> Report.profile_json o) outcomes) ) ]
      in
      match out with
      | Some file ->
        Report.write_file file doc;
        Fmt.pr "profile written to %s@." file
      | None -> print_string (Json.to_string ~pretty:true doc ^ "\n")
    end
    else
      List.iter
        (fun (a, (o : Run.outcome)) ->
          if o.o_timeout then
            Fmt.pr "== %s: TIMEOUT after %.1fs ==@.@." a o.o_time
          else begin
            Fmt.pr "== %s (%.3fs) ==@." a o.o_time;
            match o.o_profile with
            | Some pr -> Fmt.pr "%s@." (Attr.profile_text ~top pr)
            | None -> Fmt.pr "(no profile collected)@.@."
          end)
        outcomes
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Cost attribution: run analyses with solver telemetry enabled and \
          report the hot methods, pointers and rules driving solve time")
    Term.(const run $ program_arg $ analyses_arg ~doc:"Analyses to profile"
          $ top $ json $ out $ common_term)

let taint_cmd =
  let spec_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "JSON taint spec: an object with \"sources\", \"sinks\" and \
             \"sanitizers\" lists of Class.method patterns (* globs). \
             Default: the builtin Flow/Request/Db/Sanitizer table.")
  in
  let include_jdk =
    Arg.(value & flag
         & info [ "include-jdk" ] ~doc:"Report leaks in mini-JDK code too.")
  in
  let run name analysis spec_file json include_jdk fail_on common =
    with_trace common.cm_trace @@ fun () ->
    let tspec = Query.taint_spec spec_file in
    let analysis = Query.analysis analysis in
    let ((p, _) as pd) = program name in
    let o, r = answer common analysis pd in
    let res = Csc_taint.Taint.analyze ~spec:tspec p r in
    let ds = Csc_taint.Taint.diagnostics ~include_jdk p res in
    if json then print_diagnostics_json p ds
    else begin
      List.iter (fun d -> Fmt.pr "%a@." (Diagnostic.pp_text p) d) ds;
      Fmt.pr "%d leak(s) under %s, %d tainted object(s)@." (List.length ds)
        o.Run.o_analysis
        (Csc_common.Bits.cardinal res.Csc_taint.Taint.t_tainted_objs)
    end;
    exit_fail_on fail_on ds
  in
  Cmd.v
    (Cmd.info "taint"
       ~doc:
         "Source→sink taint analysis over the PTA call graph: report call \
          sites where a tainted value may reach a sink")
    Term.(const run $ program_arg
          $ analysis_arg
              ~doc:"Analysis backing the taint propagation (a more precise \
                    analysis reports fewer spurious leaks)."
          $ spec_file $ json_arg $ include_jdk $ fail_on_arg $ common_term)

let callgraph_cmd =
  let include_jdk =
    Arg.(value & flag & info [ "include-jdk" ] ~doc:"Keep mini-JDK methods.")
  in
  let run name analysis include_jdk common =
    with_trace common.cm_trace @@ fun () ->
    let analysis = Query.analysis analysis in
    let ((p, _) as pd) = program name in
    let _, r = answer common analysis pd in
    print_string (Csc_driver.Export.callgraph_dot ~include_jdk p r)
  in
  Cmd.v
    (Cmd.info "callgraph" ~doc:"Emit the call graph as Graphviz DOT on stdout")
    Term.(const run $ program_arg $ analysis_arg ~doc:"Analysis to use."
          $ include_jdk $ common_term)

let pts_cmd =
  let meth =
    Arg.(value & opt (some string) None
         & info [ "method"; "m" ] ~doc:"Restrict to one method, e.g. Main.main.")
  in
  let run name analysis meth common =
    with_trace common.cm_trace @@ fun () ->
    let analysis = Query.analysis analysis in
    let ((p, _) as pd) = program name in
    let _, r = answer common analysis pd in
    Csc_driver.Export.pts_dump ?method_filter:meth p r Fmt.stdout
  in
  Cmd.v (Cmd.info "pts" ~doc:"Dump points-to sets")
    Term.(const run $ program_arg $ analysis_arg ~doc:"Analysis to use." $ meth
          $ common_term)

(* the §5.1 recall experiment: execute the program, then score how much of
   the dynamic behaviour each analysis over-approximates *)
let recall_cmd =
  let run name common =
    with_trace common.cm_trace @@ fun () ->
    let ((p, _) as pd) = program name in
    let dyn = Csc_interp.Interp.run p in
    Fmt.pr "%-14s %10s %10s@." "analysis" "methods" "edges";
    List.iter
      (fun a ->
        match (outcome common a pd).o_result with
        | None -> Fmt.pr "%-14s (timeout)@." (Run.name a)
        | Some r ->
          let rc =
            Csc_clients.Metrics.recall r ~dyn_reach:dyn.dyn_reachable
              ~dyn_edges:dyn.dyn_edges
          in
          Fmt.pr "%-14s %9.1f%% %9.1f%%@." (Run.name a)
            (100. *. rc.recall_methods) (100. *. rc.recall_edges))
      [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2; Run.Doop_csc ]
  in
  Cmd.v
    (Cmd.info "recall" ~doc:"Recall experiment: dynamic vs static coverage")
    Term.(const run $ program_arg $ common_term)

let fuzz_cmd =
  let n_arg =
    Arg.(value & opt int 500
         & info [ "n" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Campaign seed; fixed seed, identical campaign.")
  in
  let max_size_arg =
    Arg.(value & opt int 30
         & info [ "max-size" ] ~docv:"STMTS"
             ~doc:"Target plan size per generated program.")
  in
  let minimize_arg =
    Arg.(value & opt bool true
         & info [ "minimize" ] ~docv:"BOOL"
             ~doc:"Delta-debug violating programs to minimal counterexamples.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write (minimized) counterexamples and their JSON metadata \
                   to $(docv).")
  in
  let inject_arg =
    (* hidden self-test: drops store-pattern shortcut edges, which the
       oracle must catch *)
    Arg.(value & flag
         & info [ "inject-unsound" ]
             ~doc:"Deliberately drop CSC store-pattern shortcut edges to \
                   verify the oracle catches real unsoundness. The campaign \
                   is expected to FAIL."
             ~docs:Cmdliner.Manpage.s_none)
  in
  let run n seed max_size minimize out inject trace =
    with_trace trace @@ fun () ->
    let cfg =
      {
        Campaign.default_cfg with
        Campaign.n;
        seed;
        max_size;
        minimize;
        out_dir = out;
        inject_unsound = inject;
        progress = true;
      }
    in
    let r = Campaign.run cfg in
    Fmt.pr "fuzz: %d programs, %d violating, %d generator errors, %d halted \
            traces (%.1f progs/s, %.1fs)@."
      r.Campaign.r_total
      (List.length r.Campaign.r_failed)
      r.Campaign.r_gen_errors r.Campaign.r_halted r.Campaign.r_progs_per_s
      r.Campaign.r_elapsed;
    List.iter
      (fun (c : Campaign.case) ->
        Fmt.pr "@.seed %d: %d violation(s)@." c.Campaign.c_seed
          (List.length c.Campaign.c_violations);
        List.iter
          (fun v -> Fmt.pr "  %a@." Soundness.pp_violation v)
          c.Campaign.c_violations;
        match (c.Campaign.c_min_source, c.Campaign.c_min_app_stmts) with
        | Some src, Some stmts ->
          Fmt.pr "  minimized to %d app IR statements:@.%s@." stmts src
        | _ -> ())
      r.Campaign.r_failed;
    if r.Campaign.r_failed <> [] then begin
      Fmt.epr "fuzz: FAILED (%d violating program(s))@."
        (List.length r.Campaign.r_failed);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Soundness fuzzing: random programs, interpreter ground truth, the \
          full engine/configuration matrix, delta-debugged counterexamples")
    Term.(const run $ n_arg $ seed_arg $ max_size_arg $ minimize_arg $ out_arg
          $ inject_arg $ trace_arg)

(* ------------------------------------------------------- serve / client *)

let socket_arg =
  let doc = "Unix socket path the server listens on." in
  Arg.(value & opt string "/tmp/cutshortcut.sock"
       & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let max_mem =
    Arg.(value & opt int 1024
         & info [ "max-mem" ] ~docv:"MB"
             ~doc:
               "Resident result-cache bound in MiB; least-recently-used \
                solved states are evicted past it.")
  in
  let analysis =
    Arg.(value & opt string "csc"
         & info [ "analysis"; "a" ]
             ~doc:"Default analysis for requests that name none.")
  in
  let run socket max_mem analysis common =
    with_trace common.cm_trace @@ fun () ->
    let defaults = spec_of_common common (Query.analysis analysis) in
    let t =
      Csc_server.Server.create
        ~max_mem_bytes:(max_mem * 1024 * 1024)
        ~defaults ()
    in
    Fmt.epr "cutshortcut serve: starting on %s (default analysis %s)@."
      socket analysis;
    Csc_server.Server.serve t ~socket;
    Fmt.epr "cutshortcut serve: shut down@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident analysis server: a daemon on a unix socket answering \
          newline-delimited JSON analyze/pt/callgraph/check/taint/explain/\
          profile/stats requests out of a digest-keyed result cache")
    Term.(const run $ socket_arg $ max_mem $ analysis $ common_term)

let client_cmd =
  let wait =
    Arg.(value & opt float 0.
         & info [ "wait" ] ~docv:"SECS"
             ~doc:
               "Wait up to $(docv) for the socket to accept connections \
                first (scripting a just-started daemon).")
  in
  let request =
    let doc =
      "The request: one JSON object, e.g. '{\"cmd\": \"analyze\", \
       \"program\": \"findbugs\", \"analysis\": \"csc\"}'."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)
  in
  let run socket wait request =
    if wait > 0. then
      if not (Csc_server.Client.wait_for_socket ~timeout_s:wait socket) then begin
        Fmt.epr "client: %s not accepting connections after %.1fs@." socket
          wait;
        exit 2
      end;
    match Csc_server.Client.request ~socket request with
    | Error msg ->
      Fmt.epr "client: %s@." msg;
      exit 2
    | Ok reply ->
      print_endline reply;
      (* scripting-friendly: error replies exit nonzero *)
      let ok =
        match Json.parse reply with
        | Ok j -> Option.bind (Json.member "ok" j) Json.get_bool = Some true
        | Error _ -> false
      in
      if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one JSON request to a running analysis server and print the \
          reply (exit 1 on an error reply)")
    Term.(const run $ socket_arg $ wait $ request)

let main_cmd =
  Cmd.group
    (Cmd.info "cutshortcut" ~version:"1.0.0"
       ~doc:"Cut-Shortcut pointer analysis (PLDI 2023) reproduction")
    [ list_cmd; gen_cmd; run_cmd; dump_ir_cmd; analyze_cmd; explain_cmd;
      check_cmd; profile_cmd; taint_cmd; recall_cmd; callgraph_cmd; pts_cmd;
      fuzz_cmd; serve_cmd; client_cmd ]

(* cmdliner reserves double-dash spellings for multi-char names, but the
   documented fuzz interface is `--n N`; accept it as an alias of `-n` *)
let argv =
  Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv

(* a refused request is one stderr line, not an uncaught exception *)
let () =
  match Cmd.eval ~catch:false ~argv main_cmd with
  | code -> exit code
  | exception e -> (
    match Query.refusal e with
    | Some (code, msg) ->
      Fmt.epr "cutshortcut: %s@." msg;
      exit (if code = "timeout" then 1 else 2)
    | None ->
      Fmt.epr "cutshortcut: internal error, uncaught exception:@.%s@."
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error)
