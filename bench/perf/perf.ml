(** perf.exe — the performance benchmark (see README.md in this directory).

    {v
    perf.exe run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke] [--out FILE] [--chrome FILE]
                     [--baseline BENCH_BASELINE.json] [--benchmark BENCHMARK.json]
    perf.exe trace   (= run --trace 1)
    perf.exe compare PARENT.json... -- CHANGE.json...
    perf.exe expected              (prints the seed-0 cells of expected.json)
    v}

    With [--workload], one workload runs in this process and the last line
    of standard output is the result object
    [{"correct", "attempted", "failed", "metrics"}]: the end-to-end metrics,
    or with [--trace 1] the per-layer ones. Without it every workload runs
    in a child process of its own, one after another, so each has a fresh
    heap and its own peak RSS. *)

module Run = Csc_driver.Run
module Json = Csc_obs.Json
module Trace = Csc_obs.Trace
module Suite = Csc_workloads.Suite

(* ------------------------------------------------------------- workloads *)

type workload = {
  name : string;
  nominal_s : float;
      (** normalized seconds one pass took at the seed commit; [--seconds S]
          does [ceil (S / nominal_s)] passes, so a parent and a change do the
          same work *)
  p90 : bool;  (** enough requests for a pooled 90th percentile *)
  run : Work.env -> local:bool -> passes:int -> reps:int -> unit;
}

(* largest first: the peak RSS of a pass is then set by its first requests,
   not by how the heap happened to grow over smaller ones before them *)
let batch_classes =
  List.concat_map (fun p -> [ (p, Run.Imp_csc); (p, Run.Imp_ci) ]) (List.rev Suite.names)

let heavy_classes =
  [ ("findbugs", Run.Imp_2obj); ("findbugs", Run.Doop_ci); ("jedit", Run.Doop_ci);
    ("findbugs", Run.Doop_csc); ("jedit", Run.Doop_csc) ]

let workloads =
  [ { name = "batch"; nominal_s = 5.5; p90 = true;
      run = (fun env ~local:_ ~passes ~reps -> Work.one_shots env ~classes:batch_classes ~passes ~reps) };
    { name = "heavy"; nominal_s = 7.4; p90 = false;
      run = (fun env ~local:_ ~passes ~reps -> Work.one_shots env ~classes:heavy_classes ~passes ~reps) };
    { name = "serve"; nominal_s = 0.86; p90 = true;
      run =
        (fun env ~local ~passes ~reps ->
          Work.serve env ~local ~programs:Work.serve_programs ~rounds:passes ~reps) };
    { name = "edit"; nominal_s = 2.6; p90 = false;
      run =
        (fun env ~local ~passes ~reps:_ ->
          Work.edit env ~local ~programs:Work.edit_programs ~rounds:passes) } ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (%s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

let passes w seconds = max 1 (int_of_float (Float.ceil (seconds /. w.nominal_s)))

(* set-up is repeated and its median reported; a smoke run does it once *)
let setup_reps = 3

(* ------------------------------------------------------ end-to-end metrics *)

type e2e = {
  m_name : string;
  unit : string;
  higher : bool;  (** higher is better *)
  bound : float;  (** share of the parent's median a change may lose *)
  everywhere : bool;  (** every workload reports it (listed in BENCHMARK.json) *)
}

let e name unit ?(higher = false) ?(everywhere = true) bound =
  { m_name = name; unit; higher; bound; everywhere }

(* Bounds come from the calibration in README.md: times spread by up to
   11-14% over ten seeds even after normalizing, so they take the largest
   bound the acceptance rules allow; peak RSS spreads by under 2%. *)
let end_to_end =
  [ e "setup_s" "s" 0.25;
    e "throughput_rps" "req/s" ~higher:true 0.25;
    e "latency_gm_ms" "ms" 0.25;
    e "cold_gm_ms" "ms" 0.25;
    e "peak_rss_mb" "MB" 0.10;
    e "warm_gm_ms" "ms" ~everywhere:false 0.25;
    e "latency_p90_ms" "ms" ~everywhere:false 0.25;
    (* must not rise at all *)
    e "failed_ratio" "ratio" ~everywhere:false 0. ]

(* the samples of each class, in the order taken, classes sorted *)
let by_class (env : Work.env) : (string * bool * Work.sample list) list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Work.sample) ->
      Hashtbl.replace tbl s.cls
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.cls)))
    env.samples;
  Hashtbl.fold (fun cls l acc -> (cls, (List.hd l).Work.cold, l) :: acc) tbl []
  |> List.sort compare

let speed_factor (env : Work.env) (s : Work.sample) =
  Speed.factor env.speed ~start:s.at ~stop:(s.at +. s.s)

(* Times are normalized to the speed probe (speed.ml) unless [raw]. *)
let e2e_values ~raw w (env : Work.env) : (string * float) list =
  let ms s = 1000. *. s.Work.s *. if raw then 1. else speed_factor env s in
  let medians =
    List.map (fun (_, cold, l) -> (cold, Stats.median (List.map ms l))) (by_class env)
  in
  let gm keep =
    match List.filter_map (fun (cold, m) -> if keep cold then Some m else None) medians with
    | [] -> None
    | l -> Some (Stats.geomean l)
  in
  let all = List.map ms env.samples in
  let setup_f =
    if raw then 1. else Speed.factor env.speed ~start:neg_infinity ~stop:infinity
  in
  List.filter_map
    (fun (k, v) -> Option.map (fun v -> (k, v)) v)
    [ ("setup_s", (match env.setup with [] -> None | l -> Some (setup_f *. Stats.median l)));
      ( "throughput_rps",
        if all = [] then None
        else Some (1000. *. float_of_int (List.length all) /. Stats.sum all) );
      ("latency_gm_ms", gm (fun _ -> true));
      ("cold_gm_ms", gm Fun.id);
      ("warm_gm_ms", gm not);
      ("latency_p90_ms", if w.p90 && all <> [] then Some (Stats.percentile 90. all) else None);
      ("peak_rss_mb", Some (float_of_int env.peak_kb /. 1024.));
      ( "failed_ratio",
        Some (float_of_int (List.length env.failures) /. float_of_int (max 1 env.attempted)) ) ]

(* ------------------------------------------------------- per-layer metrics *)

let tot k l = Ledger.total l k
let med k l = Ledger.median_ms l k

let ratio a b l =
  match (Ledger.total l a, Ledger.total l b) with
  | Some x, Some y when y > 0. -> Some (x /. y)
  | None, Some y when y > 0. -> Some 0.
  | _ -> None

(* geometric mean of median(num) / median(den) over the key pairs *)
let median_ratio l pairs =
  match
    List.filter_map
      (fun (num, den) ->
        match (Ledger.median_ms l num, Ledger.median_ms l den) with
        | Some n, Some d -> Some (n /. d)
        | _ -> None)
      pairs
  with
  | [] -> None
  | rs -> Some (Stats.geomean rs)

(* per program answered under both *)
let csc_over_ci l =
  median_ratio l
    (List.filter_map
       (fun c ->
         match String.split_on_char '/' c with
         | [ p; "csc" ] -> Some ("pta.solve@" ^ c, "pta.solve@" ^ p ^ "/ci")
         | _ -> None)
       (Ledger.classes l "pta.solve"))

(* per edit chain *)
let inc_over_fresh l =
  median_ratio l
    (List.map
       (fun c -> ("pta.inc_update@" ^ c, "pta.inc_fresh@" ^ c))
       (Ledger.classes l "pta.inc_fresh"))

let per_layer : (string * string * (Ledger.t -> float option)) list =
  [ ("lang.parse_ms", "ms", med "lang.parse");
    ("lang.compile_ms", "ms", med "lang.compile");
    ( "lang.kb_per_s", "KB/s",
      fun l ->
        match (tot "lang.bytes" l, Ledger.times l "lang.compile") with
        | Some b, (_ :: _ as ts) -> Some (b /. 1024. /. Stats.sum ts)
        | _ -> None );
    ("lang.jdk_ms", "ms", tot "lang.jdk_ms");
    ("lang.jdk_share", "ratio", tot "lang.jdk_share");
    ("ir.validate_ms", "ms", med "ir.validate");
    ("pta.solve_ms", "ms", med "pta.solve");
    ("pta.propagated", "count", tot "pta.propagated");
    ("pta.wl_pushes", "count", tot "pta.wl_pushes");
    ("pta.pfg_edges", "count", tot "pta.pfg_edges");
    ("pta.ptrs", "count", tot "pta.ptrs");
    ("pta.coalesce_ratio", "ratio", ratio "pta.wl_coalesced" "pta.wl_pushes");
    ("pta.cycles_collapsed", "count", tot "pta.cycles_collapsed");
    ("pta.ptrs_merged", "count", tot "pta.ptrs_merged");
    ("core.csc_shortcuts", "count", tot "core.csc_shortcuts");
    ("core.csc_over_ci", "ratio", csc_over_ci);
    ("datalog.solve_ms", "ms", med "datalog.solve");
    ("datalog.derived", "count", tot "datalog.derived");
    ( "datalog.tuples_per_s", "1/s",
      fun l ->
        match (tot "datalog.derived" l, Ledger.classes l "datalog.solve") with
        | Some d, (_ :: _ as cs) ->
          Some (d /. Stats.sum (List.map (fun c -> Stats.median (Ledger.times l ("datalog.solve@" ^ c))) cs))
        | _ -> None );
    ("clients.metrics_ms", "ms", med "clients.metrics");
    ("checks.run_ms", "ms", med "checks.run");
    ("checks.diagnostics", "count", tot "checks.diagnostics");
    ("taint.run_ms", "ms", med "taint.run");
    ("driver.render_ms", "ms", med "driver.render");
    ("driver.export_pt_ms", "ms", med "driver.export_pt");
    ( "driver.reply_kb", "KB",
      fun l -> Option.map (fun r -> r /. 1024.) (ratio "driver.reply_bytes" "driver.replies" l) );
    ("driver.session_load_ms", "ms", med "driver.session_load");
    ("driver.session_hit_ms", "ms", med "driver.session_hit");
    ("driver.session_hit_ratio", "ratio", ratio "driver.session_hits" "driver.session_lookups");
    ("driver.session_evictions", "count", tot "driver.session_evictions");
    ("server.handle_ms", "ms", med "server.handle");
    ("server.transport_ms", "ms", tot "server.transport_ms");
    ("pta.inc_update_ms", "ms", med "pta.inc_update");
    ("pta.inc_fresh_ms", "ms", med "pta.inc_fresh");
    ("pta.inc_update_over_fresh", "ratio", inc_over_fresh);
    ("pta.inc_dirty_methods", "count", tot "pta.inc_dirty_methods");
    ("pta.inc_reuse_pct", "%", ratio "pta.inc_reuse_pct" "pta.inc_chains");
    ("pta.par_j2_speedup", "ratio", tot "pta.par_j2_speedup");
    ("bench.trace_overhead_pct", "%", tot "bench.trace_overhead_pct") ]

(* ---------------------------------------------------------------- probes *)

let median_time n f = Stats.median (List.init n (fun _ -> snd (Csc_common.Timer.time f)))

(* ROADMAP's first question: how much of a small program's compile + solve
   is the mini-JDK compiled in front of it *)
let jdk_probe led ~seed =
  let compile = Csc_lang.Frontend.compile_string in
  let jdk = median_time 5 (fun () -> compile "class Main { static void main() { } }") in
  let src = Suite.source_variant "findbugs" (seed * 1000) in
  let small = median_time 3 (fun () -> Run.run_spec (Run.spec Run.Imp_csc) (compile src)) in
  Ledger.add led "lang.jdk_ms" (1000. *. jdk);
  Ledger.add led "lang.jdk_share" (jdk /. small)

(* ci and csc on the two largest-but-one programs, 1 vs 2 domains *)
let par_probe led ~seed =
  let ratios =
    List.concat_map
      (fun p ->
        let prog = Csc_lang.Frontend.compile_string (Suite.source_variant p (seed * 1000)) in
        List.map
          (fun a ->
            let solve jobs =
              let o = Run.run_spec { (Run.spec a) with Run.sp_jobs = jobs } prog in
              Gc.compact ();
              o.Run.o_time
            in
            let j1 = solve 1 in
            j1 /. solve 2)
          [ Run.Imp_ci; Run.Imp_csc ])
      [ "soot"; "freecol" ]
  in
  Ledger.add led "pta.par_j2_speedup" (Stats.geomean ratios)

(* socket round trip minus in-process handling, per warm command *)
let transport_probe led ~seed =
  let src = Suite.source_variant "hsqldb" (seed * 1000) in
  let lines = List.map (Work.line ~name:"hsqldb" src) Work.[ Analyze; Pt None; Check; Taint; Stats ] in
  let srv = Csc_server.Server.create () in
  ignore (Csc_server.Server.handle_line srv (List.hd lines));
  let handle =
    List.map (fun l -> median_time 5 (fun () -> Csc_server.Server.handle_line srv l)) lines
  in
  let s = Work.start_server () in
  let trip =
    Fun.protect
      ~finally:(fun () -> Work.stop_server s)
      (fun () ->
        List.map
          (fun l ->
            ignore (Csc_server.Client.request ~socket:s.Work.socket l);
            median_time 5 (fun () -> Csc_server.Client.request ~socket:s.Work.socket l))
          lines)
  in
  Ledger.add led "server.transport_ms" (1000. *. Stats.median (List.map2 ( -. ) trip handle))

(* tiny plans of every workload: each layer gets traced calls whichever
   workload the traced run is for *)
let sweep env =
  let small = [ "hsqldb"; "findbugs"; "eclipse" ] in
  Work.one_shots env
    ~classes:(List.concat_map (fun p -> [ (p, Run.Imp_ci); (p, Run.Imp_csc) ]) small)
    ~passes:1 ~reps:1;
  Work.one_shots env ~classes:[ ("findbugs", Run.Doop_csc) ] ~passes:1 ~reps:1;
  Work.serve env ~local:true ~programs:[ "findbugs" ] ~rounds:1 ~reps:1;
  Work.edit env ~local:true ~programs:[ "findbugs" ] ~rounds:2

(* ------------------------------------------------------------- reporting *)

let commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  let rec git_dir d =
    let g = Filename.concat d ".git" in
    if Sys.file_exists g then Some g
    else if Filename.dirname d = d then None
    else git_dir (Filename.dirname d)
  in
  let packed g r =
    Option.bind (read (Filename.concat g "packed-refs")) (fun s ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; r' ] when r' = r -> Some sha
            | _ -> None)
          (String.split_on_char '\n' s))
  in
  match git_dir (Sys.getcwd ()) with
  | None -> "unknown"
  | Some g -> (
    match read (Filename.concat g "HEAD") with
    | Some h when String.starts_with ~prefix:"ref: " h ->
      let r = String.sub h 5 (String.length h - 5) in
      Option.value ~default:"unknown"
        (match read (Filename.concat g r) with Some c -> Some c | None -> packed g r)
    | Some h -> h
    | None -> "unknown")

let provenance () =
  [ ("commit", Json.Str (commit ()));
    ("nproc", Json.Int (Csc_common.Domains_compat.recommended ()));
    ("ocaml", Json.Str Sys.ocaml_version) ]

let metric_json (name, unit, v) =
  (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ])

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * string * float) list;  (** name, unit, value *)
  raw : (string * float) list;  (** the end-to-end times before normalizing *)
}

let print_result w ~smoke r =
  if not smoke then
    List.iter
      (fun (n, u, v) ->
        Printf.printf "%-6s %-26s %18.6f %-6s%s\n" w.name n v u
          (match List.assoc_opt n r.raw with
          | Some x when x <> v -> Printf.sprintf " (measured %.6f)" x
          | _ -> ""))
      r.metrics;
  Printf.printf "%-6s %d requests, %d failed\n" w.name r.attempted r.failed;
  List.iteri (fun i f -> if i < 10 then Printf.printf "%-6s FAILED %s\n" w.name f) r.failures

let doc w ~seed ~seconds ~mode r (env : Work.env option) =
  Json.with_schema
    ([ ("workload", Json.Str w.name);
       ("seed", Json.Int seed);
       ("seconds", Json.Float seconds);
       ("mode", Json.Str mode) ]
    @ provenance ()
    @ [ ("correct", Json.Bool r.correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("failures", Json.List (List.filteri (fun i _ -> i < 50) (List.map (fun f -> Json.Str f) r.failures)));
        ("metrics", Json.Obj (List.map metric_json r.metrics));
        ("measured", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) r.raw)) ]
    @
    match env with
    | None -> []
    | Some env ->
      let floats f l = Json.List (List.map (fun s -> Json.Float (f s)) l) in
      [ ( "classes",
          Json.List
            (List.map
               (fun (cls, cold, l) ->
                 Json.Obj
                   [ ("class", Json.Str cls);
                     ("cold", Json.Bool cold);
                     ("samples_ms", floats (fun s -> 1000. *. s.Work.s) l);
                     ("speed_factors", floats (speed_factor env) l);
                     ("at", floats (fun s -> s.Work.at) l) ])
               (by_class env)) );
        ( "probes",
          Json.List
            (List.rev_map
               (fun (a, d) -> Json.List [ Json.Float a; Json.Float (1000. *. d) ])
               env.Work.speed.Speed.probes) ) ])

(* The line the benchmark contract reads: the last of standard output. *)
let contract_line r ~names =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool r.correct);
         ("attempted", Json.Int (max 1 r.attempted));
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, u) ->
                  metric_json
                    (n, u, Option.value ~default:0. (List.find_map (fun (n', _, v) -> if n' = n then Some v else None) r.metrics)))
                names) ) ])

let guarded f =
  try f () with
  | Oracle.Wrong m | Failure m -> Error m
  | e -> Error (Printexc.to_string e)

let result_of ?(raw = []) ~envs ~extra_failures metrics =
  let failures = extra_failures @ List.concat_map (fun (e : Work.env) -> List.rev e.failures) envs in
  let attempted = List.fold_left (fun n (e : Work.env) -> n + e.attempted) 0 envs in
  let missing = List.length extra_failures in
  { correct = failures = [];
    attempted = attempted + missing;
    failed = List.length failures;
    failures;
    metrics;
    raw }

(* one end-to-end run of [w] in this process *)
let run_workload w ~seed ~seconds ~smoke =
  let env = Work.env ~seed Ledger.off in
  let passes = if smoke then 1 else passes w seconds in
  let status = guarded (fun () -> Ok (w.run env ~local:false ~passes ~reps:(if smoke then 1 else setup_reps))) in
  let extra = match status with Ok () -> [] | Error m -> [ "run aborted: " ^ m ] in
  let values = e2e_values ~raw:false w env in
  let metrics =
    List.filter_map
      (fun m -> Option.map (fun v -> (m.m_name, m.unit, v)) (List.assoc_opt m.m_name values))
      end_to_end
  in
  (result_of ~raw:(e2e_values ~raw:true w env) ~envs:[ env ] ~extra_failures:extra metrics, Some env)

(* A traced run: the workload's requests are replayed in process twice, for
   half of [seconds] each, first untraced and then traced; the ratio of their
   normalized throughputs is the tracing overhead. Then a traced sweep and
   the probes supply the layers the workload does not call. *)
let trace_workload w ~seed ~seconds ~chrome =
  let passes = max 1 (passes w seconds / 2) in
  let replay led =
    let env = Work.env ~seed led in
    let st = guarded (fun () -> Ok (w.run env ~local:true ~passes ~reps:1)) in
    Gc.compact ();
    (env, st)
  in
  let a, sa = replay Ledger.off in
  Work.ensure_out_dir ();
  Trace.start ~file:chrome;
  let led_w = Ledger.create ~on:true in
  let b, sb = replay led_w in
  let led_s = Ledger.create ~on:true in
  let s = Work.env ~seed led_s in
  let ss = guarded (fun () -> Ok (sweep s)) in
  Trace.finish ();
  Gc.compact ();
  let sp = guarded (fun () ->
      transport_probe led_s ~seed;
      jdk_probe led_s ~seed;
      par_probe led_s ~seed;
      Ok ())
  in
  let throughput env = List.assoc_opt "throughput_rps" (e2e_values ~raw:false w env) in
  (match (throughput a, throughput b) with
  | Some ta, Some tb -> Ledger.add led_w "bench.trace_overhead_pct" (100. *. ((ta /. tb) -. 1.))
  | _ -> ());
  let extra =
    List.filter_map (function Ok () -> None | Error m -> Some ("traced run aborted: " ^ m)) [ sa; sb; ss; sp ]
  in
  let metrics, missing =
    List.fold_right
      (fun (n, u, f) (ms, missing) ->
        match f led_w with
        | Some v -> ((n, u, v) :: ms, missing)
        | None -> (
          match f led_s with
          | Some v -> ((n, u, v) :: ms, missing)
          | None -> (ms, ("no traced value for " ^ n) :: missing)))
      per_layer ([], [])
  in
  (result_of ~envs:[ a; b; s ] ~extra_failures:(extra @ missing) metrics, None)

(* ------------------------------------------------------------ subcommands *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable chrome : string option;
  mutable baseline : string option;
  mutable benchmark : string option;
}

let default_seconds = 15.

let write_file path j =
  let oc = open_out_bin path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc

let read_json path = Json.parse_exn (In_channel.with_open_bin path In_channel.input_all)

let one o w =
  let r, env =
    if o.trace then
      let chrome =
        Option.value o.chrome
          ~default:(Printf.sprintf "%s/trace-%s-s%d.json" Work.out_dir w.name o.seed)
      in
      let r = trace_workload w ~seed:o.seed ~seconds:o.seconds ~chrome in
      Printf.printf "%-6s chrome trace: %s\n" w.name chrome;
      r
    else run_workload w ~seed:o.seed ~seconds:o.seconds ~smoke:o.smoke
  in
  print_result w ~smoke:o.smoke r;
  let mode = if o.trace then "trace" else if o.smoke then "smoke" else "run" in
  Option.iter (fun f -> write_file f (doc w ~seed:o.seed ~seconds:o.seconds ~mode r env)) o.out;
  let names =
    if o.trace then List.map (fun (n, u, _) -> (n, u)) per_layer
    else List.filter_map (fun m -> if m.everywhere then Some (m.m_name, m.unit) else None) end_to_end
  in
  print_endline (contract_line r ~names)

(* BENCHMARK.json must describe what this program reports *)
let benchmark_drift path =
  let j = read_json path in
  let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.get_list) in
  let str k e = Option.bind (Json.member k e) Json.get_string in
  let names k = List.filter_map (str "name") (list k) in
  let want_e2e = List.filter (fun m -> m.everywhere) end_to_end in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if names "workloads" <> List.map (fun w -> w.name) workloads then problem "workloads differ";
  if names "end_to_end" <> List.map (fun m -> m.m_name) want_e2e then problem "end_to_end names differ";
  List.iter
    (fun e ->
      match List.find_opt (fun m -> Some m.m_name = str "name" e) want_e2e with
      | Some m ->
        if str "unit" e <> Some m.unit then problem "%s: unit differs" m.m_name;
        if str "better" e <> Some (if m.higher then "higher" else "lower") then problem "%s: direction differs" m.m_name;
        if Option.bind (Json.member "bound" e) Json.get_float <> Some m.bound then problem "%s: bound differs" m.m_name
      | None -> ())
    (list "end_to_end");
  if List.map (fun e -> (str "name" e, str "unit" e)) (list "per_layer")
     <> List.map (fun (n, u, _) -> (Some n, Some u)) per_layer
  then problem "per_layer names or units differ";
  List.rev !problems

type child = { cw : workload; out : string; pid : int; stdout : in_channel }

let spawn o w =
  let out = Printf.sprintf "%s/child-%s-%d.json" Work.out_dir w.name (Unix.getpid ()) in
  let args =
    [ "run"; "--workload"; w.name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--out"; out ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ if o.trace then [ "--trace"; "1" ] else []
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  { cw = w; out; pid; stdout = Unix.in_channel_of_descr r }

(* a child's printout (its result line dropped) and its full results *)
let collect c status =
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all c.stdout)) in
  close_in c.stdout;
  let d = try Some (read_json c.out) with Sys_error _ | Failure _ -> None in
  (try Sys.remove c.out with Sys_error _ -> ());
  let text = String.concat "\n" (List.filteri (fun i _ -> i < List.length lines - 1) lines) in
  match (status, d) with
  | Unix.WEXITED 0, Some d -> (text, d, Json.member "correct" d = Some (Json.Bool true))
  | _ ->
    ( text ^ Printf.sprintf "\n%-6s child process failed" c.cw.name,
      Json.Obj [ ("workload", Json.Str c.cw.name); ("correct", Json.Bool false) ],
      false )

(* Every workload in a child process of its own. Measured runs go one at a
   time; a smoke run keeps two going, longest first. Children print little,
   so waiting for one before reading its pipe cannot block. *)
let all o =
  Work.ensure_out_dir ();
  let width = if o.smoke then 2 else 1 in
  let order =
    if o.smoke then List.sort (fun a b -> compare b.nominal_s a.nominal_s) workloads
    else workloads
  in
  let rec wait () = try Unix.wait () with Unix.Unix_error (Unix.EINTR, _, _) -> wait () in
  let rec go pending running done_ =
    match (pending, running) with
    | w :: rest, _ when List.length running < width -> go rest (spawn o w :: running) done_
    | _, [] -> done_
    | _ ->
      let pid, status = wait () in
      let c = List.find (fun c -> c.pid = pid) running in
      go pending (List.filter (fun c -> c.pid <> pid) running) ((c.cw.name, collect c status) :: done_)
  in
  let finished = go order [] [] in
  let results =
    List.map
      (fun w ->
        let text, d, ok = List.assoc w.name finished in
        print_endline text;
        (d, ok))
      workloads
  in
  let problems =
    (match o.baseline with
    | None -> []
    | Some b -> (
      match Oracle.cross_check (read_json b) with
      | 0, _ -> [ "expected.json shares no cell with " ^ b ]
      | n, bad ->
        Printf.printf "expected.json agrees with %d cells of %s\n" (n - List.length bad) b;
        bad))
    @ match o.benchmark with None -> [] | Some b -> List.map (fun p -> b ^ ": " ^ p) (benchmark_drift b)
  in
  List.iter (fun p -> Printf.printf "PROBLEM %s\n" p) problems;
  let out = Option.value o.out ~default:(Work.out_dir ^ "/run.json") in
  write_file out
    (Json.with_schema
       ([ ("seed", Json.Int o.seed); ("seconds", Json.Float o.seconds) ]
       @ provenance ()
       @ [ ("workloads", Json.List (List.map fst results)) ]));
  let ok = problems = [] && List.for_all snd results in
  Printf.printf "%s -> %s\n" (if ok then "all answers correct" else "FAILED") out;
  exit (if ok then 0 else 1)

let parse_opts sub argv =
  let o =
    { workload = None; seed = 0; seconds = default_seconds; trace = sub = "trace"; smoke = false;
      out = None; chrome = None; baseline = None; benchmark = None }
  in
  let set f = Arg.String (fun s -> f (Some s)) in
  let spec =
    [ ("--workload", set (fun s -> o.workload <- s), "NAME one workload, in this process");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N input seed (default 0)");
      ( "--seconds", Arg.Float (fun s -> o.seconds <- s),
        Printf.sprintf "S measured seconds per workload (default %g)" default_seconds );
      ("--trace", Arg.Int (fun t -> o.trace <- t <> 0), "0|1 per-layer metrics instead");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " one pass, correctness only");
      ("--out", set (fun s -> o.out <- s), "FILE write the full results as JSON");
      ("--chrome", set (fun s -> o.chrome <- s), "FILE Chrome trace of a traced run");
      ("--baseline", set (fun s -> o.baseline <- s), "FILE cross-check expected.json");
      ("--benchmark", set (fun s -> o.benchmark <- s), "FILE check BENCHMARK.json") ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       ("perf.exe " ^ sub ^ " [options]")
   with
  | Arg.Bad m ->
    prerr_string m;
    exit 2
  | Arg.Help m ->
    print_string m;
    exit 0);
  o

(* ----------------------------------------------------------------- compare *)

type verdict = Gain | Same | Regression | Unresolved

let verdict_name = function
  | Gain -> "GAIN"
  | Same -> "same"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

(* choosing-metrics §8 for a gain, the benchmark's bound for everything
   else; parent and change runs pair up in the order given *)
let judge m vp vc =
  let n = min (List.length vp) (List.length vc) in
  let better x y = if m.higher then x > y else x < y in
  let pairs = List.combine (List.filteri (fun i _ -> i < n) vp) (List.filteri (fun i _ -> i < n) vc) in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let q1, mp, q3 = Stats.quartiles vp in
  let mc = Stats.median vc in
  let rel = if mp = 0. then 0. else (mc -. mp) /. Float.abs mp in
  let worse = if m.higher then -.rel else rel in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) vp) vc in
  let v =
    if m.m_name = "failed_ratio" then if Stats.sum vc > Stats.sum vp then Regression else Same
    else if n >= 10 && 10 * wins >= 9 * n && Float.abs (mc -. mp) > q3 -. q1 && better mc mp then Gain
    else if mp <> 0. && (q3 -. q1) /. Float.abs mp > m.bound && not all_better then Unresolved
    else if worse > m.bound then Regression
    else Same
  in
  (v, rel, wins, n)

let compare_runs args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let parent, change = split [] args in
  if parent = [] || change = [] then begin
    prerr_endline "usage: perf.exe compare PARENT.json... -- CHANGE.json...";
    exit 2
  end;
  let docs files =
    List.concat_map
      (fun f ->
        let j = read_json f in
        match Option.bind (Json.member "workloads" j) Json.get_list with
        | Some ws -> ws
        | None -> [ j ])
      files
    |> List.filter (fun d -> Json.member "mode" d = Some (Json.Str "run"))
  in
  let dp = docs parent and dc = docs change in
  let values ds w name =
    List.filter_map
      (fun d ->
        if Json.member "workload" d = Some (Json.Str w.name) then
          Option.bind (Json.member "metrics" d) (fun ms ->
              Option.bind (Json.member name ms) (fun v -> Option.bind (Json.member "value" v) Json.get_float))
        else None)
      ds
  in
  let regressed = ref false in
  List.iter
    (fun w ->
      let cells =
        List.filter_map
          (fun m ->
            match (values dp w m.m_name, values dc w m.m_name) with
            | [], _ | _, [] -> None
            | vp, vc ->
              let v, rel, wins, n = judge m vp vc in
              if v = Regression then regressed := true;
              Some (Printf.sprintf "%s %s %+.1f%% (%d/%d wins)" m.m_name (verdict_name v) (100. *. rel) wins n))
          end_to_end
      in
      if cells <> [] then Printf.printf "%-6s %s\n" w.name (String.concat " | " cells))
    workloads;
  if List.length dp < 10 * List.length workloads || List.length dc < 10 * List.length workloads then
    print_endline "note: a gain needs at least 10 alternating pairs of runs per workload";
  exit (if !regressed then 1 else 0)

(* ---------------------------------------------------------------- expected *)

let expected () =
  let cells =
    List.map
      (fun (p, a) ->
        let _, _, o, _ = Work.one_shot Ledger.off ~name:p a (Suite.source_variant p 0) in
        Gc.compact ();
        Json.Obj
          [ ("class", Json.Str (p ^ "/" ^ Run.name a));
            ( "metrics",
              match o.Run.o_metrics with
              | Some m -> Csc_driver.Report.metrics_json m
              | None -> failwith (p ^ "/" ^ Run.name a ^ " timed out") ) ])
      (batch_classes @ heavy_classes)
  in
  print_endline (Json.to_string ~pretty:true (Json.with_schema [ ("seed", Json.Int 0); ("cells", Json.List cells) ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> compare_runs rest
  | _ :: "expected" :: _ -> expected ()
  | _ :: (("run" | "trace") as sub) :: rest -> (
    let o = parse_opts sub (Array.of_list (sub :: rest)) in
    match o.workload with
    | Some name -> one o (find_workload name)
    | None -> all o)
  | _ ->
    prerr_endline "usage: perf.exe (run | trace | compare | expected) ...  (see README.md)";
    exit 2
