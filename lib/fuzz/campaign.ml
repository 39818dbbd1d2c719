(** Fuzzing campaigns: generate → execute → check → (on violation) shrink.

    A campaign draws [n] random programs from {!Csc_workloads.Gen.Rand}
    (deterministically: the campaign seed derives every per-program seed),
    runs the {!Soundness} oracle on each, and on a violation delta-debugs
    the *plan* down to a minimal program that still fails, writing the
    counterexample (source + JSON metadata) to the corpus directory.
    Telemetry goes through {!Csc_obs}: counters for programs, violations
    and shrink checks, plus trace spans when a Chrome trace is active. *)

open Csc_common
module Gen = Csc_workloads.Gen
module Frontend = Csc_lang.Frontend
module Ir = Csc_ir.Ir
module Validate = Csc_ir.Validate
module Registry = Csc_obs.Registry
module Snapshot = Csc_obs.Snapshot
module Trace = Csc_obs.Trace
module Json = Csc_obs.Json

type cfg = {
  n : int;            (** programs to generate *)
  seed : int;         (** campaign seed: same seed, same campaign *)
  max_size : int;     (** target plan size per program *)
  minimize : bool;    (** delta-debug failing programs *)
  out_dir : string option;  (** corpus directory for counterexamples *)
  max_shrink_checks : int;  (** oracle-run budget per minimization *)
  inject_unsound : bool;
      (** enable {!Csc_core.Csc.sabotage_drop_shortcuts} for the whole
          campaign — a self-test that the oracle catches a real bug *)
  progress : bool;    (** print a progress line every few hundred programs *)
}

let default_cfg =
  {
    n = 100;
    seed = 42;
    max_size = 30;
    minimize = true;
    out_dir = None;
    max_shrink_checks = 300;
    inject_unsound = false;
    progress = false;
  }

type case = {
  c_seed : int;  (** per-program generator seed (replays the case) *)
  c_violations : Soundness.violation list;
  c_source : string;          (** original failing source *)
  c_min_source : string option;   (** minimized source, when [minimize] *)
  c_min_app_stmts : int option;   (** app IR statements of the minimized program *)
  c_planted_leaks : int;      (** taint chains planted by the generator *)
  c_planted_sanitized : int;  (** sanitized chains planted by the generator *)
}

type report = {
  r_total : int;
  r_failed : case list;
  r_gen_errors : int;  (** generated programs that failed to compile/validate *)
  r_halted : int;      (** traces that ended in a runtime error (informational) *)
  r_elapsed : float;
  r_progs_per_s : float;
  r_snapshot : Snapshot.t;
}

let compile_plan plan =
  let src = Gen.Rand.render plan in
  let p =
    Frontend.compile_string
      ~name:(Printf.sprintf "fuzz-%d" (Gen.Rand.seed_of plan))
      src
  in
  Validate.check_exn p;
  (src, p)

(* ---- minimization: greedy first-improvement delta debugging ---- *)

(** Shrink [plan] while the oracle still reports a violation, spending at
    most [max_checks] oracle runs. Greedy: take the first simplification
    that still fails and restart from it; stop when none does (the result
    is 1-minimal w.r.t. the candidate moves) or the budget runs out.
    Candidates that no longer compile are skipped — the plan-level moves
    keep programs well-formed, so that indicates a generator bug, but it
    must not derail a minimization. *)
let minimize ?(max_checks = 300) ~(oracle : Ir.program -> bool)
    (plan : Gen.Rand.plan) : Gen.Rand.plan * int =
  let checks = ref 0 in
  let still_fails cand =
    if !checks >= max_checks then false
    else begin
      incr checks;
      match compile_plan cand with
      | _, p -> oracle p
      | exception _ -> false
    end
  in
  let cur = ref plan in
  let progressed = ref true in
  while !progressed && !checks < max_checks do
    progressed := false;
    let cands = Gen.Rand.shrink_candidates !cur in
    (try
       List.iter
         (fun cand ->
           if still_fails cand then begin
             cur := cand;
             progressed := true;
             raise Exit
           end)
         cands
     with Exit -> ())
  done;
  (!cur, !checks)

(* ---- corpus ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let case_meta (c : case) : Json.t =
  Json.Obj
    [
      ("seed", Json.Int c.c_seed);
      ( "violations",
        Json.List
          (List.map
             (fun (v : Soundness.violation) ->
               Json.Obj
                 [
                   ("kind", Json.Str (Soundness.kind_name v.v_kind));
                   ("analysis", Json.Str v.v_analysis);
                   ("detail", Json.Str v.v_detail);
                 ])
             c.c_violations) );
      ("minimized", Json.Bool (c.c_min_source <> None));
      ( "min_app_stmts",
        match c.c_min_app_stmts with Some n -> Json.Int n | None -> Json.Null );
      ("planted_leaks", Json.Int c.c_planted_leaks);
      ("planted_sanitized", Json.Int c.c_planted_sanitized);
    ]

let write_case dir (c : case) =
  mkdir_p dir;
  let base = Filename.concat dir (Printf.sprintf "case_%d" c.c_seed) in
  write_file (base ^ ".mjava")
    (Option.value ~default:c.c_source c.c_min_source);
  if c.c_min_source <> None then write_file (base ^ ".orig.mjava") c.c_source;
  write_file (base ^ ".json") (Json.to_string ~pretty:true (case_meta c))

(* ---- the campaign itself ---- *)

let run (cfg : cfg) : report =
  let reg = Registry.create () in
  let c_programs = Registry.counter reg "fuzz_programs" in
  let c_violating = Registry.counter reg "fuzz_violating_programs" in
  let c_violations = Registry.counter reg "fuzz_violations" in
  let c_gen_errors = Registry.counter reg "fuzz_gen_errors" in
  let c_halted = Registry.counter reg "fuzz_halted_traces" in
  let c_shrink = Registry.counter reg "fuzz_shrink_checks" in
  let c_taint_progs = Registry.counter reg "fuzz_taint_programs" in
  let c_taint_hits = Registry.counter reg "fuzz_taint_sink_hits" in
  let g_pps = Registry.gauge reg "fuzz_progs_per_s" in
  let master = Rng.create cfg.seed in
  let failed = ref [] in
  let saved_sabotage = !Csc_core.Csc.sabotage_drop_shortcuts in
  if cfg.inject_unsound then Csc_core.Csc.sabotage_drop_shortcuts := true;
  let t0 = Timer.now () in
  Fun.protect
    ~finally:(fun () ->
      Csc_core.Csc.sabotage_drop_shortcuts := saved_sabotage)
    (fun () ->
      for i = 0 to cfg.n - 1 do
        (* 30 positive bits: plenty of seeds, and they replay on 32-bit *)
        let seed = Int64.to_int (Rng.next master) land 0x3FFFFFFF in
        Trace.with_span ~cat:"fuzz"
          ~args:[ ("seed", Json.Int seed) ]
          "fuzz.case"
          (fun () ->
            Registry.incr c_programs;
            let plan = Gen.Rand.generate ~seed ~max_size:cfg.max_size in
            match compile_plan plan with
            | exception e ->
              Registry.incr c_gen_errors;
              failed :=
                {
                  c_seed = seed;
                  c_violations =
                    [
                      {
                        Soundness.v_kind = Soundness.Analysis_crash;
                        v_analysis = "frontend";
                        v_detail = Printexc.to_string e;
                      };
                    ];
                  c_source = Gen.Rand.render plan;
                  c_min_source = None;
                  c_min_app_stmts = None;
                  c_planted_leaks = Gen.Rand.planted_leaks plan;
                  c_planted_sanitized = Gen.Rand.planted_sanitized plan;
                }
                :: !failed
            | src, p -> (
              let taint =
                if Csc_taint.Taint.relevant Csc_taint.Taint_spec.builtin p
                then begin
                  Registry.incr c_taint_progs;
                  Some (Csc_taint.Taint.hooks Csc_taint.Taint_spec.builtin p)
                end
                else None
              in
              let dyn =
                Csc_interp.Interp.run_trace ~max_steps:2_000_000 ?taint p
              in
              if dyn.Csc_interp.Interp.halted <> None then
                Registry.incr c_halted;
              Registry.incr
                ~by:(Bits.cardinal dyn.Csc_interp.Interp.dyn_taint_sinks)
                c_taint_hits;
              match Soundness.check p with
              | [] -> ()
              | violations ->
                Registry.incr c_violating;
                Registry.incr ~by:(List.length violations) c_violations;
                Trace.instant ~args:[ ("seed", Json.Int seed) ]
                  "fuzz.violation";
                let min_source, min_stmts =
                  if cfg.minimize then begin
                    let oracle q = Soundness.check q <> [] in
                    let small, used =
                      minimize ~max_checks:cfg.max_shrink_checks ~oracle plan
                    in
                    Registry.incr ~by:used c_shrink;
                    match compile_plan small with
                    | msrc, mp ->
                      (Some msrc, Some (Soundness.app_stmt_count mp))
                    | exception _ -> (None, None)
                  end
                  else (None, None)
                in
                let case =
                  {
                    c_seed = seed;
                    c_violations = violations;
                    c_source = src;
                    c_min_source = min_source;
                    c_min_app_stmts = min_stmts;
                    c_planted_leaks = Gen.Rand.planted_leaks plan;
                    c_planted_sanitized = Gen.Rand.planted_sanitized plan;
                    }
                in
                Option.iter (fun dir -> write_case dir case) cfg.out_dir;
                failed := case :: !failed));
        if cfg.progress && (i + 1) mod 250 = 0 then
          Fmt.epr "[fuzz] %d/%d programs, %d violating@." (i + 1) cfg.n
            (Registry.value c_violating)
      done;
      let elapsed = Timer.now () -. t0 in
      let pps = if elapsed > 0. then float cfg.n /. elapsed else 0. in
      Registry.set g_pps pps;
      {
        r_total = cfg.n;
        r_failed = List.rev !failed;
        r_gen_errors = Registry.value c_gen_errors;
        r_halted = Registry.value c_halted;
        r_elapsed = elapsed;
        r_progs_per_s = pps;
        r_snapshot = Registry.snapshot reg;
      })
