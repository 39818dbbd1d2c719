(** The benchmark's correctness oracle. Every answer a workload produces is
    checked here, outside the timed region, and a mismatch fails the request
    that produced it. There are three independent references:
    - [expected.json], the seed-0 precision cells of the batch and heavy
      classes, which the smoke run cross-checks against the overlapping
      cells of BENCH_BASELINE.json;
    - the concrete interpreter: every result must cover every method and
      call edge that an execution of the program reaches (recall 1.0);
    - a batch [Run.run_spec] of the same source, for server replies. *)

module Run = Csc_driver.Run
module Report = Csc_driver.Report
module Json = Csc_obs.Json
module Interp = Csc_interp.Interp

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

type t = {
  seed : int;
  first : (string, Json.t) Hashtbl.t;  (** class -> metrics of its first answer *)
  dyn : (Digest.t, Interp.outcome) Hashtbl.t;  (** source -> one execution *)
}

let create ~seed = { seed; first = Hashtbl.create 32; dyn = Hashtbl.create 32 }

let cells_of_json j : (string * Json.t) list =
  match Option.bind (Json.member "cells" j) Json.get_list with
  | None -> failwith "expected cells: no \"cells\" array"
  | Some cells ->
    List.map
      (fun c ->
        match
          (Option.bind (Json.member "class" c) Json.get_string, Json.member "metrics" c)
        with
        | Some cls, Some m -> (cls, m)
        | _ -> failwith "expected cells: a cell lacks \"class\" or \"metrics\"")
      cells

let expected = lazy (cells_of_json (Json.parse_exn Expected_data.json))

(** [metrics t ~cls m] checks the precision metrics of an answer of a class
    whose input repeats: on seed 0 against [expected.json], on every seed
    against the class's first answer. *)
let metrics t ~cls (m : Json.t) =
  (if t.seed = 0 then
     match List.assoc_opt cls (Lazy.force expected) with
     | Some e when e <> m ->
       wrong "metrics %s differ from expected.json %s" (Json.to_string m)
         (Json.to_string e)
     | _ -> ());
  match Hashtbl.find_opt t.first cls with
  | Some f when f <> m ->
    wrong "metrics %s differ from the class's first answer %s"
      (Json.to_string m) (Json.to_string f)
  | Some _ -> ()
  | None -> Hashtbl.replace t.first cls m

(** Cut-Shortcut is never less precise than CI (paper §3): for every program
    answered under both, each csc metric is at most the ci one. Returns the
    offending programs. *)
let csc_within_ci t programs =
  let int_fields j =
    match j with
    | Json.Obj l -> List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.get_int v)) l
    | _ -> []
  in
  List.filter
    (fun p ->
      match (Hashtbl.find_opt t.first (p ^ "/ci"), Hashtbl.find_opt t.first (p ^ "/csc")) with
      | Some ci, Some csc ->
        let ci = int_fields ci in
        List.exists
          (fun (k, v) -> match List.assoc_opt k ci with Some c -> v > c | None -> true)
          (int_fields csc)
      | _ -> false)
    programs

(** Recall 1.0 of a result against one execution of the program it analyzed:
    every method and call edge the run reaches is in the result. This is
    [Metrics.recall = 1.0] without its edge scan, which tests each dynamic
    edge against the list of static ones (about 1 s a call on columba). *)
let recall t ~src prog (r : Csc_pta.Solver.result) =
  let key = Digest.string src in
  let d =
    match Hashtbl.find_opt t.dyn key with
    | Some d -> d
    | None ->
      let d = Interp.run prog in
      Hashtbl.replace t.dyn key d;
      d
  in
  let missed_methods =
    Csc_common.Bits.fold
      (fun m n -> if Csc_common.Bits.mem r.Csc_pta.Solver.r_reach m then n else n + 1)
      d.Interp.dyn_reachable 0
  in
  let static = Hashtbl.create 4096 in
  List.iter (fun e -> Hashtbl.replace static e ()) r.Csc_pta.Solver.r_edges;
  let missed_edges =
    List.length (List.filter (fun e -> not (Hashtbl.mem static e)) d.Interp.dyn_edges)
  in
  if missed_methods > 0 || missed_edges > 0 then
    wrong "recall below 1.0: the interpreter reaches %d methods and %d call edges the result lacks"
      missed_methods missed_edges

(** A from-scratch batch run of [src] under [analysis]. *)
let scratch ~name ~src analysis =
  let p = Csc_lang.Frontend.compile_string ~name src in
  (p, Run.run_spec (Run.spec analysis) p)

(** Metrics of {!scratch}, whose result is itself recall-checked. *)
let reference t ~name ~src analysis : Json.t =
  match scratch ~name ~src analysis with
  | p, { Run.o_result = Some r; o_metrics = Some m; _ } ->
    recall t ~src p r;
    Report.metrics_json m
  | _ -> wrong "the reference run of %s timed out" name

(** Compare [expected.json] with the table1/table2 cells of a bench baseline
    document. Returns the number of overlapping cells and the mismatches. *)
let cross_check (baseline : Json.t) : int * string list =
  let cells =
    match Option.bind (Json.member "experiments" baseline) Json.get_list with
    | None -> []
    | Some exps ->
      List.concat_map
        (fun e ->
          match Option.bind (Json.member "experiment" e) Json.get_string with
          | Some ("table1" | "table2") ->
            Option.value ~default:[] (Option.bind (Json.member "cells" e) Json.get_list)
          | _ -> [])
        exps
  in
  List.fold_left
    (fun (n, bad) c ->
      let s k = Option.bind (Json.member k c) Json.get_string in
      match (s "program", s "analysis", Json.member "metrics" c) with
      | Some p, Some a, Some m -> (
        let cls = p ^ "/" ^ a in
        match List.assoc_opt cls (Lazy.force expected) with
        | Some e when e = m -> (n + 1, bad)
        | Some e ->
          ( n + 1,
            Printf.sprintf "%s: expected.json %s, baseline %s" cls
              (Json.to_string e) (Json.to_string m)
            :: bad )
        | None -> (n, bad))
      | _ -> (n, bad))
    (0, []) cells
