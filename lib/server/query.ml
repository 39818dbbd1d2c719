(** The steps from a request to an answer (see the interface). *)

module Ir = Csc_ir.Ir
module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Checks = Csc_checks.Checks

exception Reject of string * string

let reject code msg = raise (Reject (code, msg))
let rejectf code fmt = Printf.ksprintf (reject code) fmt

let refusal = function
  | Reject (code, msg) -> Some (code, msg)
  | Failure msg -> Some ("bad-request", msg)
  | _ -> None

let program sess ?source name =
  match source with
  | Some src -> (
    match Session.load_source sess ~name src with
    | Ok pd -> pd
    | Error msg -> reject "compile" msg)
  | None -> (
    match Session.load sess name with
    | Ok pd -> pd
    | Error (`Not_found msg) -> reject "not-found" msg
    | Error (`Compile msg) -> reject "compile" msg)

let workload name =
  if List.mem name Csc_workloads.Suite.names then Csc_workloads.Suite.source name
  else rejectf "not-found" "unknown workload %S (see `list`)" name

let analysis s =
  match Run.analysis_of_string s with
  | Ok a -> a
  | Error msg -> reject "bad-request" msg

let outcome sess spec (p, digest) = Session.outcome sess ~digest spec p

let timed_out (o : Run.outcome) =
  rejectf "timeout" "analysis %s timed out after %.1fs" o.Run.o_analysis
    o.Run.o_time

let result (o : Run.outcome) =
  match o.Run.o_result with Some r -> r | None -> timed_out o

let checker n =
  if Checks.by_name n = None then
    rejectf "bad-request" "unknown checker %S (available: %s)" n
      (String.concat ", " Checks.names);
  n

let taint_spec = function
  | None -> Csc_taint.Taint_spec.builtin
  | Some f -> (
    match Csc_taint.Taint_spec.load f with
    | Ok s -> s
    | Error e -> rejectf "not-found" "cannot load taint spec %s: %s" f e)

let explain ?var ~limit (spec : Run.spec) p =
  match Run.run_spec_solver spec p with
  | Error `Staged ->
    reject "bad-request"
      "explain: zipper-e is two staged solves; explain its base instead"
  | Error `Datalog ->
    rejectf "bad-request"
      "explain: %S runs on the Datalog engine, which has no provenance \
       recorder (imperative analyses only)"
      (Run.name spec.Run.sp_analysis)
  | Ok (o, None) -> timed_out o
  | Ok (_, Some t) -> Csc_driver.Explain.facts ?var ~limit p t
