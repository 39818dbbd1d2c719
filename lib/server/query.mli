(** The steps from a request to an answer, shared by the analysis server
    ({!Server}) and the batch CLI: program resolution, analysis parsing, the
    solve through the session, and each command's refusals. Arguments are
    typed; decoding them from JSON or from command-line flags is the
    caller's job.

    Every refusal is a {!Reject} carrying one of these codes:
    - [bad-request]: the request is malformed (an unknown analysis or
      checker, an analysis [explain] cannot serve);
    - [not-found]: no such program or taint-spec file, or it cannot be read;
    - [compile]: the program does not compile; the message reads
      [<name>:<line>:<col>: <message>];
    - [timeout]: the solve ran out of budget (its deadline or heap cap).

    The server answers a refusal as an error reply with that code; the CLI
    prints its message as one [cutshortcut: <message>] line on stderr and
    exits 1 for [timeout], 2 for every other code. *)

module Ir = Csc_ir.Ir
module Run = Csc_driver.Run
module Session = Csc_driver.Session

exception Reject of string * string  (** code, message *)

val reject : string -> string -> 'a
val rejectf : string -> ('a, unit, string, 'b) format4 -> 'a

(** The [(code, message)] an exception answers with: a {!Reject}'s own, and
    [Failure] (a malformed program under [validate]) as [bad-request].
    [None] for anything else, which is a bug. *)
val refusal : exn -> (string * string) option

(** [program sess name] resolves [name] as a workload-suite name or a
    [.mjava] path and compiles it through the session's program cache; with
    [source], compiles that text instead, [name] naming it in error
    positions. Returns the program and its source digest. *)
val program : Session.t -> ?source:string -> string -> Ir.program * string

(** The source text of a suite workload. *)
val workload : string -> string

(** Parse an analysis name ({!Run.analysis_of_string}). *)
val analysis : string -> Run.analysis

(** Solve through the session's result cache: the outcome, and whether it
    was a cache hit. A timed-out outcome is returned, not refused. *)
val outcome : Session.t -> Run.spec -> Ir.program * string -> Run.outcome * bool

(** The answer of a finished outcome; [timeout] if it has none. *)
val result : Run.outcome -> Csc_pta.Solver.result

(** A checker name, validated against {!Csc_checks.Checks.names}; callers
    run it before any solve. *)
val checker : string -> string

(** The taint spec at a path ([None]: the builtin table). *)
val taint_spec : string option -> Csc_taint.Taint_spec.t

(** Solve with provenance and explain up to [limit] points-to facts
    ({!Csc_driver.Explain.facts}). Refuses the Datalog engine and Zipper^e
    (no single imperative solver to ask) before any work, and a timeout. *)
val explain :
  ?var:string -> limit:int -> Run.spec -> Ir.program -> Csc_driver.Explain.fact list
