(** "Why does x point to o": provenance-backed derivation chains.

    Hoisted out of the CLI so the [explain] subcommand and the analysis
    server share one implementation. The solve goes through the driver's one
    path ({!Run.run_spec_solver} with provenance recording on), which hands
    back the live solver the provenance recorder lives in. It is
    deliberately not cached by [Session]: an explained solve carries its
    provenance recorder, which is never the solve you want to keep
    resident. *)

module Ir = Csc_ir.Ir

type fact = {
  x_ptr : string;   (** rendered pointer, e.g. ["Main.main.x"] *)
  x_obj : string;   (** rendered object, e.g. ["Item/o16"] *)
  x_chain : string list;  (** derivation chain, root first; [[]] if none *)
}

(** [run s p] solves [p] as requested by [s] (budget, validation, ...) with
    provenance on and returns up to [limit] (default
    5) explained facts. [var] restricts to variables whose qualified
    [Class.method.var] name ends with it; without it, application
    (non-mini-JDK) variables are scanned. [Error] for Datalog/Zipper analyses (no provenance recorder
    there) and for solver timeouts; with [sp_validate] on, malformed IR
    raises [Failure] exactly as in {!Run.run_spec}. *)
val run :
  ?var:string ->
  ?limit:int ->
  Run.spec ->
  Ir.program ->
  (fact list, string) result
