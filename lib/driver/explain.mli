(** "Why does x point to o": provenance-backed derivation chains.

    Hoisted out of the CLI so the [explain] subcommand and the analysis
    server share one implementation. The solve that feeds it is
    {!Run.run_spec_solver}, which records provenance and hands back the live
    solver the recorder lives in; the refusals (Datalog, Zipper^e, timeout)
    are [Csc_server.Query.explain]'s. It is deliberately not cached by
    [Session]: an explained solve carries its provenance recorder, which is
    never the solve you want to keep resident. *)

module Ir = Csc_ir.Ir

type fact = {
  x_ptr : string;   (** rendered pointer, e.g. ["Main.main.x"] *)
  x_obj : string;   (** rendered object, e.g. ["Item/o16"] *)
  x_chain : string list;  (** derivation chain, root first; [[]] if none *)
}

(** [facts p t] explains up to [limit] (default 5) points-to facts of the
    finished solver [t] over [p]. [var] restricts to variables whose
    qualified [Class.method.var] name ends with it; without it, application
    (non-mini-JDK) variables are scanned. *)
val facts : ?var:string -> ?limit:int -> Ir.program -> Csc_pta.Solver.t -> fact list
