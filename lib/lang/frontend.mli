(** Entry point: compile MiniJava source text (plus the mini-JDK) into an
    {!Csc_ir.Ir.program}.

    Raises {!Ast.Syntax_error} or {!Ast.Semantic_error} (both carry source
    positions) on malformed input. *)

(** [compile_string src] parses, resolves and lowers [src] into one
    program, with the mini-JDK ({!Jdk.source}) compiled in front of it.

    [name] is ignored: error positions carry a line and a column, and a
    caller that reports them prefixes the unit's name itself (as
    [Csc_driver.Session.load_source] does). It is kept only so that
    [bench/perf] still compiles unmodified; to be removed with the
    benchmark's next change. *)
val compile_string : ?name:string -> string -> Csc_ir.Ir.program
