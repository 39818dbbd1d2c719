(** Entry point: compile MiniJava source text (plus the mini-JDK) into an
    {!Csc_ir.Ir.program}. *)

(** [compile_string src] parses, resolves and lowers [src] after the
    mini-JDK; [name] is ignored. Raises {!Ast.Syntax_error} /
    {!Ast.Semantic_error}. *)
let compile_string ?name:_ src =
  Csc_obs.Trace.with_span ~cat:"frontend" "compile" (fun () ->
      Resolver.compile [ Jdk.source; src ])
