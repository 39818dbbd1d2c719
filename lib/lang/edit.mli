(** Method-level source edits, the [edits] of the analysis server's [update]
    request.

    An edit names a class, and for [Replace_method] and [Remove_method] a
    method of it, and patches the MiniJava text. Classes, methods and their
    braces are found on {!Lexer.tokenize}'s tokens, so comments, string
    literals and escapes are skipped exactly as the compiler skips them. *)

type t =
  | Replace_method of { cls : string; meth : string; body : string }
      (** the statements between the method's braces become [body] *)
  | Add_method of { cls : string; meth_src : string }
      (** [meth_src], a whole method declaration, goes before the class's
          closing brace *)
  | Remove_method of { cls : string; meth : string }
      (** the method's declaration, from its first token to its closing
          brace, goes *)

(** Apply the edits in order. A method is one declared directly in the
    class body; when several share the name, the first is edited. [Error]
    names the missing class or method, or the position of a lexical error
    in the text an earlier edit produced. *)
val apply : string -> t list -> (string, string) result
