(** Tests for the MiniJava lexer, parser, resolver and lowering. *)

module Ir = Csc_ir.Ir

let compile src = Csc_lang.Frontend.compile_string src

let find_method p name =
  let found = ref None in
  Array.iter
    (fun (m : Ir.metho) -> if Ir.method_name p m.m_id = name then found := Some m)
    p.Ir.methods;
  match !found with
  | Some m -> m
  | None -> Alcotest.fail ("method not found: " ^ name)

let find_class p name =
  let found = ref None in
  Array.iter
    (fun (k : Ir.klass) -> if k.c_name = name then found := Some k)
    p.Ir.classes;
  match !found with
  | Some k -> k
  | None -> Alcotest.fail ("class not found: " ^ name)

let test_lexer_basic () =
  let toks = Csc_lang.Lexer.tokenize "class A { int x; } // comment" in
  let kinds =
    Array.to_list toks
    |> List.map (fun (t : Csc_lang.Lexer.loc_token) -> t.tok)
  in
  Alcotest.(check int) "token count" 8 (List.length kinds);
  match kinds with
  | CLASS :: IDENT "A" :: LBRACE :: INT_KW :: IDENT "x" :: SEMI :: RBRACE
    :: EOF :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_two_char_ops () =
  let toks = Csc_lang.Lexer.tokenize "a <= b == c && d" in
  let puncts =
    Array.to_list toks
    |> List.filter_map (fun (t : Csc_lang.Lexer.loc_token) ->
           match t.tok with
           | Csc_lang.Lexer.IDENT _ | EOF -> None
           | tok -> Some (Csc_lang.Lexer.describe tok))
  in
  Alcotest.(check (list string)) "ops" [ {|"<="|}; {|"=="|}; {|"&&"|} ] puncts

let test_lexer_string_escape () =
  let toks = Csc_lang.Lexer.tokenize {|"a\nb"|} in
  match toks.(0).tok with
  | Csc_lang.Lexer.STRING s -> Alcotest.(check string) "escaped" "a\nb" s
  | _ -> Alcotest.fail "expected string literal"

let test_lexer_error () =
  Alcotest.check_raises "bad char"
    (Csc_lang.Ast.Syntax_error ({ line = 1; col = 1 }, "unexpected character '#'"))
    (fun () -> ignore (Csc_lang.Lexer.tokenize "#"))

let test_lexer_pull_equals_tokenize () =
  (* [tokenize] is [next] drained; every token's byte offset agrees with
     its line and column *)
  let src = Csc_workloads.Suite.source "findbugs" in
  let toks = Csc_lang.Lexer.tokenize src in
  let lx = Csc_lang.Lexer.create src in
  let line = ref 1 and bol = ref 0 and last = ref 0 in
  Array.iteri
    (fun k (t : Csc_lang.Lexer.loc_token) ->
      if Csc_lang.Lexer.next lx <> t then Alcotest.failf "token %d differs" k;
      for i = !last to t.off - 1 do
        if src.[i] = '\n' then begin
          incr line;
          bol := i + 1
        end
      done;
      last := t.off;
      if t.pos <> { line = !line; col = t.off - !bol + 1 } then
        Alcotest.failf "token %d at byte %d: pos %d:%d" k t.off t.pos.line t.pos.col)
    toks;
  Alcotest.(check bool) "EOF forever" true
    ((Csc_lang.Lexer.next lx).tok = EOF && (Csc_lang.Lexer.next lx).tok = EOF)

let test_parse_deep_cast () =
  (* the cast test looks 20 tokens ahead, past the parser's initial window *)
  let src =
    "class Main { static void main() { Object x = null;\n\
    \  Object y = (int[][][][][][][][]) x; } }"
  in
  match Csc_lang.Parser.parse_program src with
  | [ { cd_members =
          [ M_method { mm_body = [ _; { s = Decl (_, "y", Some e); _ } ]; _ } ];
        _ } ] -> (
    let rec dims = function Csc_lang.Ast.Ty_array t -> 1 + dims t | _ -> 0 in
    match e.e with
    | Cast ((Ty_array _ as ty), { e = Var "x"; _ }) ->
      Alcotest.(check int) "dims" 8 (dims ty)
    | _ -> Alcotest.fail "not a cast of x")
  | _ -> Alcotest.fail "unexpected program shape"

let test_errors_in_source_order () =
  (* a syntax error on line 2 is reported before a bad character on line 9:
     the parser pulls tokens, so the file is not lexed to the end first *)
  let src =
    "class Main {\n  static void main() { int x = ; }\n}\n\n\n\n\n\n\
     class B { # }\n"
  in
  Alcotest.check_raises "line 2"
    (Csc_lang.Ast.Syntax_error
       ({ line = 2; col = 32 }, "expected an expression but found \";\""))
    (fun () -> ignore (Csc_lang.Parser.parse_program src))

let test_local_scopes () =
  (* an inner block may shadow an outer local or a parameter; the outer one
     is visible again after the block; a redeclaration in one scope is an
     error *)
  let p =
    compile
      {|
class Main {
  static int f(int a) {
    int x = a;
    { int x = 5; int a = x; }
    return x;
  }
  static void main() { int r = f(1); }
}
|}
  in
  let f = find_method p "Main.f" in
  (match f.m_ret_var with
  | Some v -> Alcotest.(check string) "outer x returned" "x" (Ir.var_name p v)
  | None -> Alcotest.fail "f should return a var");
  let xs =
    Array.to_list p.vars
    |> List.filter (fun (v : Ir.var) -> v.v_method = f.m_id && v.v_name = "x")
  in
  Alcotest.(check int) "two x" 2 (List.length xs);
  Alcotest.(check bool) "returns the first x" true
    (f.m_ret_var = Some (List.hd xs).v_id);
  Alcotest.check_raises "duplicate"
    (Csc_lang.Ast.Semantic_error
       ({ line = 1; col = 46 }, "duplicate local variable x"))
    (fun () ->
      ignore
        (compile "class Main { static void main() { int x = 1; int x = 2; } }"))

let test_parse_carton () =
  let p = compile Fixtures.carton in
  let setter = find_method p "Carton.setItem" in
  Alcotest.(check int) "setItem params" 1 (Array.length setter.m_params);
  Alcotest.(check bool) "instance method" false setter.m_static;
  let getter = find_method p "Carton.getItem" in
  (match getter.m_ret_var with
  | Some v -> Alcotest.(check string) "single return var" "r" (Ir.var_name p v)
  | None -> Alcotest.fail "getter should have a return var");
  let main = find_method p "Main.main" in
  Alcotest.(check bool) "main static" true main.m_static;
  Alcotest.(check int) "program main" main.m_id p.Ir.main

let test_store_lowering () =
  (* setItem body must contain exactly one Store whose base is `this` and
     whose rhs is the parameter - no extra temps. *)
  let p = compile Fixtures.carton in
  let setter = find_method p "Carton.setItem" in
  let stores = ref [] in
  Ir.iter_stmts
    (fun s ->
      match s with
      | Ir.Store { base; rhs; _ } -> stores := (base, rhs) :: !stores
      | _ -> ())
    setter.m_body;
  match !stores with
  | [ (base, rhs) ] ->
    Alcotest.(check string) "base is this" "this" (Ir.var_name p base);
    Alcotest.(check string) "rhs is param" "item" (Ir.var_name p rhs)
  | _ -> Alcotest.fail "expected exactly one store"

let test_def_counts () =
  let p = compile Fixtures.carton in
  let setter = find_method p "Carton.setItem" in
  let param = setter.m_params.(0) in
  Alcotest.(check int) "param never redefined" 0 p.Ir.def_counts.(param);
  (match setter.m_this with
  | Some this -> Alcotest.(check int) "this never redefined" 0 p.Ir.def_counts.(this)
  | None -> Alcotest.fail "expected this");
  let getter = find_method p "Carton.getItem" in
  match getter.m_ret_var with
  | Some r -> Alcotest.(check int) "return var defined once" 1 p.Ir.def_counts.(r)
  | None -> Alcotest.fail "expected ret var"

let test_multi_return_funnel () =
  let src =
    {|
class A {
  Object pick(boolean b, Object x, Object y) {
    if (b) { return x; }
    return y;
  }
}
class Main { static void main() { A a = new A(); System.print(a); } }
|}
  in
  let p = compile src in
  let m = find_method p "A.pick" in
  match m.m_ret_var with
  | Some v -> Alcotest.(check string) "funnelled" "$ret" (Ir.var_name p v)
  | None -> Alcotest.fail "expected $ret"

let test_vtable_override () =
  let p = compile Fixtures.poly in
  let dog = find_class p "Dog" in
  let animal = find_class p "Animal" in
  let dog_speak = Ir.dispatch p dog.c_id "speak" in
  let animal_speak = Ir.dispatch p animal.c_id "speak" in
  (match (dog_speak, animal_speak) with
  | Some d, Some a ->
    Alcotest.(check bool) "override differs" true (d <> a);
    Alcotest.(check string) "dog impl" "Dog.speak" (Ir.method_name p d)
  | _ -> Alcotest.fail "dispatch failed");
  Alcotest.(check bool) "Dog <: Animal" true
    (Ir.subclass_of p dog.c_id animal.c_id);
  Alcotest.(check bool) "Animal not <: Dog" false
    (Ir.subclass_of p animal.c_id dog.c_id)

let test_subtyping () =
  let p = compile Fixtures.poly in
  let dog = find_class p "Dog" in
  let obj = p.Ir.object_cls in
  Alcotest.(check bool) "Dog <: Object" true
    (Ir.subtype p (Tclass dog.c_id) (Tclass obj));
  Alcotest.(check bool) "null <: Dog" true (Ir.subtype p Tnull (Tclass dog.c_id));
  Alcotest.(check bool) "Dog[] <: Object" true
    (Ir.subtype p (Tarray (Tclass dog.c_id)) (Tclass obj));
  Alcotest.(check bool) "Dog[] <: Animal[]" true
    (Ir.subtype p
       (Tarray (Tclass dog.c_id))
       (Tarray (Tclass (find_class p "Animal").c_id)))

let test_cast_sites () =
  let p = compile Fixtures.poly in
  Alcotest.(check int) "two ref casts" 2 (Array.length p.Ir.casts)

let test_jdk_compiles () =
  let p = compile Fixtures.containers in
  let al = find_class p "ArrayList" in
  let coll = find_class p "Collection" in
  Alcotest.(check bool) "ArrayList <: Collection" true
    (Ir.subclass_of p al.c_id coll.c_id);
  (* ArrayList.get dispatched from Collection *)
  match Ir.dispatch p al.c_id "get" with
  | Some m -> Alcotest.(check string) "dispatch get" "ArrayList.get" (Ir.method_name p m)
  | None -> Alcotest.fail "no dispatch for get"

let test_error_unknown_var () =
  let src = "class Main { static void main() { x = 1; } }" in
  match compile src with
  | exception Csc_lang.Ast.Semantic_error (_, msg) ->
    Alcotest.(check bool) "mentions var" true
      (Astring.String.is_infix ~affix:"x" msg)
  | _ -> Alcotest.fail "expected semantic error"

let test_error_bad_arity () =
  let src =
    {|
class A { void m(Object x) { } }
class Main { static void main() { A a = new A(); a.m(); } }
|}
  in
  match compile src with
  | exception Csc_lang.Ast.Semantic_error (_, _) -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_error_cycle () =
  let src =
    "class A extends B { } class B extends A { } class Main { static void main() { } }"
  in
  match compile src with
  | exception Csc_lang.Ast.Semantic_error (_, _) -> ()
  | _ -> Alcotest.fail "expected cycle error"

let test_all_fixtures_compile () =
  List.iter
    (fun (name, src) ->
      match compile src with
      | _ -> ()
      | exception e ->
        Alcotest.fail (Printf.sprintf "%s failed: %s" name (Printexc.to_string e)))
    Fixtures.all

let test_stats () =
  let p = compile Fixtures.carton in
  let s = Ir.stats p in
  Alcotest.(check bool) "has classes" true (s.n_classes > 20);
  Alcotest.(check bool) "has allocs" true (s.n_allocs >= 4);
  Alcotest.(check bool) "has calls" true (s.n_calls >= 4)

let suite =
  [
    ( "lang.lexer",
      [
        Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
        Alcotest.test_case "two-char operators" `Quick test_lexer_two_char_ops;
        Alcotest.test_case "string escapes" `Quick test_lexer_string_escape;
        Alcotest.test_case "lex error" `Quick test_lexer_error;
        Alcotest.test_case "tokenize drains next" `Quick
          test_lexer_pull_equals_tokenize;
        Alcotest.test_case "deep cast lookahead" `Quick test_parse_deep_cast;
        Alcotest.test_case "errors in source order" `Quick
          test_errors_in_source_order;
      ] );
    ( "lang.frontend",
      [
        Alcotest.test_case "carton compiles" `Quick test_parse_carton;
        Alcotest.test_case "local scopes" `Quick test_local_scopes;
        Alcotest.test_case "store lowering is direct" `Quick test_store_lowering;
        Alcotest.test_case "def counts" `Quick test_def_counts;
        Alcotest.test_case "multi-return funnel" `Quick test_multi_return_funnel;
        Alcotest.test_case "vtable override" `Quick test_vtable_override;
        Alcotest.test_case "subtyping" `Quick test_subtyping;
        Alcotest.test_case "cast sites" `Quick test_cast_sites;
        Alcotest.test_case "jdk compiles" `Quick test_jdk_compiles;
        Alcotest.test_case "error: unknown var" `Quick test_error_unknown_var;
        Alcotest.test_case "error: bad arity" `Quick test_error_bad_arity;
        Alcotest.test_case "error: inheritance cycle" `Quick test_error_cycle;
        Alcotest.test_case "all fixtures compile" `Quick test_all_fixtures_compile;
        Alcotest.test_case "program stats" `Quick test_stats;
      ] );
  ]
