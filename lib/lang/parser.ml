(** Recursive-descent parser for MiniJava.

    Precedence climbing for binary operators; the classic one-token lookahead
    trick disambiguates casts [(T) e] from parenthesized expressions. Tokens
    are pulled from {!Lexer.next} into a small ring of lookahead on demand;
    the parser never backtracks, so the ring only holds what [peekn] has
    asked for. *)

open Ast

type state = {
  lx : Lexer.lexer;
  mutable ring : Lexer.loc_token array;  (* power-of-two size *)
  mutable head : int;  (* ring index of the current token *)
  mutable filled : int;  (* tokens read ahead, the current one included *)
}

(* the token [n] places after the current one *)
let rec peekn st n =
  let size = Array.length st.ring in
  if n < st.filled then st.ring.((st.head + n) land (size - 1))
  else if n >= size then begin
    (* unroll the window to the front of a ring twice the size *)
    st.ring <- Array.init (2 * size) (fun k -> st.ring.((st.head + k) land (size - 1)));
    st.head <- 0;
    peekn st n
  end
  else begin
    st.ring.((st.head + st.filled) land (size - 1)) <- Lexer.next st.lx;
    st.filled <- st.filled + 1;
    peekn st n
  end

let peek st = peekn st 0
let peek2 st = peekn st 1

(* consume the current token; every caller has [peek]ed it first *)
let advance st =
  st.head <- (st.head + 1) land (Array.length st.ring - 1);
  st.filled <- st.filled - 1

let cur_pos st = (peek st).pos

let expect st (t : Lexer.token) =
  let lt = peek st in
  if lt.tok = t then advance st
  else
    syntax_error lt.pos "expected %s but found %s" (Lexer.describe t)
      (Lexer.describe lt.tok)

let eat st t =
  if (peek st).tok = t then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  let lt = peek st in
  match lt.tok with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> syntax_error lt.pos "expected identifier but found %s" (Lexer.describe t)

(* ------------------------------------------------------------------ types *)

let parse_base_type st : ty =
  let lt = peek st in
  match lt.tok with
  | Lexer.INT_KW -> advance st; Ty_int
  | Lexer.BOOLEAN -> advance st; Ty_bool
  | Lexer.VOID -> advance st; Ty_void
  | Lexer.IDENT s -> advance st; Ty_class s
  | t -> syntax_error lt.pos "expected a type but found %s" (Lexer.describe t)

let rec add_dims st ty =
  match ((peek st).tok, (peek2 st).tok) with
  | Lexer.LBRACK, Lexer.RBRACK ->
    advance st;
    advance st;
    add_dims st (Ty_array ty)
  | _ -> ty

let parse_type st : ty = add_dims st (parse_base_type st)

(* ------------------------------------------------------------ expressions *)

(* Tokens that may legally follow a cast's closing paren. *)
let starts_cast_operand (t : Lexer.token) =
  match t with
  | Lexer.IDENT _ | INT _ | STRING _ | LPAREN | NEW | THIS | TRUE | FALSE | NULL -> true
  | _ -> false

(* Is the `(` just consumed the start of a cast `(T)`? Looks ahead without
   consuming anything. *)
let is_cast st =
  match (peek st).tok with
  | Lexer.INT_KW | Lexer.BOOLEAN | Lexer.IDENT _ ->
    (* skip array dims *)
    let n = ref 1 in
    while (peekn st !n).tok = Lexer.LBRACK && (peekn st (!n + 1)).tok = Lexer.RBRACK do
      n := !n + 2
    done;
    (* `(Ident)` with a primitive keyword is always a cast; `(Ident)(..)`
       could be a call of a parenthesized function, which MiniJava does not
       have, so treating it as a cast is safe. *)
    (peekn st !n).tok = Lexer.RPAREN && starts_cast_operand (peekn st (!n + 1)).tok
  | _ -> false

let binop_of (t : Lexer.token) =
  match t with
  | Lexer.PLUS -> Some (Add, 6) | MINUS -> Some (Sub, 6) | STAR -> Some (Mul, 7)
  | SLASH -> Some (Div, 7) | PERCENT -> Some (Mod, 7) | LT -> Some (Lt, 5)
  | LE -> Some (Le, 5) | GT -> Some (Gt, 5) | GE -> Some (Ge, 5)
  | EQ -> Some (Eq, 4) | NE -> Some (Ne, 4) | AND -> Some (And, 3)
  | OR -> Some (Or, 2) | _ -> None

let rec parse_expr st : expr = parse_binary st 0

and parse_binary st min_prec : expr =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match (peek st).tok with
    | Lexer.INSTANCEOF when min_prec <= 5 ->
      let pos = cur_pos st in
      advance st;
      let ty = parse_type st in
      lhs := { e = Instanceof (!lhs, ty); e_pos = pos }
    | t -> (
      match binop_of t with
      | Some (op, prec) when prec >= min_prec ->
        let pos = cur_pos st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := { e = Binop (op, !lhs, rhs); e_pos = pos }
      | _ -> continue_ := false)
  done;
  !lhs

and parse_unary st : expr =
  let lt = peek st in
  match lt.tok with
  | Lexer.NOT ->
    advance st;
    { e = Unop (Not, parse_unary st); e_pos = lt.pos }
  | Lexer.MINUS ->
    advance st;
    { e = Unop (Neg, parse_unary st); e_pos = lt.pos }
  | _ -> parse_postfix st

and parse_postfix st : expr =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    let lt = peek st in
    match lt.tok with
    | Lexer.DOT ->
      advance st;
      let name = expect_ident st in
      let d =
        if eat st Lexer.LPAREN then Call (!e, name, parse_args st) else Field (!e, name)
      in
      e := { e = d; e_pos = lt.pos }
    | Lexer.LBRACK ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACK;
      e := { e = Index (!e, idx); e_pos = lt.pos }
    | _ -> continue_ := false
  done;
  !e

and parse_args st : expr list =
  (* '(' already consumed *)
  if eat st Lexer.RPAREN then []
  else begin
    let args = ref [ parse_expr st ] in
    while eat st Lexer.COMMA do
      args := parse_expr st :: !args
    done;
    expect st Lexer.RPAREN;
    List.rev !args
  end

and parse_primary st : expr =
  let lt = peek st in
  let mk e = { e; e_pos = lt.pos } in
  match lt.tok with
  | Lexer.INT n -> advance st; mk (Int_lit n)
  | Lexer.STRING s -> advance st; mk (Str_lit s)
  | Lexer.TRUE -> advance st; mk (Bool_lit true)
  | Lexer.FALSE -> advance st; mk (Bool_lit false)
  | Lexer.NULL -> advance st; mk Null_lit
  | Lexer.THIS -> advance st; mk This
  | Lexer.SUPER ->
    advance st;
    if eat st Lexer.LPAREN then
      (* super(args): super-constructor invocation *)
      mk (Super_call ("<init>", parse_args st))
    else begin
      expect st Lexer.DOT;
      let name = expect_ident st in
      expect st Lexer.LPAREN;
      mk (Super_call (name, parse_args st))
    end
  | Lexer.NEW ->
    advance st;
    let base = parse_base_type st in
    (match (peek st).tok with
    | Lexer.LBRACK ->
      advance st;
      let len = parse_expr st in
      expect st Lexer.RBRACK;
      (* allow multi-dim declarators to degrade to 1-D of arrays *)
      let elem = add_dims st base in
      mk (New_array (elem, len))
    | _ ->
      (match base with
      | Ty_class c ->
        expect st Lexer.LPAREN;
        mk (New (c, parse_args st))
      | _ -> syntax_error lt.pos "cannot 'new' a primitive without []"))
  | Lexer.LPAREN ->
    advance st;
    if is_cast st then begin
      let ty = parse_type st in
      expect st Lexer.RPAREN;
      mk (Cast (ty, parse_postfix st))
    end
    else begin
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      e
    end
  | Lexer.IDENT name -> (
    (* Could be: variable, self-call m(...), static call C.m(...) or static
       field C.f — the latter two are resolved later; here we produce
       Static_call/Static_field only when the identifier is followed by
       `.x` where the identifier is known to be a class name. That knowledge
       lives in the resolver, so the parser emits Var/Field/Call and the
       resolver reinterprets `Field (Var C, f)` when C names a class. *)
    advance st;
    if eat st Lexer.LPAREN then mk (Self_call (name, parse_args st)) else mk (Var name))
  | t -> syntax_error lt.pos "expected an expression but found %s" (Lexer.describe t)

(* -------------------------------------------------------------- statements *)

let rec parse_stmt st : stmt =
  let lt = peek st in
  let mk s = { s; s_pos = lt.pos } in
  match lt.tok with
  | Lexer.LBRACE -> mk (Block (parse_block st))
  | Lexer.IF ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr st in
    expect st Lexer.RPAREN;
    let then_ = parse_block_or_stmt st in
    let else_ = if eat st Lexer.ELSE then parse_block_or_stmt st else [] in
    mk (If (cond, then_, else_))
  | Lexer.WHILE ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr st in
    expect st Lexer.RPAREN;
    let body = parse_block_or_stmt st in
    mk (While (cond, body))
  | Lexer.FOR ->
    (* desugared to { init; while (cond) { body; update } } *)
    advance st;
    expect st Lexer.LPAREN;
    let init =
      if eat st Lexer.SEMI then []
      else [ parse_stmt st ] (* decl or assignment; consumes the ';' *)
    in
    let cond =
      if (peek st).tok = Lexer.SEMI then { e = Bool_lit true; e_pos = lt.pos }
      else parse_expr st
    in
    expect st Lexer.SEMI;
    let update =
      if (peek st).tok = Lexer.RPAREN then []
      else begin
        let e = parse_expr st in
        if eat st Lexer.ASSIGN then
          let rhs = parse_expr st in
          [ { s = Assign (e, rhs); s_pos = lt.pos } ]
        else [ { s = Expr e; s_pos = lt.pos } ]
      end
    in
    expect st Lexer.RPAREN;
    let body = parse_block_or_stmt st in
    mk (Block (init @ [ { s = While (cond, body @ update); s_pos = lt.pos } ]))
  | Lexer.RETURN ->
    advance st;
    if eat st Lexer.SEMI then mk (Return None)
    else begin
      let e = parse_expr st in
      expect st Lexer.SEMI;
      mk (Return (Some e))
    end
  | (Lexer.INT_KW | Lexer.BOOLEAN) -> parse_decl st
  | Lexer.IDENT _ when is_decl_lookahead st -> parse_decl st
  | _ ->
    let e = parse_expr st in
    if eat st Lexer.ASSIGN then begin
      let rhs = parse_expr st in
      expect st Lexer.SEMI;
      mk (Assign (e, rhs))
    end
    else begin
      expect st Lexer.SEMI;
      match e.e with
      | Call ({ e = Var "System"; _ }, "print", [ arg ]) -> mk (Print arg)
      | _ -> mk (Expr e)
    end

(* `Foo x ...` or `Foo[] x ...` begins a declaration; `Foo[0] = ...`,
   `Foo.m()` etc. begin expressions. *)
and is_decl_lookahead st =
  match ((peek2 st).tok, (peekn st 2).tok) with
  | Lexer.IDENT _, _ | Lexer.LBRACK, Lexer.RBRACK -> true
  | _ -> false

and parse_decl st : stmt =
  let pos = cur_pos st in
  let ty = parse_type st in
  let name = expect_ident st in
  let init = if eat st Lexer.ASSIGN then Some (parse_expr st) else None in
  expect st Lexer.SEMI;
  { s = Decl (ty, name, init); s_pos = pos }

and parse_block st : stmt list =
  expect st Lexer.LBRACE;
  let stmts = ref [] in
  while not (eat st Lexer.RBRACE) do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

and parse_block_or_stmt st : stmt list =
  if (peek st).tok = Lexer.LBRACE then parse_block st
  else [ parse_stmt st ]

(* ----------------------------------------------------------------- classes *)

let rec parse_member st ~class_name : member =
  let pos = cur_pos st in
  let static = eat st Lexer.STATIC in
  (* constructor: `ClassName ( ...` *)
  match ((peek st).tok, (peek2 st).tok) with
  | Lexer.IDENT n, Lexer.LPAREN when n = class_name && not static ->
    advance st;
    expect st Lexer.LPAREN;
    let params = parse_params st in
    let body = parse_block st in
    M_method
      { mm_static = false; mm_ret = Ty_void; mm_name = "<init>";
        mm_params = params; mm_body = body; mm_pos = pos }
  | _ ->
    let ty = parse_type st in
    let name = expect_ident st in
    if eat st Lexer.LPAREN then begin
      let params = parse_params st in
      let body = parse_block st in
      M_method
        { mm_static = static; mm_ret = ty; mm_name = name;
          mm_params = params; mm_body = body; mm_pos = pos }
    end
    else begin
      expect st Lexer.SEMI;
      M_field { mf_static = static; mf_ty = ty; mf_name = name; mf_pos = pos }
    end

and parse_params st : (ty * string) list =
  if eat st Lexer.RPAREN then []
  else begin
    let one () =
      let ty = parse_type st in
      let name = expect_ident st in
      (ty, name)
    in
    let ps = ref [ one () ] in
    while eat st Lexer.COMMA do
      ps := one () :: !ps
    done;
    expect st Lexer.RPAREN;
    List.rev !ps
  end

let parse_class st : class_decl =
  let pos = cur_pos st in
  expect st Lexer.CLASS;
  let name = expect_ident st in
  let super = if eat st Lexer.EXTENDS then Some (expect_ident st) else None in
  expect st Lexer.LBRACE;
  let members = ref [] in
  while not (eat st Lexer.RBRACE) do
    members := parse_member st ~class_name:name :: !members
  done;
  { cd_name = name; cd_super = super; cd_members = List.rev !members; cd_pos = pos }

let parse_program (src : string) : program =
  let eof = { Lexer.tok = Lexer.EOF; pos = dummy_pos; off = 0 } in
  let st = { lx = Lexer.create src; ring = Array.make 8 eof; head = 0; filled = 0 } in
  let classes = ref [] in
  while (peek st).tok <> Lexer.EOF do
    classes := parse_class st :: !classes
  done;
  List.rev !classes
