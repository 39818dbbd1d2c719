(** Hand-written pull lexer for MiniJava.

    Works over an in-memory string (all workloads are generated or embedded,
    no file IO needed at this layer). The recursive-descent parser pulls one
    token at a time with {!next}, so tokens die young instead of a whole
    program's worth reaching the major heap, and errors surface in source
    order. {!tokenize} drains {!next} into an array for {!Edit}. *)

type token =
  | INT of int
  | STRING of string
  | IDENT of string
  (* keywords *)
  | CLASS | EXTENDS | NEW | RETURN | IF | ELSE | WHILE | FOR | INSTANCEOF
  | SUPER | TRUE | FALSE | NULL | THIS | STATIC | VOID | INT_KW | BOOLEAN
  (* punctuation *)
  | LBRACE | RBRACE | LPAREN | RPAREN | LBRACK | RBRACK | SEMI | COMMA | DOT
  | ASSIGN | EQ | NE | LT | LE | GT | GE | PLUS | MINUS | STAR | SLASH
  | PERCENT | AND | OR | NOT
  | EOF

type loc_token = {
  tok : token;
  pos : Ast.pos;
  off : int;  (** byte offset of the token's first character *)
}

let keyword = function
  | "class" -> CLASS | "extends" -> EXTENDS | "new" -> NEW | "return" -> RETURN
  | "if" -> IF | "else" -> ELSE | "while" -> WHILE | "for" -> FOR
  | "instanceof" -> INSTANCEOF | "super" -> SUPER | "true" -> TRUE
  | "false" -> FALSE | "null" -> NULL | "this" -> THIS | "static" -> STATIC
  | "void" -> VOID | "int" -> INT_KW | "boolean" -> BOOLEAN
  | s -> IDENT s

(** How a token reads in an error message. *)
let describe t =
  let kw = Printf.sprintf "keyword %S" and p = Printf.sprintf "%S" in
  match t with
  | INT n -> Printf.sprintf "integer %d" n
  | STRING _ -> "string literal"
  | IDENT s -> Printf.sprintf "identifier %S" s
  | EOF -> "end of input"
  | CLASS -> kw "class" | EXTENDS -> kw "extends" | NEW -> kw "new"
  | RETURN -> kw "return" | IF -> kw "if" | ELSE -> kw "else"
  | WHILE -> kw "while" | FOR -> kw "for" | INSTANCEOF -> kw "instanceof"
  | SUPER -> kw "super" | TRUE -> kw "true" | FALSE -> kw "false"
  | NULL -> kw "null" | THIS -> kw "this" | STATIC -> kw "static"
  | VOID -> kw "void" | INT_KW -> kw "int" | BOOLEAN -> kw "boolean"
  | LBRACE -> p "{" | RBRACE -> p "}" | LPAREN -> p "(" | RPAREN -> p ")"
  | LBRACK -> p "[" | RBRACK -> p "]" | SEMI -> p ";" | COMMA -> p ","
  | DOT -> p "." | ASSIGN -> p "=" | EQ -> p "==" | NE -> p "!=" | LT -> p "<"
  | LE -> p "<=" | GT -> p ">" | GE -> p ">=" | PLUS -> p "+" | MINUS -> p "-"
  | STAR -> p "*" | SLASH -> p "/" | PERCENT -> p "%" | AND -> p "&&"
  | OR -> p "||" | NOT -> p "!"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

type lexer = {
  src : string;
  mutable i : int;  (* next byte to read *)
  mutable line : int;
  mutable bol : int;  (* byte offset where [line] begins *)
}

let create src = { src; i = 0; line = 1; bol = 0 }

let pos (lx : lexer) i : Ast.pos = { line = lx.line; col = i - lx.bol + 1 }

(* move [lx.i] past blanks and comments *)
let rec skip lx =
  let src = lx.src and i = lx.i in
  let n = String.length src in
  if i < n then
    match src.[i] with
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.i <- i + 1;
      lx.bol <- i + 1;
      skip lx
    | ' ' | '\t' | '\r' ->
      lx.i <- i + 1;
      skip lx
    | '/' when i + 1 < n && src.[i + 1] = '/' ->
      lx.i <- Option.value (String.index_from_opt src i '\n') ~default:n;
      skip lx
    | '/' when i + 1 < n && src.[i + 1] = '*' ->
      let p = pos lx i in
      let j = ref (i + 2) in
      while not (!j + 1 < n && src.[!j] = '*' && src.[!j + 1] = '/') do
        if !j + 1 >= n then Ast.syntax_error p "unterminated comment";
        if src.[!j] = '\n' then begin
          lx.line <- lx.line + 1;
          lx.bol <- !j + 1
        end;
        incr j
      done;
      lx.i <- !j + 2;
      skip lx
    | _ -> ()

(** The next token; [EOF] forever once the input is exhausted. *)
let next lx : loc_token =
  skip lx;
  let src = lx.src and i = lx.i in
  let n = String.length src in
  let pos = pos lx i in
  (* every token is made before [lx.i] moves past its first character *)
  let tok t len =
    lx.i <- i + len;
    { tok = t; pos; off = i }
  in
  let span ok =
    let j = ref (i + 1) in
    while !j < n && ok src.[!j] do incr j done;
    !j - i
  in
  if i >= n then tok EOF 0
  else
    match src.[i] with
    | c when is_digit c ->
      let len = span is_digit in
      tok (INT (int_of_string (String.sub src i len))) len
    | c when is_ident_start c ->
      let len = span is_ident_char in
      tok (keyword (String.sub src i len)) len
    | '"' ->
      let buf = Buffer.create 16 in
      let j = ref (i + 1) in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\n' then Ast.syntax_error pos "unterminated string literal";
        if src.[!j] = '\\' && !j + 1 < n then begin
          (match src.[!j + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | ch -> Buffer.add_char buf ch);
          j := !j + 2
        end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      if !j >= n then Ast.syntax_error pos "unterminated string literal";
      tok (STRING (Buffer.contents buf)) (!j + 1 - i)
    | c -> (
      match (c, if i + 1 < n then src.[i + 1] else ' ') with
      | '=', '=' -> tok EQ 2 | '!', '=' -> tok NE 2 | '<', '=' -> tok LE 2
      | '>', '=' -> tok GE 2 | '&', '&' -> tok AND 2 | '|', '|' -> tok OR 2
      | '{', _ -> tok LBRACE 1 | '}', _ -> tok RBRACE 1 | '(', _ -> tok LPAREN 1
      | ')', _ -> tok RPAREN 1 | '[', _ -> tok LBRACK 1 | ']', _ -> tok RBRACK 1
      | ';', _ -> tok SEMI 1 | ',', _ -> tok COMMA 1 | '.', _ -> tok DOT 1
      | '=', _ -> tok ASSIGN 1 | '<', _ -> tok LT 1 | '>', _ -> tok GT 1
      | '+', _ -> tok PLUS 1 | '-', _ -> tok MINUS 1 | '*', _ -> tok STAR 1
      | '/', _ -> tok SLASH 1 | '%', _ -> tok PERCENT 1 | '!', _ -> tok NOT 1
      | _ -> Ast.syntax_error pos "unexpected character %C" c)

(** All of [src]'s tokens, ending in [EOF]. *)
let tokenize (src : string) : loc_token array =
  let lx = create src in
  let rec go acc =
    match next lx with
    | { tok = EOF; _ } as t -> Array.of_list (List.rev (t :: acc))
    | t -> go (t :: acc)
  in
  go []
