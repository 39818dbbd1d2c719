type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- printer *)

(* Bytes the printer must escape; everything else, bytes >= 0x80 included,
   is copied through. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Copies each run of plain bytes with one [add_substring]; a string with
   nothing to escape (nearly every identifier) is a single scan and copy. *)
let escape_into buf (s : string) =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if needs_escape c then begin
      Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

let escape (s : string) : string =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    escape_into buf s;
    Buffer.contents buf
  end

(* shortest decimal form that re-parses to the same IEEE double, always with
   a '.' or exponent so the parser keeps it a Float *)
let float_repr (f : float) : string =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_buffer buf (v : t) =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        to_buffer buf x)
      kvs;
    Buffer.add_char buf '}'

let rec pretty_buffer buf indent (v : t) =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | List (_ :: _ as l) ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        pretty_buffer buf (indent + 2) x)
      l;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Obj (_ :: _ as kvs) ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\": ";
        pretty_buffer buf (indent + 2) x)
      kvs;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'
  | v -> to_buffer buf v

let to_string ?(pretty = false) (v : t) : string =
  let buf = Buffer.create 256 in
  if pretty then pretty_buffer buf 0 v else to_buffer buf v;
  Buffer.contents buf

(* ----------------------------------------------------------------- parser *)

exception Parse_error of int * string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  (* end of the run of plain bytes starting at [i]: the next quote or
     backslash, or [n] *)
  let rec plain_end i =
    if i < n && s.[i] <> '"' && s.[i] <> '\\' then plain_end (i + 1) else i
  in
  let parse_string_body () =
    expect '"';
    let start = !pos in
    let stop = plain_end start in
    if stop < n && s.[stop] = '"' then begin
      (* no escapes, the common case: one copy *)
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      let rec go () =
        let stop = plain_end !pos in
        Buffer.add_substring buf s !pos (stop - !pos);
        pos := stop;
        if !pos >= n then fail "unterminated string"
        else if s.[!pos] = '"' then advance ()
        else begin
          (* a backslash *)
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "truncated \\u escape"
               else begin
                 let code =
                   try int_of_string ("0x" ^ String.sub s !pos 4)
                   with _ -> fail "bad \\u escape"
                 in
                 pos := !pos + 4;
                 (* encode as UTF-8 (the escaper only emits control chars,
                    but accept the full BMP for robustness) *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                   Buffer.add_char buf
                     (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                 end
               end
             | c -> fail (Printf.sprintf "bad escape %C" c));
          go ()
        end
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
        advance ();
        digits ()
      | _ -> ()
    in
    digits ();
    (match peek () with
    | Some '.' ->
      is_float := true;
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    if tok = "" || tok = "-" then fail "bad number"
    else if !is_float then Float (float_of_string tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> Float (float_of_string tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string_body () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (elements [])
      end
    | Some '"' -> Str (parse_string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage" else v
  with Parse_error (p, msg) ->
    failwith (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

let parse (s : string) : (t, string) result =
  match parse_exn s with v -> Ok v | exception Failure msg -> Error msg

(* -------------------------------------------------------------- accessors *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_list = function List l -> Some l | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

(* ----------------------------------------------------- versioned envelopes *)

let schema_version = 1

let with_schema (fields : (string * t) list) : t =
  Obj (("schema", Int schema_version) :: fields)

let error ~code msg : t =
  Obj [ ("code", Str code); ("message", Str msg) ]
