(** Method-level source edits (see the interface). Every search walks the
    token array, which ends in [EOF], so the scans below stop there. *)

open Lexer

type t =
  | Replace_method of { cls : string; meth : string; body : string }
  | Add_method of { cls : string; meth_src : string }
  | Remove_method of { cls : string; meth : string }

(* index of the first [s] punctuation token at or after [i] *)
let rec next_punct toks s i =
  match toks.(i).tok with
  | PUNCT p when p = s -> Some i
  | EOF -> None
  | _ -> next_punct toks s (i + 1)

(* index of the '}' matching the '{' at [i] *)
let matching toks i =
  let rec go depth j =
    match toks.(j).tok with
    | PUNCT "{" -> go (depth + 1) (j + 1)
    | PUNCT "}" -> if depth = 1 then Some j else go (depth - 1) (j + 1)
    | EOF -> None
    | _ -> go depth (j + 1)
  in
  go 0 i

(* token indices of the braces around the body of [class cls] *)
let find_class toks cls =
  let rec go i =
    match toks.(i).tok with
    | EOF -> None
    | KW "class" when toks.(i + 1).tok = IDENT cls ->
      Option.bind (next_punct toks "{" (i + 2)) (fun o ->
          Option.map (fun c -> (o, c)) (matching toks o))
    | _ -> go (i + 1)
  in
  go 0

(* token indices (first token, body '{', body '}') of method [meth] declared
   directly in the class body between the tokens [o] and [c] *)
let find_method toks (o, c) meth =
  let rec go i depth start =
    if i >= c then None
    else
      match toks.(i).tok with
      | PUNCT "{" -> go (i + 1) (depth + 1) start
      | PUNCT "}" -> go (i + 1) (depth - 1) (if depth = 1 then i + 1 else start)
      | PUNCT ";" when depth = 0 -> go (i + 1) depth (i + 1)
      | IDENT m when depth = 0 && m = meth && toks.(i + 1).tok = PUNCT "(" -> (
        match next_punct toks ")" (i + 1) with
        | Some r when r + 1 < c && toks.(r + 1).tok = PUNCT "{" ->
          Option.map (fun e -> (start, r + 1, e)) (matching toks (r + 1))
        | _ -> go (i + 1) depth start)
      | _ -> go (i + 1) depth start
  in
  go (o + 1) 0 (o + 1)

let apply_one src e =
  let cls =
    match e with
    | Replace_method { cls; _ } | Add_method { cls; _ } | Remove_method { cls; _ }
      -> cls
  in
  match tokenize src with
  | exception Ast.Syntax_error (pos, msg) ->
    Error (Printf.sprintf "edit: %d:%d: %s" pos.Ast.line pos.col msg)
  | toks -> (
    let off i = toks.(i).off in
    (* [src] up to byte [a], and from byte [a] on *)
    let upto a = String.sub src 0 a in
    let from a = String.sub src a (String.length src - a) in
    let method_of body meth k =
      match find_method toks body meth with
      | Some m -> Ok (k m)
      | None -> Error (Printf.sprintf "edit: method %s.%s not found" cls meth)
    in
    match (find_class toks cls, e) with
    | None, _ -> Error (Printf.sprintf "edit: class %s not found" cls)
    | Some (_, c), Add_method { meth_src; _ } ->
      Ok (upto (off c) ^ "  " ^ meth_src ^ "\n" ^ from (off c))
    | Some b, Replace_method { meth; body; _ } ->
      method_of b meth (fun (_, bo, bc) ->
          upto (off bo + 1) ^ "\n" ^ body ^ "\n  " ^ from (off bc))
    | Some b, Remove_method { meth; _ } ->
      method_of b meth (fun (s, _, bc) -> upto (off s) ^ from (off bc + 1)))

let apply src edits =
  List.fold_left
    (fun acc e -> Result.bind acc (fun s -> apply_one s e))
    (Ok src) edits
