(** Method-level source edits for the analysis server's [update] request.

    An edit names a method by class and method name and replaces its body,
    adds a method to a class, or removes one. {!apply_edits} patches the
    MiniJava text; the patched source is then compiled and solved like any
    other program, through the session caches. *)

(* ------------------------------------------------------------- edits *)

type edit =
  | Replace_method of { cls : string; meth : string; body : string }
  | Add_method of { cls : string; meth_src : string }
  | Remove_method of { cls : string; meth : string }

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

(* index of the '}' matching the '{' at [open_i], skipping string literals
   and line comments *)
let match_brace src open_i : int option =
  let n = String.length src in
  let depth = ref 0 in
  let i = ref open_i in
  let res = ref (-1) in
  let in_str = ref false and in_cmt = ref false in
  while !res < 0 && !i < n do
    let c = src.[!i] in
    if !in_cmt then (if c = '\n' then in_cmt := false)
    else if !in_str then (if c = '"' then in_str := false)
    else begin
      match c with
      | '"' -> in_str := true
      | '/' when !i + 1 < n && src.[!i + 1] = '/' -> in_cmt := true
      | '{' -> incr depth
      | '}' ->
        decr depth;
        if !depth = 0 then res := !i
      | _ -> ()
    end;
    incr i
  done;
  if !res < 0 then None else Some !res

let skip_ws src i =
  let n = String.length src in
  let i = ref i in
  while !i < n && (src.[!i] = ' ' || src.[!i] = '\n' || src.[!i] = '\t' || src.[!i] = '\r') do
    incr i
  done;
  !i

(* (class_start, body_open, body_close) of [class <cls> ... { ... }] *)
let find_class src cls : (int * int * int) option =
  let n = String.length src in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i + 5 < n do
    if
      String.sub src !i 5 = "class"
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
      && not (is_ident_char src.[!i + 5])
    then begin
      let j = skip_ws src (!i + 5) in
      let k = ref j in
      while !k < n && is_ident_char src.[!k] do
        incr k
      done;
      if String.sub src j (!k - j) = cls then begin
        (* skip optional "extends X" up to the opening brace *)
        let b = ref !k in
        while !b < n && src.[!b] <> '{' do
          incr b
        done;
        if !b < n then
          match match_brace src !b with
          | Some e -> result := Some (!i, !b, e)
          | None -> ()
      end
    end;
    incr i
  done;
  !result

(* (header_start, body_open, body_close) of method [meth] declared directly
   in the class body spanning [cls_open+1 .. cls_close-1] *)
let find_method src ~cls_open ~cls_close meth : (int * int * int) option =
  let result = ref None in
  let depth = ref 0 in
  let i = ref (cls_open + 1) in
  let member_start = ref (cls_open + 1) in
  let in_str = ref false and in_cmt = ref false in
  let ml = String.length meth in
  while !result = None && !i < cls_close do
    let c = src.[!i] in
    if !in_cmt then begin
      (if c = '\n' then in_cmt := false);
      incr i
    end
    else if !in_str then begin
      (if c = '"' then in_str := false);
      incr i
    end
    else
      match c with
      | '"' ->
        in_str := true;
        incr i
      | '/' when !i + 1 < cls_close && src.[!i + 1] = '/' ->
        in_cmt := true;
        incr i
      | '{' ->
        incr depth;
        incr i
      | '}' ->
        decr depth;
        if !depth = 0 then member_start := skip_ws src (!i + 1);
        incr i
      | ';' when !depth = 0 ->
        member_start := skip_ws src (!i + 1);
        incr i
      | _
        when !depth = 0 && is_ident_char c
             && (!i = 0 || not (is_ident_char src.[!i - 1]))
             && !i + ml < cls_close
             && String.sub src !i ml = meth
             && not (is_ident_char src.[!i + ml]) -> (
        (* method name at class depth: expect '(' next (fields end in ';') *)
        let p = skip_ws src (!i + ml) in
        if p < cls_close && src.[p] = '(' then begin
          let q = ref p in
          while !q < cls_close && src.[!q] <> ')' do
            incr q
          done;
          let b = skip_ws src (!q + 1) in
          if b < cls_close && src.[b] = '{' then
            match match_brace src b with
            | Some e -> result := Some (!member_start, b, e)
            | None -> ()
          else i := !i + ml
        end
        else i := !i + ml)
      | _ -> incr i
  done;
  !result

let apply_edit (src : string) (e : edit) : (string, string) result =
  let cls_of = function
    | Replace_method { cls; _ } | Add_method { cls; _ } | Remove_method { cls; _ }
      -> cls
  in
  match find_class src (cls_of e) with
  | None -> Error (Printf.sprintf "edit: class %s not found" (cls_of e))
  | Some (_, copen, cclose) -> (
    match e with
    | Add_method { meth_src; _ } ->
      Ok
        (String.sub src 0 cclose
        ^ "  " ^ meth_src ^ "\n"
        ^ String.sub src cclose (String.length src - cclose))
    | Replace_method { cls; meth; body } -> (
      match find_method src ~cls_open:copen ~cls_close:cclose meth with
      | None -> Error (Printf.sprintf "edit: method %s.%s not found" cls meth)
      | Some (_, bopen, bclose) ->
        Ok
          (String.sub src 0 (bopen + 1)
          ^ "\n" ^ body ^ "\n  "
          ^ String.sub src bclose (String.length src - bclose)))
    | Remove_method { cls; meth } -> (
      match find_method src ~cls_open:copen ~cls_close:cclose meth with
      | None -> Error (Printf.sprintf "edit: method %s.%s not found" cls meth)
      | Some (hstart, _, bclose) ->
        Ok
          (String.sub src 0 hstart
          ^ String.sub src (bclose + 1) (String.length src - bclose - 1))))

let apply_edits (src : string) (edits : edit list) : (string, string) result =
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok s -> apply_edit s e)
    (Ok src) edits

(* ----------------------------------------------------- bench/perf shim *)

(* Kept only so that the frozen [bench/perf] still compiles unmodified: it
   reads these fields off [Session.update_result.up_info]. Every update is
   an ordinary solve, so [i_dirty_methods] and [i_reuse] are always 0.
   To be removed with the benchmark's next change. *)

type info = { i_dirty_methods : int; i_reuse : float }

let fresh_info = { i_dirty_methods = 0; i_reuse = 0. }

let info_json (i : info) : (string * Csc_obs.Json.t) list =
  [ ("dirty_methods", Csc_obs.Json.Int i.i_dirty_methods);
    ("reuse_pct", Csc_obs.Json.Float (100. *. i.i_reuse)) ]
