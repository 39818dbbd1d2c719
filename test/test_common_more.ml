(** Additional unit + property tests for Vec, Inttbl, Domains_compat and
    parser precedence / disambiguation corners. *)

open Csc_common

(* ----------------------------------------------------------------- Vec *)

let test_vec_basic () =
  let v = Vec.create 0 in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Vec.push v 10;
  Vec.push v 20;
  Alcotest.(check int) "len" 2 (Vec.length v);
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check int) "set" 99 (Vec.get v 0);
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Vec.to_list v)

let test_vec_growth_and_bounds () =
  let v = Vec.create ~capacity:1 0 in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check int) "len" 1000 (Vec.length v);
  Alcotest.(check int) "last" 999 (Vec.get v 999);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 1000));
  Alcotest.(check int) "get_or default" 0 (Vec.get_or v 5000)

let test_vec_set_grow () =
  let v = Vec.create (-1) in
  Vec.set_grow v 5 42;
  Alcotest.(check int) "len grows" 6 (Vec.length v);
  Alcotest.(check int) "filled with dummy" (-1) (Vec.get v 2);
  Alcotest.(check int) "value" 42 (Vec.get v 5)

let test_vec_pop () =
  let v = Vec.of_list 0 [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  Alcotest.(check int) "len" 2 (Vec.length v);
  Vec.clear v;
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let prop_vec_model =
  QCheck2.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck2.Gen.(list (int_bound 1000))
    (fun l ->
      let v = Vec.of_list (-1) l in
      Vec.to_list v = l
      && Vec.length v = List.length l
      && Vec.fold (fun acc x -> acc + x) 0 v = List.fold_left ( + ) 0 l)

(* ---------------------------------------------------------------- Inttbl *)

(* keys the analyses pack: small ids, (src lsl 31) lor dst edge keys, and
   tagged pointer keys up to 2^61 *)
let gen_key =
  QCheck2.Gen.(
    oneof
      [
        int_bound 300;
        map2 (fun a b -> (a lsl 31) lor b) (int_bound 1_000_000) (int_bound 64);
        map2 (fun p tag -> (p lsl 2) lor tag) (int_bound (1 lsl 59)) (int_bound 3);
      ])

(* [add] and [replace] both bind last-write-wins, as [Hashtbl.replace] *)
let gen_binding = QCheck2.Gen.(pair bool (pair gen_key small_nat))

let prop_inttbl_model =
  QCheck2.Test.make ~name:"inttbl agrees with stdlib Hashtbl" ~count:200
    QCheck2.Gen.(list_size (int_range 0 3000) gen_binding)
    (fun ops ->
      (* size 1: a long sequence grows the table through many resizes *)
      let t = Inttbl.create 1 and m = Hashtbl.create 1 in
      let agree k =
        Inttbl.find_opt t k = Hashtbl.find_opt m k
        && Inttbl.mem t k = Hashtbl.mem m k
        && (match Inttbl.find t k with
           | v -> Hashtbl.find_opt m k = Some v
           | exception Not_found -> not (Hashtbl.mem m k))
      in
      List.for_all
        (fun (replace, (k, v)) ->
          if replace then Inttbl.replace t k v else Inttbl.add t k v;
          Hashtbl.replace m k v;
          agree k && agree (k + 1))
        ops
      && Inttbl.length t = Hashtbl.length m
      && Hashtbl.fold (fun k _ ok -> ok && agree k) m true)

let prop_inttbl_set_model =
  QCheck2.Test.make ~name:"inttbl set agrees with stdlib Hashtbl" ~count:200
    QCheck2.Gen.(list_size (int_range 0 3000) gen_key)
    (fun keys ->
      let s = Inttbl.Set.create 1 and m = Hashtbl.create 1 in
      List.for_all
        (fun k ->
          let fresh = not (Hashtbl.mem m k) in
          Hashtbl.replace m k ();
          Inttbl.Set.add s k = fresh
          && Inttbl.Set.mem s k
          && Inttbl.Set.mem s (k + 1) = Hashtbl.mem m (k + 1))
        keys
      && Inttbl.Set.length s = Hashtbl.length m
      && Hashtbl.fold (fun k () ok -> ok && Inttbl.Set.mem s k) m true)

(* [-1] marks a free slot, so a negative key must never reach a probe *)
let test_inttbl_negative_keys () =
  let t = Inttbl.create 4 and s = Inttbl.Set.create 4 in
  let raises what f =
    Alcotest.check_raises what (Invalid_argument "Inttbl: negative key")
      (fun () -> ignore (f ()))
  in
  List.iter
    (fun k ->
      raises "replace" (fun () -> Inttbl.replace t k 0);
      raises "add" (fun () -> Inttbl.add t k 0);
      raises "find_opt" (fun () -> Inttbl.find_opt t k);
      raises "find" (fun () -> Inttbl.find t k);
      raises "mem" (fun () -> Inttbl.mem t k);
      raises "set add" (fun () -> Inttbl.Set.add s k);
      raises "set mem" (fun () -> Inttbl.Set.mem s k))
    [ -1; -2; min_int ];
  Alcotest.(check int) "nothing bound" 0 (Inttbl.length t + Inttbl.Set.length s)

(* edge keys that differ only above bit 31 must not pile up in one probe
   run: the table picks slots by the hash's low bits, so an identity hash
   would put all of them behind one home slot *)
let test_inttbl_spreads_packed_keys () =
  let t = Inttbl.create 16 and s = Inttbl.Set.create 16 in
  for src = 0 to 9_999 do
    Inttbl.add t ((src lsl 31) lor 7) ();
    ignore (Inttbl.Set.add s ((src lsl 31) lor 7))
  done;
  Alcotest.(check int) "all bound" 10_000 (Inttbl.length t);
  Alcotest.(check int) "all in the set" 10_000 (Inttbl.Set.length s);
  List.iter
    (fun (what, probe) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: longest probe %d" what probe)
        true (probe <= 32))
    [ ("table", Inttbl.max_probe t); ("set", Inttbl.Set.max_probe s) ]

(* ---------------------------------------------------------------- parser *)

let output src = (Csc_interp.Interp.run (Helpers.compile src)).output

let test_precedence () =
  let src =
    {|
class Main {
  static void main() {
    System.print(2 + 3 * 4);
    System.print((2 + 3) * 4);
    System.print(10 - 4 - 3);       // left assoc
    System.print(1 + 2 == 3);
    System.print(true || false && false);  // && binds tighter
    System.print(!(1 > 2));
    System.print(-3 + 5);
    System.print(7 % 3);
  }
}
|}
  in
  Alcotest.(check (list string)) "precedence"
    [ "14"; "20"; "3"; "true"; "true"; "true"; "2"; "1" ]
    (output src)

let test_cast_vs_paren_disambiguation () =
  let src =
    {|
class A { int v() { return 7; } }
class Main {
  static void main() {
    Object o = new A();
    A a = (A) o;              // cast
    int x = (1 + 2) * 2;      // parenthesized expr
    int y = (x) + 1;          // parens around a variable
    System.print(a.v());
    System.print(x);
    System.print(y);
  }
}
|}
  in
  Alcotest.(check (list string)) "disambiguation" [ "7"; "6"; "7" ] (output src)

let test_comments_and_strings () =
  let src =
    {|
class Main {
  // line comment with "quotes" and (T) casts
  /* block comment
     spanning lines */
  static void main() {
    System.print("semi ; colon // not a comment");
    System.print("esc\t\"quoted\"");
  }
}
|}
  in
  Alcotest.(check int) "two prints" 2 (List.length (output src))

let test_else_if_chain () =
  let src =
    {|
class Main {
  static int classify(int n) {
    if (n < 0) { return 0; }
    else if (n == 0) { return 1; }
    else if (n < 10) { return 2; }
    else { return 3; }
  }
  static void main() {
    System.print(Main.classify(-5));
    System.print(Main.classify(0));
    System.print(Main.classify(5));
    System.print(Main.classify(50));
  }
}
|}
  in
  Alcotest.(check (list string)) "else-if" [ "0"; "1"; "2"; "3" ] (output src)

let test_nested_calls_args () =
  let src =
    {|
class Main {
  static int add(int a, int b) { return a + b; }
  static void main() {
    System.print(Main.add(Main.add(1, 2), Main.add(3, Main.add(4, 5))));
  }
}
|}
  in
  Alcotest.(check (list string)) "nested args" [ "15" ] (output src)

let test_error_positions () =
  (* syntax errors carry line information *)
  let src = "class A {\n  void m() {\n    x =;\n  }\n}" in
  match Csc_lang.Parser.parse_program src with
  | _ -> Alcotest.fail "expected syntax error"
  | exception Csc_lang.Ast.Syntax_error (pos, _) ->
    Alcotest.(check int) "line 3" 3 pos.line

(* ------------------------------------------------------- Domains_compat *)

let test_recommended () =
  Alcotest.(check bool)
    "recommended >= 1" true
    (Domains_compat.recommended () >= 1)

let suite =
  [
    ( "common.vec",
      [
        Alcotest.test_case "basic" `Quick test_vec_basic;
        Alcotest.test_case "growth & bounds" `Quick test_vec_growth_and_bounds;
        Alcotest.test_case "set_grow" `Quick test_vec_set_grow;
        Alcotest.test_case "pop" `Quick test_vec_pop;
        QCheck_alcotest.to_alcotest prop_vec_model;
      ] );
    ( "common.inttbl",
      [
        QCheck_alcotest.to_alcotest prop_inttbl_model;
        QCheck_alcotest.to_alcotest prop_inttbl_set_model;
        Alcotest.test_case "negative keys rejected" `Quick
          test_inttbl_negative_keys;
        Alcotest.test_case "packed keys spread" `Quick
          test_inttbl_spreads_packed_keys;
      ] );
    ( "common.domains",
      [
        Alcotest.test_case "recommended domain count" `Quick test_recommended;
      ] );
    ( "lang.parser",
      [
        Alcotest.test_case "precedence" `Quick test_precedence;
        Alcotest.test_case "cast vs parens" `Quick test_cast_vs_paren_disambiguation;
        Alcotest.test_case "comments & strings" `Quick test_comments_and_strings;
        Alcotest.test_case "else-if chains" `Quick test_else_if_chain;
        Alcotest.test_case "nested call args" `Quick test_nested_calls_args;
        Alcotest.test_case "error positions" `Quick test_error_positions;
      ] );
  ]
