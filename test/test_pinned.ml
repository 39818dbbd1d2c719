(** Pinned outputs of the warm reads: the client answers a server renders
    from an already-solved program ([pt], [callgraph], [check]), plus the
    [explain] facts, which solve afresh with provenance on. Each
    rendering is pinned by the MD5 of its text, so an optimization of the
    exporters, the JSON printer or the checkers must keep every byte. The
    digests were recorded before those layers were optimized; a deliberate
    format change must update them. *)

open Helpers
module Run = Csc_driver.Run
module Export = Csc_driver.Export
module Json = Csc_obs.Json
module Checks = Csc_checks.Checks
module Diagnostic = Csc_checks.Diagnostic
module Explain = Csc_driver.Explain

let renderings (p : Ir.program) : (string * string) list =
  let o = Run.run_spec (Run.spec Run.Imp_csc) p in
  let r = Option.get o.Run.o_result in
  [ ("pts_json", Json.to_string (Export.pts_json p r));
    ("pts_json include_jdk", Json.to_string (Export.pts_json ~include_jdk:true p r));
    ("callgraph_dot", Export.callgraph_dot p r);
    ("check render_json", Diagnostic.render_json p (Checks.run_all p r)) ]

(* (program, rendering) -> MD5 hex of the rendered text *)
let pinned =
  [ (("nullbugs.mjava", "pts_json"),
     "9695c4e723c4afc267763c33a12cf4f1");
    (("nullbugs.mjava", "pts_json include_jdk"),
     "0422d936cd01bd3f619d540c61c92032");
    (("nullbugs.mjava", "callgraph_dot"),
     "58146a8b5ff0d4bef68ffad60df5844b");
    (("nullbugs.mjava", "check render_json"),
     "76c72267c183d55ea7083a43b87b8bc6");
    (("findbugs", "pts_json"),
     "d97734f1949897c6fb29039b20ebe747");
    (("findbugs", "pts_json include_jdk"),
     "8f90e555649810267e71e5ca6efe694f");
    (("findbugs", "callgraph_dot"),
     "cfeb6763a14da70a3b10ffd4cd074545");
    (("findbugs", "check render_json"),
     "30e0eab66f16db4c97b77cb34346e58c");
    (("hsqldb", "pts_json"),
     "6c662e57ffd09e3d939a785c18540977");
    (("hsqldb", "pts_json include_jdk"),
     "610a01226d88c65e0b0d17336b2d94d3");
    (("hsqldb", "callgraph_dot"),
     "16f3761ec583ccdaf0a13bdbe6c50f37");
    (("hsqldb", "check render_json"),
     "ca7b0e95712113ede7394ba6ea4ec3ae") ]

let test_program name () =
  let got = renderings (named_program name) in
  let mismatches =
    List.filter_map
      (fun (what, text) ->
        let md5 = Digest.to_hex (Digest.string text) in
        if List.assoc (name, what) pinned = md5 then None
        else Some (Printf.sprintf "%s %s: %s" name what md5))
      got
  in
  if mismatches <> [] then
    Alcotest.failf "renderings changed:\n%s" (String.concat "\n" mismatches)

(* The [pts_json] dump under the other imperative analyses, pinned the
   same way before the result projected points-to sets on read:
   (program, analysis) -> MD5. ci gives every variable one pointer and 2obj
   splits variables across contexts, so both ways a variable's set is
   kept until read are covered. hsqldb under 2obj outgrows the 4 GB heap
   cap, so findbugs stands in for it. *)
let pts_pinned =
  [ (("nullbugs.mjava", "ci"), "705e776ea899d00578bb54297614cd91");
    (("nullbugs.mjava", "2obj"), "9695c4e723c4afc267763c33a12cf4f1");
    (("findbugs", "2obj"), "7b9325f9fd9a374ac671b0f06ae37285");
    (("hsqldb", "ci"), "2f175bf66d041145bd7c1cd365e51518") ]

let test_pts name () =
  let p = named_program name in
  List.iter
    (fun ((n, a), md5) ->
      if n = name then
        match Run.analysis_of_string a with
        | Error e -> Alcotest.fail e
        | Ok an ->
          let r = Option.get (Run.run_spec (Run.spec an) p).Run.o_result in
          Alcotest.(check string) (name ^ " " ^ a) md5
            (Digest.to_hex
               (Digest.string (Json.to_string (Export.pts_json p r)))))
    pts_pinned

(* Explain facts rendered as the CLI prints them, pinned the same way:
   (program, analysis, var) -> MD5; var [None] is scan mode. Limit 5. *)
let explain_pinned =
  [ (("nullbugs.mjava", "ci", None), "7d7d8a0a21545e54743ce7daa32df0ed");
    (("nullbugs.mjava", "csc", None), "34c2c5cfefb4d12b88c95f1538f68dbf");
    (("nullbugs.mjava", "2obj", None), "83db7c7f384b08387e7b6ace271a3836");
    (("nullbugs.mjava", "csc", Some "main.j"),
     "dd258a98128b28f46f8e588c63840f74");
    (("nullbugs.mjava", "2obj", Some "main.j"),
     "1b1cd0ef34681881136fb06843da6542");
    (("findbugs", "ci", None), "b2090f8dbf2a5d110d575aa207821543");
    (("findbugs", "csc", None), "b2090f8dbf2a5d110d575aa207821543");
    (("findbugs", "2obj", None), "b2090f8dbf2a5d110d575aa207821543");
    (("findbugs", "csc", Some "op0_0.back"),
     "80901ea6cb71de82104fd594c5665ce8");
    (("findbugs", "2obj", Some "op0_0.back"),
     "f9f8561544f9a6f3afe89a07ff25bdfb");
    (* call-site and 3-object contexts render as [@ctxN]: their numbering
       is pinned here (2call reaches @ctx31) *)
    (("plugins.mjava", "2call", Some "bootAll.handle"),
     "511da4c0e7ebd603eb8abc6c8fef7855");
    (("plugins.mjava", "3obj", Some "bootAll.handle"),
     "9eacee70739afefb886d34df4a9b9b0f") ]

let render_facts facts =
  String.concat ""
    (List.map
       (fun (f : Explain.fact) ->
         Printf.sprintf "why %s -> %s:\n%s" f.x_ptr f.x_obj
           (String.concat "" (List.map (fun l -> "  " ^ l ^ "\n") f.x_chain)))
       facts)

let explain ?var a p =
  match Run.analysis_of_string a with
  | Error e -> Alcotest.fail e
  | Ok a -> Csc_server.Query.explain ?var ~limit:5 (Run.spec a) p

let test_explain name () =
  let p = named_program name in
  List.iter
    (fun ((n, a, var), md5) ->
      if n = name then
        Alcotest.(check string)
          (Printf.sprintf "%s %s %s" name a (Option.value ~default:"-" var))
          md5
          (Digest.to_hex (Digest.string (render_facts (explain ?var a p)))))
    explain_pinned

let test_explain_errors () =
  let p = named_program "nullbugs.mjava" in
  let error a =
    match explain a p with
    | _ -> Alcotest.failf "explain under %s should fail" a
    | exception Csc_server.Query.Reject ("bad-request", e) -> e
  in
  Alcotest.(check string) "zipper-e"
    "explain: zipper-e is two staged solves; explain its base instead"
    (error "zipper-e");
  Alcotest.(check string) "doop-csc"
    "explain: \"doop-csc\" runs on the Datalog engine, which has no \
     provenance recorder (imperative analyses only)"
    (error "doop-csc")

(* Datalog outputs, pinned the same way before the engine's join planner
   was rewritten: (program, analysis) -> MD5 of the [pts_json] dump, MD5
   of the callgraph DOT with its lines sorted (tuple iteration order may
   change, the content may not), the engine's derived-tuple count, its
   scanned-candidate count, its head instantiations ([emits], duplicates
   included) and the tuples its delta steps visit ([delta_tuples]). The
   scan count pins the join plans: a faster relation store must probe the
   same tuples in the same order; with emits and delta tuples it pins the
   evaluator's whole work, so a faster evaluator must do the same. The
   doop-2type, doop-zipper-e and doop-2obj cells cover the
   context-sensitive rules and the [mkobj]/[calleectx]/[staticctx]
   builtins. *)
let datalog_pinned =
  [ (("findbugs", Run.Doop_ci),
     ("1708df97ecbe9d4f5a8eca3f7219c510", "27e0c8366eb41c6888012920c616a62c",
      74254, 300025,
      134707, 661839));
    (("findbugs", Run.Doop_csc),
     ("118ca8748c94940d0baef550b5e3857b", "e56c5d07bf1a9acdd0367f5193e25f85",
      21388, 148160,
      43035, 283507));
    (("findbugs", Run.Doop_2type),
     ("5daedfe95c58ef68abf243cdd072e0a1", "c48031086e067cf9733f7ea3c9846891",
      77749, 376910,
      167138, 708219));
    (("findbugs", Run.Doop_zipper),
     ("ba6e3716a12eeaa5cad0458c46641095", "46f70fe0405ba8bcf28dfaacdf78e694",
      30779, 175569,
      114676, 242270));
    (("hsqldb", Run.Doop_ci),
     ("2f175bf66d041145bd7c1cd365e51518", "cda3b447e5f71a656aba8ff240a80c20",
      476936, 1953957,
      922117, 4127680));
    (("hsqldb", Run.Doop_csc),
     ("dac0a64fd8937e2b0fe0cb9ffa289f73", "f95d3de4fb6bda0fdc2501dc5883f54d",
      227202, 1541740,
      482358, 2977535));
    (("nullbugs.mjava", Run.Doop_2obj),
     ("9695c4e723c4afc267763c33a12cf4f1", "eb5f06618fa27599d6341f7e012f9f73",
      109, 662,
      197, 878));
    (("plugins.mjava", Run.Doop_2obj),
     ("82d8fca8e83ac5ea14e1fd63304367cc", "df8821b4f74095fcee41b2023168194f",
      212, 958,
      307, 1758)) ]

let sorted_lines s =
  String.split_on_char '\n' s |> List.sort String.compare |> String.concat "\n"

let test_datalog name () =
  let p = named_program name in
  List.iter
    (fun ((n, a), (pts, dot, derived, scans, emits, delta)) ->
      if n = name then begin
        let o = Run.run_spec (Run.spec a) p in
        let r = Option.get o.Run.o_result in
        let what = name ^ " " ^ Run.name a in
        let md5 s = Digest.to_hex (Digest.string s) in
        let counter k =
          Csc_obs.Snapshot.counter_value r.Csc_pta.Solver.r_snapshot k
        in
        Alcotest.(check string) (what ^ " pts") pts
          (md5 (Json.to_string (Export.pts_json p r)));
        Alcotest.(check string) (what ^ " dot") dot
          (md5 (sorted_lines (Export.callgraph_dot p r)));
        Alcotest.(check (option int)) (what ^ " derived") (Some derived)
          (counter "derived");
        Alcotest.(check (option int)) (what ^ " scans") (Some scans)
          (counter "scans");
        Alcotest.(check (option int)) (what ^ " emits") (Some emits)
          (counter "emits");
        Alcotest.(check (option int)) (what ^ " delta_tuples") (Some delta)
          (counter "delta_tuples")
      end)
    datalog_pinned

(* The frontend's output, pinned before the lexer became a pull lexer and
   the resolver's member lists became hash tables: MD5 of
   [Ir.pp_program] for every suite program and sample program. The
   digests were recorded on the commit before that rewrite; compiling must
   keep every byte. *)
let frontend_pinned =
  [ ("hsqldb", "cb642bbccd6617a696e4410b6f24b920");
    ("findbugs", "b83b031f02264c75f67a838c700af3b2");
    ("eclipse", "47d5be1605ac54c02cd255dac9fcb925");
    ("jedit", "71a5f0f5a37f73d159ed2a0d737b0e7f");
    ("jython", "15edb420427e3a9a9c84b0261ef07fb6");
    ("freecol", "7c541bb79542e33943a34cd722f05b5a");
    ("briss", "032b315dd99e3e949c52cdf6d3e3d4fa");
    ("soot", "7e6b160f7953d3440cbc62f6bed9dab7");
    ("columba", "77d32d2d365640db2ddd8dc12fe1f3f1");
    ("gruntspud", "da8022ef17dfc612d2fa7de639bcefcd");
    ("nullbugs.mjava", "630d5b226f5fa9f60499c9700f64b216");
    ("plugins.mjava", "846661804f2073e1989cb419930e09c8") ]

let test_frontend name () =
  Alcotest.(check string) name (List.assoc name frontend_pinned)
    (Digest.to_hex
       (Digest.string (Fmt.str "%a" Ir.pp_program (named_program name))))

(* Malformed inputs and the exact [Syntax_error] each raises, recorded on
   the same commit: (what, source, line, col, message). *)
let frontend_errors =
  [ ("bad character",
     "class Main {\n  static void main() {\n    int x = 1 # 2;\n  }\n}\n",
     3, 15, "unexpected character '#'");
    ("unterminated string",
     "class Main {\n  static void main() {\n    String s = \"abc;\n  }\n}\n",
     3, 16, "unterminated string literal");
    ("unterminated comment",
     "class Main {\n  /* never closed\n  static void main() { }\n}\n",
     2, 3, "unterminated comment");
    ("missing semicolon",
     "class Main {\n  static void main() {\n    int x = 1\n  }\n}\n",
     4, 3, "expected \";\" but found \"}\"");
    ("missing brace at EOF",
     "class Main {\n  static void main() {\n  }\n",
     4, 1, "expected a type but found end of input");
    ("malformed cast",
     "class Main {\n  static void main() {\n    Object o = (Object[) x;\n  }\n}\n",
     3, 24, "expected an expression but found \")\"") ]

let test_frontend_errors () =
  let got (what, src, _, _, _) =
    match Csc_lang.Parser.parse_program src with
    | _ -> Alcotest.failf "%s: parsed" what
    | exception Csc_lang.Ast.Syntax_error (pos, m) -> (what, pos.line, pos.col, m)
  in
  let show (what, line, col, m) = Printf.sprintf "%s: %d:%d: %s" what line col m in
  Alcotest.(check (list string)) "errors"
    (List.map (fun (w, _, l, c, m) -> show (w, l, c, m)) frontend_errors)
    (List.map (fun e -> show (got e)) frontend_errors)

(* The imperative engine's work counters, pinned before the solver's
   tables and per-object caches were rewritten: (program, analysis) -> one
   line of [name=value] pairs, the CSC shortcut counter split by pattern.
   A change to the solver's inner loops must keep every count. *)
let counter_names =
  [ "ptrs"; "pfg_edges"; "propagated"; "wl_pushes"; "wl_coalesced";
    "cs_call_edges"; "ctx_methods" ]

let counters_line (s : Csc_obs.Snapshot.t) =
  let v n =
    Option.value ~default:(-1) (Csc_obs.Snapshot.counter_value s n)
  in
  String.concat " "
    (List.map (fun n -> Printf.sprintf "%s=%d" n (v n)) counter_names
    @ List.filter_map
        (fun p ->
          Csc_obs.Snapshot.counter_value ~labels:[ ("pattern", p) ] s
            "csc_shortcuts"
          |> Option.map (Printf.sprintf "sc_%s=%d" p))
        [ "store"; "load"; "relay"; "container"; "lflow" ])

let counters_pinned =
  [
    (("hsqldb", "ci"),
     "ptrs=2646 pfg_edges=3365 propagated=386198 wl_pushes=52184 wl_coalesced=46419 cs_call_edges=2072 ctx_methods=310");
    (("hsqldb", "csc"),
     "ptrs=2644 pfg_edges=96992 propagated=134905 wl_pushes=112720 wl_coalesced=109621 cs_call_edges=2066 ctx_methods=309 sc_store=1162 sc_load=87015 sc_relay=11 sc_container=36166 sc_lflow=24");
    (("findbugs", "ci"),
     "ptrs=1840 pfg_edges=2370 propagated=66082 wl_pushes=7715 wl_coalesced=4548 cs_call_edges=1082 ctx_methods=273");
    (("findbugs", "csc"),
     "ptrs=1798 pfg_edges=8387 propagated=12227 wl_pushes=10091 wl_coalesced=8158 cs_call_edges=1067 ctx_methods=271 sc_store=479 sc_load=5834 sc_relay=10 sc_container=2501 sc_lflow=38");
    (("jedit", "ci"),
     "ptrs=2981 pfg_edges=3814 propagated=141634 wl_pushes=12503 wl_coalesced=6882 cs_call_edges=1790 ctx_methods=464");
    (("jedit", "csc"),
     "ptrs=2951 pfg_edges=12088 propagated=18178 wl_pushes=14690 wl_coalesced=11554 cs_call_edges=1700 ctx_methods=455 sc_store=777 sc_load=8116 sc_relay=32 sc_container=3443 sc_lflow=96");
    (("soot", "ci"),
     "ptrs=14231 pfg_edges=19696 propagated=4490090 wl_pushes=156618 wl_coalesced=128020 cs_call_edges=9497 ctx_methods=1810");
    (("soot", "csc"),
     "ptrs=13831 pfg_edges=252985 propagated=369858 wl_pushes=296269 wl_coalesced=280971 cs_call_edges=8868 ctx_methods=1785 sc_store=4406 sc_load=218306 sc_relay=149 sc_container=91387 sc_lflow=398");
    (("findbugs", "2type"),
     "ptrs=4152 pfg_edges=4282 propagated=64026 wl_pushes=11448 wl_coalesced=6166 cs_call_edges=2227 ctx_methods=764");
    (("findbugs", "2call"),
     "ptrs=7097 pfg_edges=9875 propagated=191292 wl_pushes=23329 wl_coalesced=14363 cs_call_edges=1778 ctx_methods=1539");
    (("nullbugs.mjava", "2obj"),
     "ptrs=73 pfg_edges=50 propagated=63 wl_pushes=59 wl_coalesced=6 cs_call_edges=15 ctx_methods=16");
    (("plugins.mjava", "2obj"),
     "ptrs=133 pfg_edges=101 propagated=135 wl_pushes=121 wl_coalesced=10 cs_call_edges=26 ctx_methods=25") ]

let test_counters name () =
  let p = named_program name in
  List.iter
    (fun ((n, a), want) ->
      if n = name then
        match Run.analysis_of_string a with
        | Error e -> Alcotest.fail e
        | Ok an ->
          let o = Run.run_spec (Run.spec an) p in
          let r = Option.get o.Run.o_result in
          Alcotest.(check string) (name ^ " " ^ a) want
            (counters_line r.Csc_pta.Solver.r_snapshot))
    counters_pinned

let suite =
  [ ( "pinned.renders",
      List.map
        (fun name -> Alcotest.test_case name `Quick (test_program name))
        [ "nullbugs.mjava"; "findbugs"; "hsqldb" ]
      @ List.map
          (fun name ->
            Alcotest.test_case ("pts " ^ name) `Quick (test_pts name))
          [ "nullbugs.mjava"; "findbugs"; "hsqldb" ]
      @ List.map
          (fun name ->
            Alcotest.test_case ("explain " ^ name) `Quick (test_explain name))
          [ "nullbugs.mjava"; "findbugs"; "plugins.mjava" ]
      @ [ Alcotest.test_case "explain errors" `Quick test_explain_errors ] );
    ( "pinned.datalog",
      List.map
        (fun name -> Alcotest.test_case name `Quick (test_datalog name))
        [ "findbugs"; "hsqldb"; "nullbugs.mjava"; "plugins.mjava" ] );
    ( "pinned.frontend",
      List.map
        (fun (name, _) -> Alcotest.test_case name `Quick (test_frontend name))
        frontend_pinned
      @ [ Alcotest.test_case "syntax errors" `Quick test_frontend_errors ] );
    ( "pinned.counters",
      List.map
        (fun name -> Alcotest.test_case name `Quick (test_counters name))
        [ "hsqldb"; "findbugs"; "jedit"; "soot"; "nullbugs.mjava";
          "plugins.mjava" ] ) ]
