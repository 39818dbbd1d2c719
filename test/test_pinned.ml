(** Pinned outputs of the warm reads: the client answers a server renders
    from an already-solved program ([pt], [callgraph], [check]). Each
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

let program name =
  if Filename.check_suffix name ".mjava" then
    compile
      (In_channel.with_open_bin ("../examples/sample_programs/" ^ name)
         In_channel.input_all)
  else Csc_workloads.Suite.compile name

let test_program name () =
  let got = renderings (program name) in
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

let suite =
  [ ( "pinned.renders",
      List.map
        (fun name -> Alcotest.test_case name `Quick (test_program name))
        [ "nullbugs.mjava"; "findbugs"; "hsqldb" ] ) ]
