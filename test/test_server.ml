(** Tests for the analysis-server stack: the analysis-name grammar, the
    session cache (hits, misses, digest keying, LRU eviction), the NDJSON
    request router, and one fork-based round-trip over a real unix socket. *)

open Helpers
module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Export = Csc_driver.Export
module Server = Csc_server.Server
module Client = Csc_server.Client
module Json = Csc_obs.Json

(* ------------------------------------------------------------ JSON probes *)

let parse s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "reply is not JSON (%s): %s" e s

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "reply has no %S member: %s" k (Json.to_string j)

let get_bool j = Option.get (Json.get_bool j)
let get_int j = Option.get (Json.get_int j)
let get_str j = Option.get (Json.get_string j)

(* Every reply must carry the versioned envelope. *)
let check_envelope j =
  Alcotest.(check int) "schema" Json.schema_version (get_int (member "schema" j))

let ok_reply s =
  let j = parse s in
  check_envelope j;
  Alcotest.(check bool) ("ok: " ^ s) true (get_bool (member "ok" j));
  j

let error_reply ~code s =
  let j = parse s in
  check_envelope j;
  Alcotest.(check bool) "not ok" false (get_bool (member "ok" j));
  Alcotest.(check string) "error code" code
    (get_str (member "code" (member "error" j)));
  j

(* a request with the carton fixture inlined, so tests never depend on the
   workload suite's compile time *)
let req ?(source = Fixtures.carton) cmd extra =
  Printf.sprintf "{\"cmd\": %S, \"source\": %S, \"analysis\": \"csc\"%s}" cmd
    source
    (if extra = "" then "" else ", " ^ extra)

(* ---------------------------------------------------------------- grammar *)

let test_grammar_roundtrip () =
  List.iter
    (fun n ->
      match Run.analysis_of_string n with
      | Error e -> Alcotest.failf "canonical name %s rejected: %s" n e
      | Ok a -> Alcotest.(check string) ("roundtrip " ^ n) n (Run.name a))
    Run.analysis_names

let test_grammar_forms () =
  let ok s a =
    Alcotest.(check bool) ("parse " ^ s) true (Run.analysis_of_string s = Ok a)
  in
  ok "kobj:3" (Run.Imp_kobj 3);
  ok "3obj" (Run.Imp_kobj 3);
  ok "kobj:2" Run.Imp_2obj;
  ok "ktype:2" Run.Imp_2type;
  ok "kcall:1" (Run.Imp_kcall 1);
  ok "doop:csc" Run.Doop_csc;
  ok "doop-csc" Run.Doop_csc;
  ok "no-collapse:csc" (Run.Imp_no_collapse Run.Imp_csc)

let test_grammar_errors () =
  let bad s =
    match Run.analysis_of_string s with
    | Ok _ -> Alcotest.failf "%s should not parse" s
    | Error e ->
      Alcotest.(check bool) ("error mentions input: " ^ s) true
        (String.length e > 0)
  in
  bad "bogus";
  bad "kobj:0";
  bad "kobj:x";
  bad "0obj";
  bad "doop:bogus";
  bad "no-collapse:doop:csc"

(* ---------------------------------------------------------------- session *)

let test_run_spec_equals_run () =
  let p = compile Fixtures.carton in
  let a = Run.run p Run.Imp_csc in
  let b = Run.run_spec (Run.spec Run.Imp_csc) p in
  Alcotest.(check bool) "same metrics" true (a.Run.o_metrics = b.Run.o_metrics);
  Alcotest.(check string) "same name" a.Run.o_analysis b.Run.o_analysis

let test_session_hit_miss () =
  let s = Session.create () in
  let p, digest =
    match Session.load_source s ~name:"carton" Fixtures.carton with
    | Ok pd -> pd
    | Error e -> Alcotest.fail e
  in
  let spec = Run.spec Run.Imp_csc in
  let _, c1 = Session.outcome s ~digest spec p in
  let _, c2 = Session.outcome s ~digest spec p in
  Alcotest.(check bool) "first is a miss" false c1;
  Alcotest.(check bool) "second is a hit" true c2;
  Alcotest.(check int) "hits" 1 (Session.hits s);
  Alcotest.(check int) "misses" 1 (Session.misses s);
  (* a progress cadence cannot change the outcome, so it must not miss *)
  let _, c3 =
    Session.outcome s ~digest { spec with Run.sp_progress_s = Some 5. } p
  in
  Alcotest.(check bool) "progress_s not in the key" true c3;
  (* a different analysis is a different key *)
  let _, c4 = Session.outcome s ~digest (Run.spec Run.Imp_ci) p in
  Alcotest.(check bool) "other analysis misses" false c4

let test_session_digest_change () =
  let s = Session.create () in
  let load src =
    match Session.load_source s ~name:"t" src with
    | Ok pd -> pd
    | Error e -> Alcotest.fail e
  in
  let p1, d1 = load Fixtures.carton in
  let p2, d2 = load Fixtures.nested in
  Alcotest.(check bool) "digests differ" true (d1 <> d2);
  let spec = Run.spec Run.Imp_csc in
  let _, _ = Session.outcome s ~digest:d1 spec p1 in
  let _, c = Session.outcome s ~digest:d2 spec p2 in
  Alcotest.(check bool) "edited source misses" false c;
  (* same source text again: digest and program cache both hit *)
  let p1', d1' = load Fixtures.carton in
  Alcotest.(check string) "digest stable" d1 d1';
  Alcotest.(check bool) "compiled program reused" true (p1 == p1')

let test_session_eviction () =
  (* a 1-byte bound can hold nothing, but the cache must still serve the
     just-inserted entry and never drop below one resident result *)
  let s = Session.create ~max_mem_bytes:1 () in
  let p, digest =
    match Session.load_source s ~name:"carton" Fixtures.carton with
    | Ok pd -> pd
    | Error e -> Alcotest.fail e
  in
  let _ = Session.outcome s ~digest (Run.spec Run.Imp_csc) p in
  let _ = Session.outcome s ~digest (Run.spec Run.Imp_ci) p in
  let _ = Session.outcome s ~digest (Run.spec Run.Imp_2obj) p in
  Alcotest.(check bool) "evictions happened" true (Session.evictions s >= 1);
  Alcotest.(check bool) "at least one entry kept" true (Session.entries s >= 1);
  Alcotest.(check bool) "bounded" true (Session.entries s <= 2)

(* ----------------------------------------------------------------- router *)

let test_protocol_all_commands () =
  let t = Server.create () in
  let h line = Server.handle_line t line in
  (* analyze: cold then warm *)
  let j = ok_reply (h (req "analyze" "")) in
  Alcotest.(check bool) "cold" false (get_bool (member "cached" j));
  Alcotest.(check string) "analysis" "csc"
    (get_str (member "analysis" (member "result" j)));
  let j = ok_reply (h (req "analyze" "")) in
  Alcotest.(check bool) "warm" true (get_bool (member "cached" j));
  Alcotest.(check bool) "session counted the hit" true
    (Session.hits (Server.session t) >= 1);
  (* pt *)
  let j = ok_reply (h (req "pt" "\"var\": \"main.result1\"")) in
  (match Json.get_list (member "vars" (member "result" j)) with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "pt returned no vars");
  (* callgraph *)
  let j = ok_reply (h (req "callgraph" "")) in
  let dot = get_str (member "dot" (member "result" j)) in
  Alcotest.(check bool) "dot is a digraph" true
    (Astring.String.is_prefix ~affix:"digraph" dot);
  (* check / taint / explain / profile *)
  let j = ok_reply (h (req "check" "")) in
  Alcotest.(check bool) "check count >= 0" true
    (get_int (member "count" (member "result" j)) >= 0);
  let j = ok_reply (h (req "taint" "")) in
  Alcotest.(check bool) "taint count >= 0" true
    (get_int (member "count" (member "result" j)) >= 0);
  let j = ok_reply (h (req "explain" "\"var\": \"main.result1\"")) in
  (match Json.get_list (member "facts" (member "result" j)) with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "explain returned no facts");
  let j = ok_reply (h (req "profile" "")) in
  Alcotest.(check bool) "profile present" true
    (member "profile" (member "result" j) <> Json.Null);
  (* stats *)
  let j = ok_reply (h "{\"cmd\": \"stats\"}") in
  let sess = member "session" (member "result" j) in
  Alcotest.(check bool) "stats hits >= 1" true (get_int (member "hits" sess) >= 1);
  Alcotest.(check bool) "requests counted" true
    (get_int (member "requests" (member "result" j)) >= 8);
  (* shutdown *)
  Alcotest.(check bool) "running" false (Server.stopped t);
  let _ = ok_reply (h "{\"cmd\": \"shutdown\"}") in
  Alcotest.(check bool) "stopped" true (Server.stopped t)

let test_protocol_pt_matches_batch () =
  let t = Server.create () in
  let j = ok_reply (Server.handle_line t (req "pt" "\"var\": \"main.result1\"")) in
  let server_vars = Json.to_string (member "vars" (member "result" j)) in
  let p = compile Fixtures.carton in
  let o = Run.run_spec (Run.spec Run.Imp_csc) p in
  let batch_vars =
    Json.to_string
      (Export.pts_json ~var:"main.result1" ~include_jdk:false p
         (Option.get o.Run.o_result))
  in
  Alcotest.(check string) "batch and server agree" batch_vars server_vars

let test_protocol_errors () =
  let t = Server.create () in
  let h line = Server.handle_line t line in
  let _ = error_reply ~code:"parse" (h "this is not json") in
  let _ = error_reply ~code:"bad-request" (h "{\"analysis\": \"csc\"}") in
  let _ = error_reply ~code:"unknown-cmd" (h "{\"cmd\": \"frobnicate\"}") in
  let _ =
    error_reply ~code:"bad-request"
      (h "{\"cmd\": \"analyze\", \"program\": \"findbugs\", \"analysis\": \
          \"bogus\"}")
  in
  let _ =
    error_reply ~code:"not-found"
      (h "{\"cmd\": \"analyze\", \"program\": \"no-such-program\"}")
  in
  let _ =
    error_reply ~code:"compile"
      (h "{\"cmd\": \"analyze\", \"source\": \"class { woops\"}")
  in
  let j =
    error_reply ~code:"bad-request"
      (h
         (Printf.sprintf
            "{\"cmd\": \"analyze\", \"program\": \"findbugs\", \"source\": %S, \
             \"id\": 42}"
            Fixtures.carton))
  in
  (* the id must be echoed even on errors *)
  Alcotest.(check int) "id echoed" 42 (get_int (member "id" j));
  (* none of the failures may count as served work gone wrong *)
  Alcotest.(check bool) "server still up" false (Server.stopped t)

(* a checker the server does not know is the client's mistake: it must
   answer bad-request, and the same server must keep serving *)
let test_protocol_bad_checks () =
  let t = Server.create () in
  let h line = Server.handle_line t line in
  let j = error_reply ~code:"bad-request" (h (req "check" "\"checks\": [\"nope\"]")) in
  Alcotest.(check bool) "names the checker" true
    (Astring.String.is_infix ~affix:"nope"
       (get_str (member "message" (member "error" j))));
  let _ = error_reply ~code:"bad-request" (h (req "check" "\"checks\": [1]")) in
  let _ =
    error_reply ~code:"bad-request" (h (req "check" "\"checks\": \"fail-cast\""))
  in
  let _ = ok_reply (h (req "check" "\"checks\": null")) in
  let j = ok_reply (h (req "check" "\"checks\": [\"fail-cast\", \"dead-store\"]")) in
  let res = member "result" j in
  let ds = Option.get (Json.get_list (member "diagnostics" res)) in
  Alcotest.(check int) "count matches diagnostics" (List.length ds)
    (get_int (member "count" res));
  List.iter
    (fun d ->
      Alcotest.(check bool) "only the selected checkers" true
        (List.mem (get_str (member "check" d)) [ "fail-cast"; "dead-store" ]))
    ds;
  let _ = ok_reply (h (req "check" "")) in
  Alcotest.(check bool) "server still up" false (Server.stopped t)

(* the update command: edits applied server-side, incremental path taken,
   result digest-cached under the new revision *)
let test_protocol_update () =
  let t = Server.create () in
  let h line = Server.handle_line t line in
  (* load the base program and learn its digest from the analyze reply *)
  let j = ok_reply (h (req "analyze" "")) in
  let digest = get_str (member "digest" j) in
  let body = "Item r = new Item(); this.item = r; return r;" in
  let upd d b =
    Printf.sprintf
      "{\"cmd\": \"update\", \"analysis\": \"csc\", \"digest\": %S, \"edits\": \
       [{\"op\": \"replace\", \"class\": \"Carton\", \"method\": \"getItem\", \
       \"body\": %S}]}"
      d b
  in
  let j = ok_reply (h (upd digest body)) in
  let res = member "result" j in
  Alcotest.(check string) "incremental path" "incremental"
    (get_str (member "mode" (member "inc" res)));
  let d2 = get_str (member "digest" res) in
  Alcotest.(check bool) "digest moved" true (d2 <> digest);
  (* a fresh analyze of the edited source must land on the same digest and
     be served from the result cache with the very same outcome *)
  let edited =
    match
      Csc_pta.Inc.apply_edits Fixtures.carton
        [ Csc_pta.Inc.Replace_method { cls = "Carton"; meth = "getItem"; body } ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let j' = ok_reply (h (req ~source:edited "analyze" "")) in
  Alcotest.(check string) "same revision" d2 (get_str (member "digest" j'));
  Alcotest.(check bool) "served from cache" true (get_bool (member "cached" j'));
  Alcotest.(check string) "same outcome"
    (Json.to_string (member "result" j'))
    (Json.to_string (member "outcome" res));
  (* the anchor follows the chain: a second (different) edit is
     incremental again *)
  let j = ok_reply (h (upd d2 "Item r = this.item; return r;")) in
  Alcotest.(check string) "chained update incremental" "incremental"
    (get_str (member "mode" (member "inc" (member "result" j))));
  (* malformed updates *)
  let _ = error_reply ~code:"bad-request" (h "{\"cmd\": \"update\"}") in
  let _ =
    error_reply ~code:"bad-request"
      (h "{\"cmd\": \"update\", \"digest\": \"no-such-digest\", \"source\": \
          \"class A { }\"}")
  in
  let _ =
    error_reply ~code:"bad-request"
      (h
         (Printf.sprintf
            "{\"cmd\": \"update\", \"digest\": %S, \"edits\": [{\"op\": \
             \"frobnicate\"}]}"
            d2))
  in
  ()

(* ----------------------------------------------------------- unix socket *)

let test_socket_roundtrip () =
  (* the daemon runs on a thread, not a forked child: the parallel-solver
     suites have already spawned Domains by the time this test runs, and
     OCaml 5 forbids fork after that *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "csc-test-%d.sock" (Unix.getpid ()))
  in
  let t = Server.create () in
  let th = Thread.create (fun () -> try Server.serve t ~socket with _ -> ()) () in
  let finally () =
    (* idempotent: the happy path has already shut the server down *)
    if not (Server.stopped t) then
      ignore (Client.request ~socket "{\"cmd\": \"shutdown\"}");
    Thread.join th;
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  Alcotest.(check bool) "socket came up" true
    (Client.wait_for_socket ~timeout_s:30. socket);
  let ask line =
    match Client.request ~socket line with
    | Ok reply -> reply
    | Error e -> Alcotest.failf "request failed: %s" e
  in
  let j = ok_reply (ask (req "analyze" "\"id\": 1")) in
  Alcotest.(check bool) "cold over the wire" false
    (get_bool (member "cached" j));
  let j = ok_reply (ask (req "analyze" "\"id\": 2")) in
  Alcotest.(check bool) "warm over the wire" true
    (get_bool (member "cached" j));
  Alcotest.(check int) "id echoed" 2 (get_int (member "id" j));
  let _ = ok_reply (ask "{\"cmd\": \"shutdown\"}") in
  Thread.join th;
  Alcotest.(check bool) "server stopped cleanly" true (Server.stopped t)

let suite =
  [
    ( "server.grammar",
      [
        Alcotest.test_case "canonical names roundtrip" `Quick
          test_grammar_roundtrip;
        Alcotest.test_case "generalized forms" `Quick test_grammar_forms;
        Alcotest.test_case "rejects bad spellings" `Quick test_grammar_errors;
      ] );
    ( "server.session",
      [
        Alcotest.test_case "run_spec equals run" `Quick test_run_spec_equals_run;
        Alcotest.test_case "hit/miss accounting" `Quick test_session_hit_miss;
        Alcotest.test_case "digest keying" `Quick test_session_digest_change;
        Alcotest.test_case "LRU eviction under a tiny bound" `Quick
          test_session_eviction;
      ] );
    ( "server.protocol",
      [
        Alcotest.test_case "every command round-trips" `Quick
          test_protocol_all_commands;
        Alcotest.test_case "pt matches the batch CLI" `Quick
          test_protocol_pt_matches_batch;
        Alcotest.test_case "malformed requests" `Quick test_protocol_errors;
        Alcotest.test_case "unknown checkers" `Quick test_protocol_bad_checks;
        Alcotest.test_case "update round-trip" `Quick test_protocol_update;
      ] );
    ( "server.socket",
      [ Alcotest.test_case "serve/client round-trip" `Quick test_socket_roundtrip ] );
  ]
