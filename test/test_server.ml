(** Tests for the analysis-server stack: the analysis-name grammar, the
    session cache (hits, misses, digest keying, LRU eviction), the NDJSON
    request router, and one round-trip over a real unix socket. *)

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
  ok "kobj:2" (Run.Imp_kobj 2);
  ok "ktype:2" (Run.Imp_ktype 2);
  ok "2call" (Run.Imp_kcall 2);
  ok "kcall:1" (Run.Imp_kcall 1);
  ok "doop:csc" Run.Doop_csc;
  ok "doop-csc" Run.Doop_csc

let test_grammar_errors () =
  let bad s =
    match Run.analysis_of_string s with
    | Ok _ -> Alcotest.failf "%s should not parse" s
    | Error e ->
      Alcotest.(check bool) ("error mentions input: " ^ s) true
        (String.length e > 0);
      e
  in
  List.iter
    (fun s -> ignore (bad s))
    [ "bogus"; "kobj:0"; "kobj:x"; "0obj"; "doop:bogus" ]

(* the parent's hand-written tables, kept as the reference the decoded plan
   must reproduce *)
let ref_is_datalog = function
  | Run.Doop_ci | Run.Doop_csc | Run.Doop_2obj | Run.Doop_2type
  | Run.Doop_zipper ->
    true
  | _ -> false

(* every analysis value: all constructors, k in 1..4, all 8 CSC configs *)
let gen_analysis =
  let open QCheck2.Gen in
  let k = int_range 1 4 in
  oneof
    [ oneofl
        Run.
          [ Imp_ci; Imp_csc; Imp_2obj; Imp_zipper; Doop_ci; Doop_csc;
            Doop_2obj; Doop_2type; Doop_zipper ];
      map (fun k -> Run.Imp_kobj k) k;
      map (fun k -> Run.Imp_ktype k) k;
      map (fun k -> Run.Imp_kcall k) k;
      map3
        (fun field_pattern container_pattern local_flow ->
          Run.Imp_csc_cfg
            { Csc_core.Csc.field_pattern; container_pattern; local_flow })
        bool bool bool ]

let prop_grammar_plan =
  QCheck2.Test.make ~name:"name parses back to the same name and plan"
    ~count:300 ~print:Run.name gen_analysis (fun a ->
      match Run.analysis_of_string (Run.name a) with
      | Error e -> QCheck2.Test.fail_reportf "%s: %s" (Run.name a) e
      | Ok a' ->
        Run.name a' = Run.name a
        && Run.plan_name a' = Run.plan_name a
        && Run.is_datalog a = ref_is_datalog a)

let prop_plan_names_distinct =
  QCheck2.Test.make ~name:"analyses share a plan iff they share a name"
    ~count:300
    ~print:(fun (a, b) -> Run.name a ^ " / " ^ Run.name b)
    QCheck2.Gen.(pair gen_analysis gen_analysis)
    (fun (a, b) ->
      (Run.plan_name a = Run.plan_name b) = (Run.name a = Run.name b))

(* ---------------------------------------------------------------- session *)

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

let test_session_suite_load () =
  (* a suite name and its rendered source are one program entry *)
  let s = Session.create () in
  let p1, d1 = Result.get_ok (Session.load s "findbugs") in
  let p2, d2 =
    Result.get_ok
      (Session.load_source s ~name:"findbugs"
         (Csc_workloads.Suite.source "findbugs"))
  in
  Alcotest.(check string) "one digest" d1 d2;
  Alcotest.(check bool) "one compiled program" true (p1 == p2);
  Alcotest.(check int) "one program entry" 1 (Session.programs s)

let test_session_registry () =
  (* the accessors read the counters of the registry the session was given *)
  let reg = Csc_obs.Registry.create () in
  let s = Session.create ~registry:reg () in
  let p, digest = Result.get_ok (Session.load_source s ~name:"t" Fixtures.carton) in
  let spec = Run.spec Run.Imp_csc in
  ignore (Session.outcome s ~digest spec p);
  ignore (Session.outcome s ~digest spec p);
  let value name =
    Csc_obs.Registry.value (Csc_obs.Registry.counter reg name)
  in
  Alcotest.(check int) "hits" 1 (Session.hits s);
  Alcotest.(check int) "registry hits" (Session.hits s)
    (value "session_cache_hits");
  Alcotest.(check int) "registry misses" (Session.misses s)
    (value "session_cache_misses")

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

let test_protocol_profile_canonical_name () =
  (* the CLI's profile --json entry (Report.profile_json of a session
     outcome) and the server's profile reply name the analysis canonically,
     whatever spelling the user typed *)
  let a = Result.get_ok (Run.analysis_of_string "kobj:2") in
  let s = Session.create () in
  let p, digest = Result.get_ok (Session.load_source s ~name:"t" Fixtures.carton) in
  let o, _ =
    Session.outcome s ~digest { (Run.spec a) with Run.sp_profile = true } p
  in
  let cli = Csc_driver.Report.profile_json o in
  let t = Server.create () in
  let server =
    member "result"
      (ok_reply
         (Server.handle_line t
            (Printf.sprintf
               "{\"cmd\": \"profile\", \"source\": %S, \"analysis\": \"kobj:2\"}"
               Fixtures.carton)))
  in
  List.iter
    (fun (path, j) ->
      Alcotest.(check string) (path ^ " analysis") "2obj"
        (get_str (member "analysis" j));
      Alcotest.(check bool) (path ^ " profile present") true
        (member "profile" j <> Json.Null))
    [ ("cli", cli); ("server", server) ]

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
  let j =
    error_reply ~code:"compile"
      (h "{\"cmd\": \"analyze\", \"source\": \"class { woops\"}")
  in
  (* a compile error keeps its position: <name>:<line>:<col>: <message> *)
  Alcotest.(check bool) "compile message has a position" true
    (Astring.String.is_prefix ~affix:"<inline>:1:7: "
       (get_str (member "message" (member "error" j))));
  (* a path that exists but cannot be read is not-found, not internal *)
  let _ =
    error_reply ~code:"not-found"
      (h
         (Printf.sprintf "{\"cmd\": \"analyze\", \"program\": %S}"
            Filename.current_dir_name))
  in
  let _ =
    error_reply ~code:"not-found"
      (h (req "taint" "\"spec\": \"no-such-spec.json\""))
  in
  List.iter
    (fun a ->
      ignore
        (error_reply ~code:"bad-request"
           (h
              (Printf.sprintf
                 "{\"cmd\": \"explain\", \"source\": %S, \"analysis\": %S}"
                 Fixtures.carton a))))
    [ "doop-ci"; "zipper-e" ];
  (* a solve out of budget answers timeout on every result-bearing command *)
  List.iter
    (fun cmd ->
      ignore (error_reply ~code:"timeout" (h (req cmd "\"budget_s\": 1e-9"))))
    [ "pt"; "callgraph"; "check"; "taint" ];
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

(* "jobs" is not a request member: a request naming it, even absurdly
   large, is the same request as one without it, so it must be served from
   the session cache with the same result *)
let test_protocol_jobs_ignored () =
  let t = Server.create () in
  let h line = Server.handle_line t line in
  let analyze extra =
    h
      (Printf.sprintf
         "{\"cmd\": \"analyze\", \"program\": \"findbugs\", \"analysis\": \
          \"csc\"%s}"
         extra)
  in
  let j1 = ok_reply (analyze "") in
  let j2 = ok_reply (analyze ", \"jobs\": 100000") in
  Alcotest.(check bool) "served from the cache" true
    (get_bool (member "cached" j2));
  let metrics j = Json.to_string (member "metrics" (member "result" j)) in
  Alcotest.(check string) "same metrics" (metrics j1) (metrics j2)

(* "collapse" is not a request member: naming it changes nothing, so the
   request is answered from the cache entry of the plain one *)
let test_protocol_collapse_ignored () =
  let t = Server.create () in
  let h line = Server.handle_line t line in
  let j1 = ok_reply (h (req "analyze" "")) in
  let j2 = ok_reply (h (req "analyze" "\"collapse\": false")) in
  Alcotest.(check bool) "served from the cache" true
    (get_bool (member "cached" j2));
  Alcotest.(check string) "plain label" "csc"
    (get_str (member "analysis" (member "result" j2)));
  let metrics j = Json.to_string (member "metrics" (member "result" j)) in
  Alcotest.(check string) "same metrics" (metrics j1) (metrics j2)

(* a request may lower the server's budget but never remove or raise it:
   a non-positive budget is refused, a larger one runs under the default *)
let test_protocol_budget_capped () =
  let defaults = { (Run.spec Run.Imp_csc) with Run.sp_budget_s = Some 60. } in
  let t = Server.create ~defaults () in
  let h line = Server.handle_line t line in
  List.iter
    (fun b ->
      let j =
        error_reply ~code:"bad-request" (h (req "analyze" ("\"budget_s\": " ^ b)))
      in
      Alcotest.(check bool) ("names budget_s: " ^ b) true
        (Astring.String.is_infix ~affix:"budget_s"
           (get_str (member "message" (member "error" j)))))
    [ "0"; "-1" ];
  let j = ok_reply (h (req "analyze" "")) in
  Alcotest.(check bool) "default budget is a miss" false
    (get_bool (member "cached" j));
  let j = ok_reply (h (req "analyze" "\"budget_s\": 1e9")) in
  Alcotest.(check bool) "a larger budget hits the default entry" true
    (get_bool (member "cached" j));
  let j = ok_reply (h (req "analyze" "\"budget_s\": 30")) in
  Alcotest.(check bool) "a smaller budget is its own entry" false
    (get_bool (member "cached" j))

(* the update command: edits applied server-side, the edited revision
   compiled and solved through the session caches under its own digest *)
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
  Alcotest.(check bool) "a new revision is a miss" false
    (get_bool (member "cached" j));
  let res = member "result" j in
  Alcotest.(check bool) "no inc block" true (Json.member "inc" res = None);
  let d2 = get_str (member "digest" res) in
  Alcotest.(check bool) "digest moved" true (d2 <> digest);
  (* a fresh analyze of the edited source must land on the same digest and
     be served from the result cache with the very same outcome *)
  let edited =
    match
      Csc_lang.Edit.apply Fixtures.carton
        [ Csc_lang.Edit.Replace_method { cls = "Carton"; meth = "getItem"; body } ]
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
  (* a chained update from the new revision to a third one *)
  let j = ok_reply (h (upd d2 "Item r = this.item; return r;")) in
  let d3 = get_str (member "digest" (member "result" j)) in
  Alcotest.(check bool) "chained update solves its revision" true
    (d3 <> d2 && d3 <> digest && not (get_bool (member "cached" j)));
  (* editing back to an already-solved revision answers from the cache *)
  let j = ok_reply (h (upd d3 body)) in
  Alcotest.(check string) "back to the second revision" d2
    (get_str (member "digest" (member "result" j)));
  Alcotest.(check bool) "already-solved revision is cached" true
    (get_bool (member "cached" j));
  Alcotest.(check string) "cached outcome unchanged"
    (Json.to_string (member "outcome" res))
    (Json.to_string (member "outcome" (member "result" j)));
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
  (* the daemon runs on a thread of the test process, not a forked child *)
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
  (* an oversized line is answered and dropped; the same connection then
     answers its next request *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
  output_string oc (String.make (Server.max_request_bytes + 1) 'x');
  output_string oc "\n{\"cmd\": \"stats\"}\n";
  flush oc;
  let big = input_line ic in
  let stats = input_line ic in
  Unix.close fd;
  let j = error_reply ~code:"bad-request" big in
  Alcotest.(check string) "names the limit"
    (Printf.sprintf "request line longer than %d bytes" Server.max_request_bytes)
    (get_str (member "message" (member "error" j)));
  let _ = ok_reply stats in
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
        QCheck_alcotest.to_alcotest prop_grammar_plan;
        QCheck_alcotest.to_alcotest prop_plan_names_distinct;
      ] );
    ( "server.session",
      [
        Alcotest.test_case "hit/miss accounting" `Quick test_session_hit_miss;
        Alcotest.test_case "digest keying" `Quick test_session_digest_change;
        Alcotest.test_case "LRU eviction under a tiny bound" `Quick
          test_session_eviction;
        Alcotest.test_case "suite name and source share an entry" `Quick
          test_session_suite_load;
        Alcotest.test_case "counters live in the registry" `Quick
          test_session_registry;
      ] );
    ( "server.protocol",
      [
        Alcotest.test_case "every command round-trips" `Quick
          test_protocol_all_commands;
        Alcotest.test_case "pt matches the batch CLI" `Quick
          test_protocol_pt_matches_batch;
        Alcotest.test_case "profile names the analysis canonically" `Quick
          test_protocol_profile_canonical_name;
        Alcotest.test_case "malformed requests" `Quick test_protocol_errors;
        Alcotest.test_case "unknown checkers" `Quick test_protocol_bad_checks;
        Alcotest.test_case "jobs member is ignored" `Quick
          test_protocol_jobs_ignored;
        Alcotest.test_case "collapse member is ignored" `Quick
          test_protocol_collapse_ignored;
        Alcotest.test_case "budget_s only lowers the budget" `Quick
          test_protocol_budget_capped;
        Alcotest.test_case "update round-trip" `Quick test_protocol_update;
      ] );
    ( "server.socket",
      [ Alcotest.test_case "serve/client round-trip" `Quick test_socket_roundtrip ] );
  ]
