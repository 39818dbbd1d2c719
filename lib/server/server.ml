(** Request router + accept loop of the resident analysis server. The
    interface documents the wire protocol; everything here is mechanism:
    JSON decoding, reply rendering, the router and the accept loop. The
    steps from a decoded request to an answer are {!Query}'s, shared with
    the batch CLI.

    Every handler goes through the same three steps — build a {!Run.spec}
    from the request (server defaults underneath), resolve the program
    through the session's digest-keyed program cache, and (for the
    result-bearing commands) fetch the outcome through the session's result
    cache — so a warm cache short-circuits straight to the client layer
    whatever the command. *)

module Json = Csc_obs.Json
module Registry = Csc_obs.Registry
module Snapshot = Csc_obs.Snapshot
module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Report = Csc_driver.Report
module Export = Csc_driver.Export
module Explain = Csc_driver.Explain

type t = {
  sess : Session.t;
  reg : Registry.t;
  defaults : Run.spec;
  lat : Registry.histogram;
  g_inflight : Registry.gauge;
  mutable served : int;
  mutable stop : bool;
}

let create ?max_mem_bytes ?(defaults = Run.spec Run.Imp_csc) () =
  let reg = Registry.create () in
  {
    sess = Session.create ?max_mem_bytes ~registry:reg ();
    reg;
    defaults;
    lat =
      Registry.histogram reg
        ~buckets:[ 0.0001; 0.001; 0.01; 0.1; 1.; 10.; 100. ]
        "server_latency_s";
    g_inflight = Registry.gauge reg "server_inflight";
    served = 0;
    stop = false;
  }

let session t = t.sess
let stopped t = t.stop

(* ---------------------------------------------------------------- replies *)

(* the "id" member is echoed verbatim so pipelined clients can match
   replies to requests *)
let id_field req =
  match Option.bind req (Json.member "id") with
  | Some id -> [ ("id", id) ]
  | None -> []

let ok_reply ?req ?cached fields =
  Json.to_string
    (Json.with_schema
       (id_field req
       @ [ ("ok", Json.Bool true) ]
       @ (match cached with
         | Some c -> [ ("cached", Json.Bool c) ]
         | None -> [])
       @ fields))

let error_reply ?req ~code msg =
  Json.to_string
    (Json.with_schema
       (id_field req
       @ [ ("ok", Json.Bool false); ("error", Json.error ~code msg) ]))

let reject = Query.reject
let rejectf = Query.rejectf

(* ------------------------------------------------------- request decoding *)

let str_member k req = Option.bind (Json.member k req) Json.get_string
let bool_member k req = Option.bind (Json.member k req) Json.get_bool
let int_member k req = Option.bind (Json.member k req) Json.get_int
let float_member k req = Option.bind (Json.member k req) Json.get_float

(* server defaults overridden by whatever the request names *)
let spec_of_request t req : Run.spec =
  let d = t.defaults in
  {
    d with
    Run.sp_analysis =
      Option.fold ~none:d.Run.sp_analysis ~some:Query.analysis
        (str_member "analysis" req);
    sp_budget_s =
      (* a request may lower the server's budget, never lift it *)
      (match (float_member "budget_s" req, d.Run.sp_budget_s) with
      | Some b, _ when not (b > 0.) ->
        rejectf "bad-request" "\"budget_s\" must be positive, got %g" b
      | Some b, Some db -> Some (Float.min b db)
      | Some b, None -> Some b
      | None, db -> db);
  }

let program_of_request t req =
  match (str_member "program" req, str_member "source" req) with
  | Some _, Some _ ->
    reject "bad-request" "give either \"program\" or \"source\", not both"
  | None, None ->
    reject "bad-request" "missing \"program\" (suite name or .mjava path) or \
                          inline \"source\""
  | Some name, None -> Query.program t.sess name
  | None, Some source ->
    Query.program t.sess ~source
      (Option.value ~default:"<inline>" (str_member "name" req))

(* the program, its digest, and its outcome under [spec] through the cache;
   the spec is decoded first, so a bad analysis is refused before any
   compile *)
let solve t req spec =
  let p, digest = program_of_request t req in
  let o, cached = Query.outcome t.sess spec (p, digest) in
  (p, digest, o, cached)

(* ---------------------------------------------------------------- handlers *)

let handle_analyze t req =
  let _, digest, o, cached = solve t req (spec_of_request t req) in
  (* the digest is the handle [update] requests use to name this program *)
  ok_reply ~req ~cached
    [ ("digest", Json.Str digest); ("result", Report.outcome_json o) ]

let handle_pt t req =
  let p, _, o, cached = solve t req (spec_of_request t req) in
  let r = Query.result o in
  let include_jdk = Option.value ~default:false (bool_member "include_jdk" req) in
  let vars = Export.pts_json ?var:(str_member "var" req) ~include_jdk p r in
  ok_reply ~req ~cached
    [ ( "result",
        Json.Obj
          [ ("analysis", Json.Str o.Run.o_analysis); ("vars", vars) ] ) ]

let handle_callgraph t req =
  let p, _, o, cached = solve t req (spec_of_request t req) in
  let r = Query.result o in
  let include_jdk = Option.value ~default:false (bool_member "include_jdk" req) in
  ok_reply ~req ~cached
    [ ( "result",
        Json.Obj
          [ ("analysis", Json.Str o.Run.o_analysis);
            ("dot", Json.Str (Export.callgraph_dot ~include_jdk p r)) ] ) ]

(* the "checks" member: absent, null or [] selects every checker; anything
   but an array of known checker names is refused before any solving *)
let checks_of_request req : string list option =
  let bad () =
    rejectf "bad-request" "\"checks\" must be an array of checker names (%s)"
      (String.concat ", " Csc_checks.Checks.names)
  in
  match Json.member "checks" req with
  | None | Some Json.Null | Some (Json.List []) -> None
  | Some (Json.List l) ->
    Some
      (List.map
         (fun j ->
           match Json.get_string j with
           | Some n -> Query.checker n
           | None -> bad ())
         l)
  | Some _ -> bad ()

let handle_check t req =
  let checks = checks_of_request req in
  let p, _, o, cached = solve t req (spec_of_request t req) in
  let r = Query.result o in
  let include_jdk = Option.value ~default:false (bool_member "include_jdk" req) in
  let ds = Csc_checks.Checks.run_all ?checks ~include_jdk p r in
  ok_reply ~req ~cached
    [ ( "result",
        Json.Obj
          [ ("analysis", Json.Str o.Run.o_analysis);
            ("count", Json.Int (List.length ds));
            ("diagnostics", Csc_checks.Diagnostic.json_list p ds) ] ) ]

let handle_taint t req =
  let tspec = Query.taint_spec (str_member "spec" req) in
  let p, _, o, cached = solve t req (spec_of_request t req) in
  let r = Query.result o in
  let include_jdk = Option.value ~default:false (bool_member "include_jdk" req) in
  let res = Csc_taint.Taint.analyze ~spec:tspec p r in
  let ds = Csc_taint.Taint.diagnostics ~include_jdk p res in
  ok_reply ~req ~cached
    [ ( "result",
        Json.Obj
          [ ("analysis", Json.Str o.Run.o_analysis);
            ("count", Json.Int (List.length ds));
            ( "tainted_objects",
              Json.Int
                (Csc_common.Bits.cardinal res.Csc_taint.Taint.t_tainted_objs)
            );
            ("diagnostics", Csc_checks.Diagnostic.json_list p ds) ] ) ]

let handle_explain t req =
  (* provenance needs the live solver handle, so this command bypasses the
     session result cache on purpose *)
  let spec = spec_of_request t req in
  let p, _ = program_of_request t req in
  let limit = Option.value ~default:5 (int_member "limit" req) in
  let facts = Query.explain ?var:(str_member "var" req) ~limit spec p in
  ok_reply ~req
    [ ( "result",
        Json.Obj
          [ ("analysis", Json.Str (Run.name spec.Run.sp_analysis));
            ( "facts",
              Json.List
                (List.map
                   (fun (f : Explain.fact) ->
                     Json.Obj
                       [ ("ptr", Json.Str f.Explain.x_ptr);
                         ("obj", Json.Str f.Explain.x_obj);
                         ( "chain",
                           Json.List
                             (List.map (fun l -> Json.Str l) f.Explain.x_chain)
                         ) ])
                   facts) ) ] ) ]

let handle_profile t req =
  let spec = spec_of_request t req in
  let spec =
    {
      spec with
      Run.sp_profile = true;
      sp_profile_top =
        Option.value ~default:spec.Run.sp_profile_top (int_member "top" req);
    }
  in
  let _, _, o, cached = solve t req spec in
  ok_reply ~req ~cached [ ("result", Report.profile_json o) ]

let handle_update t req =
  let spec = spec_of_request t req in
  let digest =
    match str_member "digest" req with
    | Some d -> d
    | None -> reject "bad-request" "missing \"digest\" of the base program"
  in
  let edits =
    match Json.member "edits" req with
    | None -> None
    | Some j -> (
      match Json.get_list j with
      | None -> reject "bad-request" "\"edits\" must be an array"
      | Some l ->
        Some
          (List.map
             (fun e ->
               let field k =
                 match Option.bind (Json.member k e) Json.get_string with
                 | Some s -> s
                 | None -> rejectf "bad-request" "edit missing %S" k
               in
               match Option.bind (Json.member "op" e) Json.get_string with
               | Some "replace" ->
                 Csc_lang.Edit.Replace_method
                   {
                     cls = field "class";
                     meth = field "method";
                     body = field "body";
                   }
               | Some "add" ->
                 Csc_lang.Edit.Add_method
                   { cls = field "class"; meth_src = field "src" }
               | Some "remove" ->
                 Csc_lang.Edit.Remove_method
                   { cls = field "class"; meth = field "method" }
               | Some op ->
                 rejectf "bad-request"
                   "unknown edit op %S (replace, add, remove)" op
               | None -> reject "bad-request" "edit missing \"op\"")
             l))
  in
  let source = str_member "source" req in
  (match (edits, source) with
  | None, None ->
    reject "bad-request" "missing \"edits\" array or full \"source\""
  | Some _, Some _ ->
    reject "bad-request" "give either \"edits\" or \"source\", not both"
  | _ -> ());
  match Session.update t.sess ~digest ?source ?edits spec with
  | Error msg -> reject "bad-request" msg
  | Ok u ->
    ok_reply ~req ~cached:u.Session.up_cached
      [ ( "result",
          Json.Obj
            [ ("digest", Json.Str u.Session.up_digest);
              ("outcome", Report.outcome_json u.Session.up_outcome) ] ) ]

let handle_stats t req =
  ok_reply ~req
    [ ( "result",
        Json.Obj
          [ ("requests", Json.Int t.served);
            ("session", Session.stats_json t.sess);
            ("snapshot", Snapshot.to_json (Registry.snapshot t.reg)) ] ) ]

let handle_shutdown t req =
  t.stop <- true;
  ok_reply ~req
    [ ("result", Json.Obj [ ("stopping", Json.Bool true) ]) ]

(* ----------------------------------------------------------------- router *)

let dispatch t req = function
  | "analyze" -> handle_analyze t req
  | "pt" -> handle_pt t req
  | "callgraph" -> handle_callgraph t req
  | "check" -> handle_check t req
  | "taint" -> handle_taint t req
  | "explain" -> handle_explain t req
  | "profile" -> handle_profile t req
  | "update" -> handle_update t req
  | "stats" -> handle_stats t req
  | "shutdown" -> handle_shutdown t req
  | cmd ->
    rejectf "unknown-cmd"
      "unknown cmd %S (analyze, pt, callgraph, check, taint, explain, \
       profile, update, stats, shutdown)"
      cmd

let handle_line t (line : string) : string =
  let t0 = Unix.gettimeofday () in
  Registry.set t.g_inflight 1.;
  t.served <- t.served + 1;
  let reply =
    match Json.parse line with
    | Error msg -> error_reply ~code:"parse" msg
    | Ok req -> (
      match str_member "cmd" req with
      | None -> error_reply ~req ~code:"bad-request" "missing \"cmd\""
      | Some cmd -> (
        Registry.incr
          (Registry.counter t.reg ~labels:[ ("cmd", cmd) ] "server_requests");
        try dispatch t req cmd with
        | e -> (
          match Query.refusal e with
          | Some (code, msg) -> error_reply ~req ~code msg
          | None ->
            (* last resort: a handler bug answers this request, it must not
               end the accept loop *)
            Registry.incr (Registry.counter t.reg "server_internal_errors");
            error_reply ~req ~code:"internal" (Printexc.to_string e))))
  in
  Registry.observe t.lat (Unix.gettimeofday () -. t0);
  Registry.set t.g_inflight 0.;
  reply

(* ------------------------------------------------------------ accept loop *)

(* The longest request line the server reads. The largest source a request
   can carry is a suite program's text, and soot's, the largest, is about
   400 KB; 16 MiB leaves room for any of them and bounds what one line can
   make the daemon hold. *)
let max_request_bytes = 16 * 1024 * 1024

(* the runtime's newline scan over a channel's buffer, which [input_line]
   uses: [n > 0] when a newline ends the first [n] buffered bytes, [-n]
   when the [n] buffered bytes hold none, [0] at the end of the input *)
external scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* The next line of [ic] without its newline, read a buffer at a time as
   [input_line] reads it (and raising [End_of_file] as it does), or [None]
   when the line is longer than [max_request_bytes]: its rest is read and
   dropped. *)
let read_line ic =
  (* [chunks] newest first, [len] their bytes, [-1] once over the limit *)
  let rec go chunks len =
    let n = scan_line ic in
    if n = 0 && len = 0 && chunks = [] then raise End_of_file;
    let s = really_input_string ic (if n > 0 then n - 1 else -n) in
    let chunks, len =
      if len < 0 || len + String.length s > max_request_bytes then ([], -1)
      else (s :: chunks, len + String.length s)
    in
    if n > 0 then ignore (input_char ic);
    if n < 0 then go chunks len
    else if len < 0 then None
    else
      match chunks with
      | [ s ] -> Some s
      | _ -> Some (String.concat "" (List.rev chunks))
  in
  go [] 0

let serve t ~socket =
  (* a socket left at the path by an earlier server is replaced; any other
     file there is not ours to delete *)
  (match (Unix.lstat socket).Unix.st_kind with
  | Unix.S_SOCK -> Unix.unlink socket
  | _ -> rejectf "bad-request" "%s exists and is not a socket" socket
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  (* start from a settled heap: a server forked from a busy process would
     otherwise inherit that process's major-GC phase, and its peak RSS
     would depend on when the inherited cycle ends (on the edit workload it
     flipped between 301 and 320 MB from run to run) *)
  Gc.full_major ();
  let previous_sigpipe =
    (* a client vanishing mid-reply must error the write, not kill the
       daemon *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 16;
  let cleanup () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink socket with Unix.Unix_error _ -> ());
    match previous_sigpipe with
    | Some b -> Sys.set_signal Sys.sigpipe b
    | None -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  while not t.stop do
    let cfd, _ = Unix.accept fd in
    let ic = Unix.in_channel_of_descr cfd in
    let oc = Unix.out_channel_of_descr cfd in
    let answer reply =
      output_string oc reply;
      output_char oc '\n';
      flush oc
    in
    (try
       (* one connection at a time, strictly in request order (S19) *)
       while not t.stop do
         match read_line ic with
         | None ->
           answer
             (error_reply ~code:"bad-request"
                (Printf.sprintf "request line longer than %d bytes"
                   max_request_bytes))
         | Some line ->
           if String.trim line <> "" then answer (handle_line t line)
       done
     with End_of_file | Sys_error _ -> ());
    try Unix.close cfd with Unix.Unix_error _ -> ()
  done
