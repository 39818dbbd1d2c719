(** The four workloads. Each is a single-client closed loop: the next request
    is sent when the previous answer has arrived, and answers are checked
    between requests, outside the timed region.

    Inputs come from the suite generator. The seed picks the revision of
    every program: revision [k] of a run with seed [s] is
    [Suite.source_variant p (1000 s + k)], a single-method edit of
    [Driver0.op0_0] (revision 0 of seed 0 is the suite program itself).
    Program shapes stay fixed, so every seed does the same amount of work
    and seed-to-seed spread measures the machine, not the inputs.

    One-shot workloads (batch, heavy) call the library in process, as a CLI
    run would, and compact the heap between requests so each starts from a
    settled heap. Server workloads (serve, edit) drive a forked
    [Server.serve] over a unix socket; traced runs replay the same requests
    in process, as the session and layer calls a server handler makes, so
    each layer can be timed. *)

module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Report = Csc_driver.Report
module Export = Csc_driver.Export
module Suite = Csc_workloads.Suite
module Json = Csc_obs.Json
module Snapshot = Csc_obs.Snapshot
module Server = Csc_server.Server
module Client = Csc_server.Client

let now = Unix.gettimeofday
let wrong = Oracle.wrong

(* ------------------------------------------------------------- recording *)

type sample = { cls : string; cold : bool; at : float; s : float }

type env = {
  seed : int;
  led : Ledger.t;
  oracle : Oracle.t;
  mutable samples : sample list;
  mutable attempted : int;
  mutable failures : string list;
  mutable setup : float list;  (** seconds of each set-up repetition *)
  mutable peak_kb : int;  (** VmHWM of the working process *)
  speed : Speed.t;
}

let env ~seed led =
  {
    seed;
    led;
    oracle = Oracle.create ~seed;
    samples = [];
    attempted = 0;
    failures = [];
    setup = [];
    peak_kb = 0;
    speed = Speed.create ();
  }

let fail env cls msg = env.failures <- (cls ^ ": " ^ msg) :: env.failures

(* Attempt one request: [f] is timed, [check] validates its answer outside
   the timed region. A request that raises or fails its check counts as
   failed and gives no latency sample; set-up requests give none either. *)
let exec ?(setup = false) env ~cls ~cold f check =
  env.attempted <- env.attempted + 1;
  Speed.maybe env.speed;
  let at = now () in
  match
    let x = f () in
    let s = now () -. at in
    (check x, s)
  with
  | y, s ->
    if not setup then env.samples <- { cls; cold; at; s } :: env.samples;
    Some (y, s)
  | exception Oracle.Wrong m ->
    fail env cls m;
    None
  | exception e ->
    fail env cls (Printexc.to_string e);
    None

let revision env k = (env.seed * 1000) + k
let source env p k = Suite.source_variant p (revision env k)

(* [reps] timed set-ups; all but the last result are [discard]ed *)
let set_up env ~reps ?(discard = ignore) f =
  let rec go i =
    let t0 = now () in
    let x = f () in
    env.setup <- (now () -. t0) :: env.setup;
    if i < reps then begin
      discard x;
      go (i + 1)
    end
    else x
  in
  go 1

let peak_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
          | _ -> go ()
          | exception End_of_file -> 0
        in
        go ())

(* Solver time and counters of a from-scratch solve. Counters are taken
   once per class, so they repeat exactly whatever the number of passes. *)
let solve_counters env ~cls (a : Run.analysis) (o : Run.outcome) =
  let led = env.led in
  let engine = if Run.is_datalog a then "datalog" else "pta" in
  Ledger.sample led (engine ^ ".solve") o.Run.o_time;
  Ledger.sample led (engine ^ ".solve@" ^ cls) o.Run.o_time;
  Option.iter
    (fun s ->
      let c k = float_of_int (Option.value ~default:0 (Snapshot.counter_value s k)) in
      if Run.is_datalog a then Ledger.add_once led ~cls "datalog.derived" (c "derived")
      else begin
        List.iter
          (fun k -> Ledger.add_once led ~cls ("pta." ^ k) (c k))
          [ "propagated"; "wl_pushes"; "wl_coalesced"; "pfg_edges"; "ptrs";
            "cycles_collapsed"; "ptrs_merged" ];
        Ledger.add_once led ~cls "core.csc_shortcuts" (float_of_int o.Run.o_shortcuts)
      end)
    o.Run.o_snapshot

(* Calls a traced run makes beside a from-scratch solve, not part of any
   request's time: parsing alone, compiling (where the request compiles
   inside a session), client metrics, and the solve's counters. *)
let side_calls env ~cls ~src ~compiled a (p, (o : Run.outcome)) =
  let led = env.led in
  if Ledger.enabled led then begin
    ignore (Ledger.span led ~layer:"lang" "parse" (fun () -> Csc_lang.Parser.parse_program src));
    if not compiled then
      ignore
        (Ledger.span led ~layer:"lang" "compile" (fun () ->
             Csc_lang.Frontend.compile_string ~name:cls src));
    Ledger.add led "lang.bytes"
      (float_of_int (String.length src + String.length Csc_lang.Jdk.source));
    Option.iter
      (fun r ->
        ignore
          (Ledger.span led ~layer:"clients" "metrics" (fun () ->
               Csc_clients.Metrics.compute p r)))
      o.Run.o_result;
    solve_counters env ~cls a o
  end

(* ------------------------------------------------------ one-shot workloads *)

let budget_s = 60.

(* Source text to rendered answer, as one CLI run does it. *)
let one_shot led ~name a src =
  let p =
    Ledger.span led ~layer:"lang" "compile" (fun () ->
        Csc_lang.Frontend.compile_string ~name src)
  in
  let errors = Ledger.span led ~layer:"ir" "validate" (fun () -> Csc_ir.Validate.check p) in
  let o =
    Ledger.span led ~layer:"driver" "run_spec" (fun () ->
        Run.run_spec { (Run.spec a) with Run.sp_budget_s = Some budget_s } p)
  in
  let text =
    Ledger.span led ~layer:"driver" "render" (fun () -> Json.to_string (Report.outcome_json o))
  in
  (p, errors, o, text)

let check_one_shot env ~cls ~src ~first (p, errors, (o : Run.outcome), text) =
  (match errors with e :: _ -> wrong "invalid IR: %s" e | [] -> ());
  if o.Run.o_timeout then wrong "no answer within the %.0f s budget" budget_s;
  let j = Json.parse_exn text in
  if Json.member "schema" j <> Some (Json.Int 1) then wrong "answer without \"schema\": 1";
  (match Json.member "metrics" j with
  | Some m -> Oracle.metrics env.oracle ~cls m
  | None -> wrong "answer without metrics");
  if first then Option.iter (Oracle.recall env.oracle ~src p) o.Run.o_result;
  Ledger.add env.led "driver.reply_bytes" (float_of_int (String.length text));
  Ledger.add env.led "driver.replies" 1.;
  (p, o)

(** [passes] passes over [classes], each a (program, analysis) pair. *)
let one_shots env ~classes ~passes ~reps =
  let programs = List.sort_uniq compare (List.map fst classes) in
  let sources =
    set_up env ~reps (fun () -> List.map (fun p -> (p, source env p 0)) programs)
  in
  for pass = 1 to passes do
    List.iter
      (fun (p, a) ->
        let cls = p ^ "/" ^ Run.name a and src = List.assoc p sources in
        (match
           exec env ~cls ~cold:true
             (fun () -> one_shot env.led ~name:p a src)
             (check_one_shot env ~cls ~src ~first:(pass = 1))
         with
        | Some (po, _) -> side_calls env ~cls ~src ~compiled:true a po
        | None -> ());
        Gc.compact ())
      classes;
    (* the heap grown by one pass stays with the process, so later passes
       only add noise from GC timing to the peak *)
    if pass = 1 then env.peak_kb <- peak_kb "self"
  done;
  List.iter
    (fun p -> fail env (p ^ "/csc") "csc is less precise than ci")
    (Oracle.csc_within_ci env.oracle programs)

(* ------------------------------------------------------- server workloads *)

type cmd =
  | Analyze
  | Pt of string option  (** [Some v]: only variables ending with [v] *)
  | Callgraph
  | Check
  | Taint
  | Stats
  | Update of string  (** digest of the base revision *)

let wire_name = function
  | Analyze -> "analyze"
  | Pt _ -> "pt"
  | Callgraph -> "callgraph"
  | Check -> "check"
  | Taint -> "taint"
  | Stats -> "stats"
  | Update _ -> "update"

(* The request line a client sends. Requests name their program by its full
   source text, as an editor client would. *)
let line ~name src cmd =
  let s v = Json.Str v in
  let program = [ ("name", s name); ("source", s src); ("analysis", s "csc") ] in
  Json.to_string
    (Json.Obj
       (("cmd", s (wire_name cmd))
       ::
       (match cmd with
       | Stats -> []
       | Update d -> [ ("digest", s d); ("source", s src); ("analysis", s "csc") ]
       | Pt (Some v) -> program @ [ ("var", s v) ]
       | Analyze | Pt None | Callgraph | Check | Taint -> program)))

type forked = { pid : int; socket : string }

type conn =
  | Forked of forked
  | Local of Server.t  (** in-process replay on the server's own session *)

let out_dir = ".perf"

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let connectable socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let start_server () =
  ensure_out_dir ();
  let socket = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (* reset VmHWM, so the peak reported is the server's own *)
    (try
       let oc = open_out "/proc/self/clear_refs" in
       output_string oc "5";
       close_out oc
     with Sys_error _ -> ());
    (try Server.serve (Server.create ()) ~socket with _ -> ());
    Unix._exit 0
  | pid ->
    let deadline = now () +. 30. in
    while not (connectable socket) do
      if now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "the forked server did not start"
      end;
      Unix.sleepf 0.002
    done;
    { pid; socket }

let stop_server s =
  (try ignore (Client.request ~socket:s.socket {|{"cmd": "shutdown"}|}) with _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

type extra =
  | Solved of Csc_ir.Ir.program * Run.outcome  (** a cold solve *)
  | Updated of Session.update_result
  | Nothing

(* What a server handler does for [cmd], as calls into the session and the
   layers, each timed on the ledger. Returns the reply envelope the server
   would send, and what a traced run reads off the request. *)
let local env srv ~cls ~cold ~name src cmd : Json.t * extra =
  let led = env.led and sess = Server.session srv in
  let spec = Run.spec Run.Imp_csc in
  let lookup cached =
    Ledger.add led "driver.session_lookups" 1.;
    if cached then Ledger.add led "driver.session_hits" 1.
  in
  let load () =
    match Session.load_source sess ~name src with
    | Ok pd -> pd
    | Error e -> wrong "compile error: %s" e
  in
  let resolve () =
    let ((_, _, _, cached) as r) =
      if cold then
        let p, digest = Ledger.span led ~layer:"driver" "session_load" load in
        let o, cached =
          Ledger.span led ~layer:"driver" "session_solve" (fun () ->
              Session.outcome sess ~digest spec p)
        in
        (p, digest, o, cached)
      else
        Ledger.span led ~layer:"driver" "session_hit" (fun () ->
            let p, digest = load () in
            let o, cached = Session.outcome sess ~digest spec p in
            (p, digest, o, cached))
    in
    lookup cached;
    r
  in
  let result (o : Run.outcome) =
    match o.Run.o_result with Some r -> r | None -> wrong "analysis timed out"
  in
  let reply ?cached fields =
    Json.with_schema
      ((("ok", Json.Bool true)
       :: (match cached with Some c -> [ ("cached", Json.Bool c) ] | None -> []))
      @ fields)
  in
  (* build the reply and render it to wire text *)
  let render ~layer name build =
    Ledger.span led ~layer name (fun () ->
        let j = build () in
        ignore (Json.to_string j);
        j)
  in
  let with_analysis o fields = Json.Obj (("analysis", Json.Str o.Run.o_analysis) :: fields) in
  let diagnostics p ds = Json.parse_exn (Csc_checks.Diagnostic.render_json p ds) in
  match cmd with
  | Analyze ->
    let p, digest, o, cached = resolve () in
    ( render ~layer:"driver" "render" (fun () ->
          reply ~cached [ ("digest", Json.Str digest); ("result", Report.outcome_json o) ]),
      if cached then Nothing else Solved (p, o) )
  | Pt var ->
    let p, _, o, cached = resolve () in
    let r = result o in
    ( render ~layer:"driver" "export_pt" (fun () ->
          reply ~cached [ ("result", with_analysis o [ ("vars", Export.pts_json ?var p r) ]) ]),
      Nothing )
  | Callgraph ->
    let p, _, o, cached = resolve () in
    let r = result o in
    ( render ~layer:"driver" "export_callgraph" (fun () ->
          reply ~cached
            [ ("result", with_analysis o [ ("dot", Json.Str (Export.callgraph_dot p r)) ]) ]),
      Nothing )
  | Check ->
    let p, _, o, cached = resolve () in
    let ds =
      Ledger.span led ~layer:"checks" "run" (fun () -> Csc_checks.Checks.run_all p (result o))
    in
    Ledger.add_once led ~cls "checks.diagnostics" (float_of_int (List.length ds));
    ( render ~layer:"checks" "render" (fun () ->
          reply ~cached
            [ ( "result",
                with_analysis o
                  [ ("count", Json.Int (List.length ds)); ("diagnostics", diagnostics p ds) ] ) ]),
      Nothing )
  | Taint ->
    let p, _, o, cached = resolve () in
    let res, ds =
      Ledger.span led ~layer:"taint" "run" (fun () ->
          let res = Csc_taint.Taint.analyze p (result o) in
          (res, Csc_taint.Taint.diagnostics p res))
    in
    ( render ~layer:"taint" "render" (fun () ->
          reply ~cached
            [ ( "result",
                with_analysis o
                  [ ("count", Json.Int (List.length ds));
                    ( "tainted_objects",
                      Json.Int (Csc_common.Bits.cardinal res.Csc_taint.Taint.t_tainted_objs) );
                    ("diagnostics", diagnostics p ds) ] ) ]),
      Nothing )
  | Stats ->
    ( render ~layer:"driver" "render_stats" (fun () ->
          reply [ ("result", Json.Obj [ ("session", Session.stats_json sess) ]) ]),
      Nothing )
  | Update digest ->
    let u =
      match
        Ledger.span ~cls led ~layer:"pta" "inc_update" (fun () ->
            Session.update sess ~digest ~source:src spec)
      with
      | Ok u -> u
      | Error e -> wrong "update refused: %s" e
    in
    lookup u.Session.up_cached;
    ( render ~layer:"driver" "render" (fun () ->
          reply ~cached:u.Session.up_cached
            [ ( "result",
                Json.Obj
                  [ ("digest", Json.Str u.Session.up_digest);
                    ("inc", Json.Obj (Csc_pta.Inc.info_json u.Session.up_info));
                    ("outcome", Report.outcome_json u.Session.up_outcome) ] ) ]),
      Updated u )

let member_path path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

(* What every reply is checked for, in either mode: a well-formed ok
   envelope whose result has the shape its command promises. *)
let check_reply cmd (j : Json.t) =
  if Json.member "schema" j <> Some (Json.Int 1) then wrong "reply without \"schema\": 1";
  (match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ ->
    wrong "error reply %s"
      (Json.to_string (Option.value ~default:Json.Null (Json.member "error" j))));
  let get path = member_path ("result" :: path) j in
  let obj path =
    match get path with
    | Some (Json.Obj _) -> ()
    | _ -> wrong "reply lacks result.%s" (String.concat "." path)
  in
  match cmd with
  | Analyze -> obj [ "metrics" ]
  | Update _ -> obj [ "outcome"; "metrics" ]
  | Stats -> obj [ "session" ]
  | Pt var -> (
    let named v suffix =
      Option.fold ~none:false ~some:(String.ends_with ~suffix)
        (Option.bind (Json.member "var" v) Json.get_string)
    in
    match (Option.bind (get [ "vars" ]) Json.get_list, var) with
    | Some (_ :: _), None -> ()
    | Some [ v ], Some suffix when named v suffix -> ()
    | _ -> wrong "points-to reply without the expected variables")
  | Callgraph -> (
    match Option.bind (get [ "dot" ]) Json.get_string with
    | Some d when d <> "" -> ()
    | _ -> wrong "empty call graph")
  | Check | Taint -> (
    match
      (Option.bind (get [ "count" ]) Json.get_int, Option.bind (get [ "diagnostics" ]) Json.get_list)
    with
    | Some n, Some ds when n = List.length ds -> ()
    | _ -> wrong "count and diagnostics disagree")

let metrics_of path j =
  match member_path path j with Some m -> m | None -> wrong "reply without metrics"

let digest_of path j =
  match Option.bind (member_path path j) Json.get_string with
  | Some d -> d
  | None -> wrong "reply without a digest"

(* One request to the server in either mode; [after] runs on the checked
   reply, outside the timed region. *)
let send ?setup ?(after = ignore) env conn ~cls ~cold ~name src cmd =
  match conn with
  | Forked s ->
    let l = line ~name src cmd in
    exec ?setup env ~cls ~cold
      (fun () ->
        match Client.request ~socket:s.socket l with
        | Ok reply -> reply
        | Error e -> wrong "%s" e)
      (fun reply ->
        let j = Json.parse_exn reply in
        check_reply cmd j;
        after (j, Nothing);
        j)
  | Local srv ->
    let r =
      exec ?setup env ~cls ~cold
        (fun () -> local env srv ~cls ~cold ~name src cmd)
        (fun (j, x) ->
          check_reply cmd j;
          after (j, x);
          j)
    in
    (* the router itself, on the state the replay left behind *)
    if Ledger.enabled env.led then begin
      let l = line ~name src cmd in
      let reply = Ledger.span env.led ~layer:"server" "handle" (fun () -> Server.handle_line srv l) in
      Ledger.add env.led "driver.reply_bytes" (float_of_int (String.length reply));
      Ledger.add env.led "driver.replies" 1.
    end;
    r

let solved_counters env ~cls ~src (_, x) =
  match x with
  | Solved (p, o) -> side_calls env ~cls ~src ~compiled:false Run.Imp_csc (p, o)
  | Updated _ | Nothing -> ()

(* analyze a program's revision 0: set-up, answered but not sampled *)
let load_base env conn p =
  let src = source env p 0 and cls = p ^ "/base" in
  match
    send ~setup:true env conn ~cls ~cold:true ~name:p src Analyze
      ~after:(solved_counters env ~cls ~src)
  with
  | Some (j, s) -> (digest_of [ "digest" ] j, s)
  | None -> failwith ("analyzing revision 0 of " ^ p ^ " failed")

let open_conn ~local = if local then Local (Server.create ()) else Forked (start_server ())

let close_conn = function Forked s -> stop_server s | Local _ -> ()

let finish_conn env conn =
  match conn with
  | Forked s -> env.peak_kb <- max env.peak_kb (peak_kb (string_of_int s.pid))
  | Local srv ->
    Ledger.add env.led "driver.session_evictions"
      (float_of_int (Session.evictions (Server.session srv)))

let check_against_scratch env ~cls answers =
  List.iter
    (fun (p, src, m) ->
      (match Oracle.reference env.oracle ~name:p ~src Run.Imp_csc with
      | r when r = m -> ()
      | r ->
        fail env cls
          (Printf.sprintf "%s: metrics %s, a batch run says %s" p (Json.to_string m)
             (Json.to_string r))
      | exception Oracle.Wrong msg -> fail env cls (p ^ ": " ^ msg));
      Gc.compact ())
    answers

let serve_programs = [ "hsqldb"; "findbugs"; "jython"; "eclipse"; "jedit" ]

(** Set-up starts the server and analyzes every program's revision 0. Then
    [rounds] rounds each send every program's next revision through a cold
    and a warm analyze and five reads. *)
let serve env ~local ~programs ~rounds ~reps =
  let conn =
    set_up env ~reps ~discard:close_conn (fun () ->
        let conn = open_conn ~local in
        (try List.iter (fun p -> ignore (load_base env conn p)) programs
         with e ->
           close_conn conn;
           raise e);
        conn)
  in
  let cold_answers = ref [] in
  Fun.protect
    ~finally:(fun () -> close_conn conn)
    (fun () ->
      for r = 1 to rounds do
        List.iter
          (fun p ->
            let src = source env p r in
            let send ?after ~cold name cmd =
              send ?after env conn ~cls:(p ^ "/" ^ name) ~cold ~name:p src cmd
            in
            match
              send "analyze" Analyze ~cold:true
                ~after:(solved_counters env ~cls:(p ^ "/analyze") ~src)
            with
            | None -> ()
            | Some (j, _) ->
              let m = metrics_of [ "result"; "metrics" ] j in
              cold_answers := (p, src, m) :: !cold_answers;
              ignore
                (send "analyze-warm" Analyze ~cold:false ~after:(fun (j, _) ->
                     if Json.member "cached" j <> Some (Json.Bool true) then
                       wrong "warm analyze not answered from the cache";
                     if metrics_of [ "result"; "metrics" ] j <> m then
                       wrong "warm metrics differ from the cold ones"));
              List.iter
                (fun (name, cmd) -> ignore (send name cmd ~cold:false))
                [ ("pt", Pt None); ("callgraph", Callgraph); ("check", Check);
                  ("taint", Taint); ("stats", Stats) ])
          programs
      done;
      finish_conn env conn);
  (* the server's cold answers against batch runs of the same revisions
     (traced replays answer through the batch path already) *)
  if not local then check_against_scratch env ~cls:"serve/analyze" (List.rev !cold_answers)

let edit_programs = [ "freecol"; "soot"; "columba" ]

(* every 4th revision and the last are checked against a scratch run *)
let checked ~rounds k = k mod 4 = 0 || k = rounds

(* after an update in a traced replay: reuse statistics, and the same
   revision solved from scratch, which the update must equal and beat *)
let update_counters env ~cls ~p ~src ~check (j, x) =
  match x with
  | Updated u when check ->
    let led = env.led and info = u.Session.up_info in
    Ledger.add_once led ~cls "pta.inc_dirty_methods" (float_of_int info.Csc_pta.Inc.i_dirty_methods);
    Ledger.add_once led ~cls "pta.inc_reuse_pct" (100. *. info.Csc_pta.Inc.i_reuse);
    Ledger.add_once led ~cls "pta.inc_chains" 1.;
    let t0 = now () in
    let _, o = Oracle.scratch ~name:p ~src Run.Imp_csc in
    let dt = now () -. t0 in
    Ledger.sample led "pta.inc_fresh" dt;
    Ledger.sample led ("pta.inc_fresh@" ^ cls) dt;
    let m = metrics_of [ "result"; "outcome"; "metrics" ] j in
    (match o.Run.o_metrics with
    | Some r when Report.metrics_json r = m -> ()
    | _ -> wrong "the update's metrics differ from a scratch run's")
  | _ -> ()

(** One edit chain per program, in turn, each on a server of its own (a
    session anchors a single chain, as an editor has one server per project;
    a shared server would also make every update mark the other chains'
    cached outcomes). Set-up starts the server and analyzes revision 0. Then
    [rounds] times: update to the next revision, and read one variable's
    points-to set and the taint report of the new revision. *)
let edit env ~local ~programs ~rounds =
  let setup = ref 0. in
  let to_check = ref [] in
  List.iter
    (fun p ->
      let t0 = now () in
      let conn = open_conn ~local in
      setup := !setup +. (now () -. t0);
      Fun.protect
        ~finally:(fun () -> close_conn conn)
        (fun () ->
          let base, s = load_base env conn p in
          setup := !setup +. s;
          let digest = ref base in
          for k = 1 to rounds do
            let src = source env p k in
            let send ?after ~cold name cmd =
              send ?after env conn ~cls:(p ^ "/" ^ name) ~cold ~name:p src cmd
            in
            match
              send "update" (Update !digest) ~cold:true
                ~after:(update_counters env ~cls:(p ^ "/update") ~p ~src ~check:(checked ~rounds k))
            with
            | None -> ()
            | Some (j, _) ->
              digest := digest_of [ "result"; "digest" ] j;
              if (not local) && checked ~rounds k then
                to_check := (p, src, metrics_of [ "result"; "outcome"; "metrics" ] j) :: !to_check;
              let var = Printf.sprintf "op0_0.er%d" (revision env k) in
              ignore (send "pt" (Pt (Some var)) ~cold:false);
              ignore (send "taint" Taint ~cold:false)
          done;
          finish_conn env conn))
    programs;
  env.setup <- !setup :: env.setup;
  check_against_scratch env ~cls:"edit/update" (List.rev !to_check)
