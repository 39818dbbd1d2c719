(** The resident analysis server: a single-process daemon answering
    newline-delimited JSON requests over a unix socket, backed by one
    {!Csc_driver.Session} so repeat queries are served from the digest-keyed
    result cache instead of re-solving.

    {2 Wire protocol}

    One JSON object per line in each direction. Requests name a command and
    a program, plus optional run-spec overrides:

    {v
    {"cmd": "analyze", "program": "findbugs", "analysis": "csc"}
    {"cmd": "pt", "program": "hello.mjava", "analysis": "csc", "var": "main.x"}
    {"cmd": "stats"}
    {"cmd": "shutdown"}
    v}

    - [cmd] (required): one of [analyze], [pt], [callgraph], [check],
      [taint], [explain], [profile], [update], [stats], [shutdown].
    - [program]: a workload-suite name or a [.mjava] path (resolved
      server-side); alternatively [source] carries inline MiniJava text
      (with an optional [name] for error positions).
    - [analysis]: any spelling {!Csc_driver.Run.analysis_of_string} accepts.
    - run-spec override, optional: [budget_s] — the default comes from the
      spec the server was created with. [budget_s] must be positive and can
      only lower the server's budget: the solve runs under the smaller of
      the two. A profile is asked for with the [profile] command. Members
      the protocol does not name are ignored.
    - command-specific: [var] (pt, explain), [limit] (explain),
      [include_jdk] (pt, callgraph, check, taint), [checks] (check, a list
      of checker names), [spec] (taint, a JSON taint-spec path), [top]
      (profile).
    - [id]: any JSON value, echoed verbatim in the reply.

    [update] analyzes an edited revision of an already-loaded program
    ({!Csc_driver.Session.update}): [digest] (required) names the base
    program (every [analyze] reply carries the program's [digest] beside
    [result]), and either [edits] — an array of
    [{"op": "replace", "class": C, "method": M, "body": "<statements>"}] /
    [{"op": "add", "class": C, "src": "..."}] /
    [{"op": "remove", "class": C, "method": M}] objects applied in order to
    the base source ({!Csc_lang.Edit.apply}, which finds classes, methods
    and braces on the compiler's own tokens) — or [source], the full edited
    text. The edited text compiles through the program cache and solves
    through the result cache, like an [analyze] of it: the result carries
    the new revision's [digest] (the base for subsequent updates) and the
    ordinary analyze [outcome], and [cached] is true when that revision was
    already solved. A replace puts ["\n" ^ body ^ "\n  "] between the
    method's braces; an add puts ["  " ^ src ^ "\n"] before the class's
    closing brace; a remove cuts from the method's first token to its
    closing brace.

    Replies are versioned envelopes: [{"schema": 1, "id": ..., "ok": true,
    "cmd": ..., "cached": ..., "result": {...}}] on success — [cached] is
    present on session-backed commands and true when the answer came from
    the result cache — and [{"schema": 1, "id": ..., "ok": false, "error":
    {"code": ..., "message": ...}}] on failure. The codes [bad-request],
    [not-found], [compile] and [timeout] are {!Query}'s refusals, the same
    ones the batch CLI prints; the server adds [parse] (the line is not
    JSON), [bad-request] for malformed members or a line longer than
    {!max_request_bytes}, [unknown-cmd], and
    [internal] for an exception no handler anticipated (those also count in
    the [server_internal_errors] counter).

    {2 Concurrency model}

    Single-writer by construction: one thread, one connection at a time,
    requests handled strictly in arrival order (DESIGN.md S19). Telemetry
    rides on an internal {!Csc_obs.Registry}: per-command request counters,
    session cache hits/misses, a request-latency histogram and an in-flight
    gauge, all exposed by the [stats] command. *)

type t

(** [create ()] builds a server state with a fresh session. [max_mem_bytes]
    bounds the session's result cache (default 1 GiB); [defaults] seeds the
    per-request run spec (its [sp_analysis] is the analysis used when a
    request names none). *)
val create : ?max_mem_bytes:int -> ?defaults:Csc_driver.Run.spec -> unit -> t

(** The session behind the server (tests assert on its counters). *)
val session : t -> Csc_driver.Session.t

(** True once a [shutdown] request has been handled. *)
val stopped : t -> bool

(** Handle one request line, producing one reply line (no trailing
    newline). Total: every failure mode is an error reply, never an
    exception. This is the full router — the socket loop and the tests both
    sit on it. *)
val handle_line : t -> string -> string

(** The longest request line [serve] reads (16 MiB). A longer line is
    read to its end and dropped, and answered with a [bad-request] that
    names this limit; the connection then goes on to its next request. *)
val max_request_bytes : int

(** Bind [socket], listen, and serve connections one at a time until a
    [shutdown] request arrives; the socket file is removed on exit. A socket
    already at the path (an earlier server's) is unlinked first; any other
    existing file is left in place and refused with a [bad-request]
    {!Query.Reject} before anything is bound. Ignores SIGPIPE for the
    duration. Starts with a full major collection, so a server forked from
    another process does not inherit that process's GC phase. *)
val serve : t -> socket:string -> unit
