(** Resident analysis session: digest-keyed program cache + LRU result cache.
    See the interface for the contract; the representation notes here cover
    what the interface leaves open.

    LRU is a monotone tick stamped on every touch; eviction scans for the
    minimum — caches hold tens of entries, so O(n) eviction is irrelevant
    next to the solves it guards. The just-inserted entry is never evicted
    (a single outcome larger than the bound still has to be answered), so
    the cache holds at least one result. *)

module Ir = Csc_ir.Ir
module Json = Csc_obs.Json
module Registry = Csc_obs.Registry

let word_bytes = Sys.word_size / 8
let max_programs = 64

type prog_entry = {
  pe_prog : Ir.program;
  pe_src : string;  (** retained so [update] can apply textual edits *)
  mutable pe_tick : int;
}

type res_entry = {
  re_outcome : Run.outcome;
  re_bytes : int;
  mutable re_tick : int;
}

type t = {
  progs : (string, prog_entry) Hashtbl.t;
  results : (string * Run.spec, res_entry) Hashtbl.t;
  max_mem_bytes : int;
  mutable tick : int;
  mutable bytes : int;
  (* the counters live in an obs registry (the server's stats surface, or
     the session's own) and the accessors read them back *)
  c_hits : Registry.counter;
  c_misses : Registry.counter;
  c_evictions : Registry.counter;
  g_entries : Registry.gauge;
  g_bytes : Registry.gauge;
}

let create ?(max_mem_bytes = 1 lsl 30) ?(registry = Registry.create ()) () =
  {
    progs = Hashtbl.create 16;
    results = Hashtbl.create 32;
    max_mem_bytes;
    tick = 0;
    bytes = 0;
    c_hits = Registry.counter registry "session_cache_hits";
    c_misses = Registry.counter registry "session_cache_misses";
    c_evictions = Registry.counter registry "session_cache_evictions";
    g_entries = Registry.gauge registry "session_cache_entries";
    g_bytes = Registry.gauge registry "session_cache_bytes";
  }

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let digest_of_source (src : string) : string =
  Digest.to_hex (Digest.string src)

(* ----------------------------------------------------------- program cache *)

let evict_programs t =
  while Hashtbl.length t.progs > max_programs do
    let victim = ref None in
    Hashtbl.iter
      (fun d (e : prog_entry) ->
        match !victim with
        | Some (_, tick) when tick <= e.pe_tick -> ()
        | _ -> victim := Some (d, e.pe_tick))
      t.progs;
    match !victim with
    | Some (d, _) -> Hashtbl.remove t.progs d
    | None -> ()
  done

let load_source t ~name (src : string) : (Ir.program * string, string) result =
  let digest = digest_of_source src in
  match Hashtbl.find_opt t.progs digest with
  | Some e ->
    e.pe_tick <- next_tick t;
    Ok (e.pe_prog, digest)
  | None -> (
    match Csc_lang.Frontend.compile_string src with
    | p -> (
      match
        Csc_obs.Trace.with_span ~cat:"ir" "validate" (fun () ->
            Csc_ir.Validate.check p)
      with
      | [] ->
        Hashtbl.replace t.progs digest
          { pe_prog = p; pe_src = src; pe_tick = next_tick t };
        evict_programs t;
        Ok (p, digest)
      | errs ->
        Error
          (Printf.sprintf "%s: malformed IR: %s" name (String.concat "; " errs))
      )
    | exception
        ( Csc_lang.Ast.Syntax_error (pos, msg)
        | Csc_lang.Ast.Semantic_error (pos, msg) ) ->
      Error (Printf.sprintf "%s:%d:%d: %s" name pos.line pos.col msg)
    | exception e -> Error (Printexc.to_string e))

let load t (spec : string) =
  let compile src = Result.map_error (fun m -> `Compile m) (load_source t ~name:spec src) in
  if List.mem spec Csc_workloads.Suite.names then
    compile (Csc_workloads.Suite.source spec)
  else if Sys.file_exists spec then
    match In_channel.with_open_bin spec In_channel.input_all with
    | src -> compile src
    | exception Sys_error e ->
      Error (`Not_found (Printf.sprintf "cannot read program %S: %s" spec e))
  else
    Error
      (`Not_found
        (Printf.sprintf "unknown program %S (not a suite name or a file)" spec))

(* ------------------------------------------------------------ result cache *)

let entry_bytes (o : Run.outcome) : int =
  (* [reachable_words] follows the closures in the outcome ([r_pt]
     captures its points-to table, not the solver), so this measures real
     residency once every variable has been read (see [cache_result]);
     sharing across entries makes it an over-estimate, which only evicts
     sooner *)
  Obj.reachable_words (Obj.repr o) * word_bytes

let evict_results t =
  (* evict LRU entries until under the bound, but never the newest (the
     caller is about to use it) *)
  let continue = ref true in
  while !continue && t.bytes > t.max_mem_bytes && Hashtbl.length t.results > 1
  do
    let victim = ref None in
    Hashtbl.iter
      (fun k (e : res_entry) ->
        if e.re_tick <> t.tick then
          match !victim with
          | Some (_, _, tick) when tick <= e.re_tick -> ()
          | _ -> victim := Some (k, e.re_bytes, e.re_tick))
      t.results;
    match !victim with
    | Some (k, b, _) ->
      Hashtbl.remove t.results k;
      t.bytes <- t.bytes - b;
      Registry.incr t.c_evictions
    | None -> continue := false
  done

let publish t =
  Registry.set t.g_entries (float_of_int (Hashtbl.length t.results));
  Registry.set t.g_bytes (float_of_int t.bytes)

let cache_result t key (p : Ir.program) (o : Run.outcome) =
  (* the solver's result projects a variable on its first read; reading
     them all here keeps the entry from growing after it is counted, and
     releases the solver's sets it still shares *)
  Option.iter
    (fun (r : Csc_pta.Solver.result) ->
      for v = 0 to Array.length p.vars - 1 do
        ignore (r.r_pt v)
      done)
    o.o_result;
  let b = entry_bytes o in
  Hashtbl.replace t.results key
    { re_outcome = o; re_bytes = b; re_tick = next_tick t };
  t.bytes <- t.bytes + b;
  evict_results t;
  publish t

let outcome t ~digest (spec : Run.spec) (p : Ir.program) :
    Run.outcome * bool =
  let key = (digest, Run.spec_key spec) in
  match Hashtbl.find_opt t.results key with
  | Some e ->
    e.re_tick <- next_tick t;
    Registry.incr t.c_hits;
    (e.re_outcome, true)
  | None ->
    Registry.incr t.c_misses;
    let o = Run.run_spec spec p in
    cache_result t key p o;
    (o, false)

(* ------------------------------------------------------------------ update *)

type update_result = {
  up_outcome : Run.outcome;
  up_digest : string;  (** digest of the edited program *)
  up_info : Csc_pta.Inc.info;
  up_cached : bool;  (** the edited program's outcome was already cached *)
}

let update t ~digest ?source ?(edits = []) (spec : Run.spec) :
    (update_result, string) result =
  match Hashtbl.find_opt t.progs digest with
  | None -> Error (Printf.sprintf "unknown program digest %S" digest)
  | Some base -> (
    base.pe_tick <- next_tick t;
    let src =
      match source with
      | Some s -> Ok s
      | None -> Csc_lang.Edit.apply base.pe_src edits
    in
    match Result.bind src (load_source t ~name:"<update>") with
    | Error e -> Error e
    | Ok (p, up_digest) ->
      let o, cached = outcome t ~digest:up_digest spec p in
      Ok
        {
          up_outcome = o;
          up_digest;
          up_info = Csc_pta.Inc.fresh_info;
          up_cached = cached;
        })

(* ---------------------------------------------------------- introspection *)

let hits t = Registry.value t.c_hits
let misses t = Registry.value t.c_misses
let evictions t = Registry.value t.c_evictions
let entries t = Hashtbl.length t.results
let programs t = Hashtbl.length t.progs

let stats_json t : Json.t =
  Obj
    [ ("hits", Json.Int (hits t));
      ("misses", Json.Int (misses t));
      ("evictions", Json.Int (evictions t));
      ("entries", Json.Int (entries t));
      ("programs", Json.Int (programs t));
      ("bytes", Json.Int t.bytes);
      ("max_bytes", Json.Int t.max_mem_bytes) ]
