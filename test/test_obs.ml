(** Observability subsystem coverage: JSON round-trips, registry semantics,
    snapshot properties, Timer budgets (including the solver timeout path),
    trace-file validity and provenance chains. *)

open Helpers
module Json = Csc_obs.Json
module Snapshot = Csc_obs.Snapshot
module Registry = Csc_obs.Registry
module Trace = Csc_obs.Trace
module Prov = Csc_obs.Provenance
module Timer = Csc_common.Timer
module Solver = Csc_pta.Solver
module Run = Csc_driver.Run
module Bits = Csc_common.Bits
module Gen = Csc_workloads.Gen

(* ----------------------------------------------------------------- json *)

let test_json_parse_print () =
  let s = {|{"a": [1, 2.5, true, null, "x\nA"], "b": {"c": -3}}|} in
  match Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Json.parse (Json.to_string j) with
    | Ok j2 -> Alcotest.(check bool) "reparse equal" true (j = j2)
    | Error e -> Alcotest.fail e)

let test_json_escapes () =
  let j = Json.Str "a\"b\\c\nd\te\x01f" in
  (match Json.parse (Json.to_string j) with
  | Ok j2 -> Alcotest.(check bool) "string escapes round-trip" true (j = j2)
  | Error e -> Alcotest.fail e);
  (* pretty printing parses back to the same value *)
  let big = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Bool false ]) ] in
  match Json.parse (Json.to_string ~pretty:true big) with
  | Ok j2 -> Alcotest.(check bool) "pretty round-trip" true (big = j2)
  | Error e -> Alcotest.fail e

(* The printer's escaper as it was before its fast path, kept as the
   reference the optimized one must match byte for byte. *)
let reference_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* printing matches the reference escaper and parses back to the string *)
let json_string_law s =
  let text = Json.to_string (Json.Str s) in
  text = "\"" ^ reference_escape s ^ "\"" && Json.parse text = Ok (Json.Str s)

(* random bytes, biased toward what the codec treats specially *)
let json_bytes_gen =
  let open QCheck2.Gen in
  string_size
    ~gen:
      (frequency
         [ (6, char_range 'a' 'z');
           (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '/' ]);
           (1, char_range '\000' '\031');
           (1, char_range '\128' '\255');
           (1, char) ])
    (int_range 0 64)

let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"json string print matches reference, re-parses"
    ~count:1000 ~print:String.escaped json_bytes_gen json_string_law

let test_json_string_runs () =
  let plain = String.make 200 'a' in
  List.iter
    (fun s ->
      Alcotest.(check bool) (String.escaped s) true (json_string_law s))
    [ ""; plain; "\"" ^ plain; plain ^ "\\" ^ plain; plain ^ "\n";
      "\001" ^ plain ^ "\"" ^ plain ^ "\031"; "\xe2\x82\xac" ^ plain ];
  (* a plain run with nothing to escape is returned as is *)
  Alcotest.(check bool) "no copy" true (Json.escape plain == plain);
  (* an unterminated string reports the end of input, with or without an
     escape before the plain run *)
  let unterminated s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> e
  in
  Alcotest.(check string) "plain run"
    "JSON parse error at offset 201: unterminated string"
    (unterminated ("\"" ^ plain));
  Alcotest.(check string) "escape then plain run"
    "JSON parse error at offset 203: unterminated string"
    (unterminated ("\"\\n" ^ plain));
  Alcotest.(check string) "dangling backslash"
    "JSON parse error at offset 202: unterminated escape"
    (unterminated ("\"" ^ plain ^ "\\"))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("parser accepted: " ^ s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

(* finite floats only: NaN/inf have no JSON representation (they render as
   null), so the round-trip law is stated over finite values *)
let finite_float_gen =
  QCheck2.Gen.map
    (fun f -> if Float.is_finite f then f else 0.5)
    QCheck2.Gen.float

let prop_json_float_roundtrip =
  QCheck2.Test.make ~name:"json float print/parse is exact" ~count:500
    finite_float_gen (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Int64.bits_of_float g = Int64.bits_of_float f
      | Ok (Json.Int n) -> float_of_int n = f
      | _ -> false)

(* ------------------------------------------------------------- registry *)

let test_registry_counters () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hits" in
  let c' = Registry.counter reg "hits" in
  Registry.incr c;
  Registry.incr ~by:2 c';
  (* handles are memoized per (name, labels): both point at the same cell *)
  Alcotest.(check int) "memoized handle" 3 (Registry.value c);
  let lx = Registry.counter reg ~labels:[ ("pattern", "x") ] "sc" in
  let ly = Registry.counter reg ~labels:[ ("pattern", "y") ] "sc" in
  Registry.incr lx;
  Registry.incr ~by:2 ly;
  let s = Registry.snapshot reg in
  Alcotest.(check (option int)) "labelled sum" (Some 3)
    (Snapshot.counter_value s "sc");
  Alcotest.(check (option int))
    "exact label match" (Some 1)
    (Snapshot.counter_value ~labels:[ ("pattern", "x") ] s "sc");
  Alcotest.(check (option int)) "absent counter" None
    (Snapshot.counter_value s "nope")

let test_registry_gauges_histograms () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "peak" in
  Registry.set_max g 2.0;
  Registry.set_max g 1.0;
  Alcotest.(check (float 0.)) "set_max keeps max" 2.0 (Registry.gauge_value g);
  let h = Registry.histogram reg ~buckets:[ 1.0; 10.0 ] "lat" in
  Registry.observe h 0.5;
  Registry.observe h 5.0;
  Registry.observe h 100.0;
  let s = Registry.snapshot reg in
  (match
     List.find_opt
       (fun m -> Snapshot.metric_name m = "lat")
       (Snapshot.metrics s)
   with
  | Some (Snapshot.Histogram { bounds; counts; count; sum; _ }) ->
    Alcotest.(check (list (float 0.))) "bounds" [ 1.0; 10.0 ] bounds;
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ] counts;
    Alcotest.(check int) "total count" 3 count;
    Alcotest.(check (float 1e-9)) "sum" 105.5 sum
  | _ -> Alcotest.fail "histogram missing from snapshot");
  Alcotest.(check (option (float 0.))) "gauge in snapshot" (Some 2.0)
    (Snapshot.gauge_value s "peak")

(* ------------------------------------------------------------- snapshot *)

let test_snapshot_renderers () =
  let s =
    Snapshot.of_metrics
      [
        Snapshot.Counter { name = "ptrs"; labels = []; value = 7 };
        Snapshot.Gauge { name = "time_s"; labels = []; value = 1.5 };
      ]
  in
  let line = Snapshot.to_line s in
  Alcotest.(check bool) "to_line has counter" true
    (Astring.String.is_infix ~affix:"ptrs=7" line);
  let s' = Snapshot.with_counter s "prov_records" 3 in
  Alcotest.(check (option int)) "with_counter" (Some 3)
    (Snapshot.counter_value s' "prov_records")

(* ---------------------------------------------------------------- timer *)

let test_timer_no_budget () =
  (* never expires, however often it is checked *)
  for _ = 1 to 1000 do
    Timer.check Timer.no_budget
  done

let test_timer_expiry () =
  let b = Timer.budget (Some 1e-9) in
  (* spin past the (essentially immediate) deadline, then the check raises *)
  let t0 = Timer.now () in
  while Timer.now () -. t0 < 0.01 do
    ignore (Sys.opaque_identity 0)
  done;
  Alcotest.check_raises "expired budget raises" Timer.Out_of_budget (fun () ->
      Timer.check b)

let test_timer_heap_cap_is_relative () =
  (* the heap already exceeds this budget's cap when it is created (as it
     does after an earlier solve aborted at the cap: the major heap does not
     shrink), yet the budget must only count growth from here *)
  let max_gb = 1e-6 in
  Alcotest.(check bool) "heap already past the cap" true
    (float (Gc.quick_stat ()).Gc.heap_words *. float (Sys.word_size / 8)
    > max_gb *. 1024. *. 1024. *. 1024.);
  let b = Timer.budget ~max_gb (Some 3600.) in
  Timer.check b

let test_timer_heap_cap_without_deadline () =
  (* no deadline drops only the deadline: growing the major heap past a
     1 MB cap must still raise (64 x 800 KB bounds the test's own growth) *)
  let b = Timer.budget ~max_gb:1e-3 None in
  let keep = ref [] in
  Alcotest.check_raises "heap growth past the cap raises" Timer.Out_of_budget
    (fun () ->
      for _ = 1 to 64 do
        keep := Array.make 100_000 0 :: !keep;
        Timer.check b
      done);
  ignore (Sys.opaque_identity !keep)

let test_timeout_outcome_snapshot () =
  (* the solver timeout path must flag the outcome AND still deliver a
     well-formed snapshot of the aborted state *)
  let p = compile Fixtures.carton in
  let o = Run.run_spec { (Run.spec Run.Imp_ci) with sp_budget_s = Some 1e-9 } p in
  Alcotest.(check bool) "timed out" true o.Run.o_timeout;
  match o.Run.o_snapshot with
  | None -> Alcotest.fail "timed-out outcome lost its snapshot"
  | Some s -> (
    match Json.parse (Json.to_string (Snapshot.to_json s)) with
    | Ok _ ->
      Alcotest.(check bool) "counters read back" true
        (Snapshot.counter_value s "ptrs" <> None)
    | Error e -> Alcotest.fail ("timeout snapshot not well-formed: " ^ e))

(* ---------------------------------------------------------------- trace *)

let test_trace_file_valid () =
  let file = Filename.temp_file "csc_trace" ".json" in
  Trace.start ~file;
  Alcotest.(check bool) "tracing active" true (Trace.active ());
  let v =
    Trace.with_span ~cat:"test" "outer" (fun () ->
        Trace.instant "marker";
        Trace.counter "series" [ ("v", 1.0) ];
        Trace.sample_gc ();
        Trace.with_span "inner" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "with_span returns" 42 v;
  (* spans close even when the body raises *)
  (try Trace.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.finish ();
  Alcotest.(check bool) "tracing stopped" false (Trace.active ());
  let ic = open_in file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  match Json.parse s with
  | Error e -> Alcotest.fail ("trace file is not valid JSON: " ^ e)
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.List evs) ->
      Alcotest.(check bool) "several events" true (List.length evs >= 5);
      List.iter
        (fun e ->
          match (Json.member "name" e, Json.member "ph" e, Json.member "ts" e)
          with
          | Some (Json.Str _), Some (Json.Str _), Some _ -> ()
          | _ -> Alcotest.fail "malformed trace event")
        evs;
      let has name =
        List.exists
          (fun e -> Json.member "name" e = Some (Json.Str name))
          evs
      in
      Alcotest.(check bool) "outer span present" true (has "outer");
      Alcotest.(check bool) "failed span still closed" true (has "boom")
    | _ -> Alcotest.fail "trace file has no traceEvents array")

(* ----------------------------------------------------------- provenance *)

let test_provenance_chains () =
  let p = compile Fixtures.carton in
  let t = Solver.create p in
  Solver.enable_provenance t;
  Solver.run t;
  let pr =
    match Solver.provenance t with
    | Some pr -> pr
    | None -> Alcotest.fail "provenance not enabled"
  in
  Alcotest.(check bool) "facts recorded" true (Prov.size pr > 0);
  (* every held points-to fact has a derivation chain ending in a seed *)
  let checked = ref 0 in
  Solver.iter_ptrs t (fun ptr desc ->
      match desc with
      | Solver.PVar _ ->
        Bits.iter
          (fun obj ->
            if !checked < 50 then begin
              incr checked;
              (match List.rev (Prov.chain pr ~ptr ~obj) with
              | (_, Prov.Seed _) :: _ -> ()
              | (_, Prov.Flow _) :: _ -> Alcotest.fail "chain does not end in a seed"
              | [] -> Alcotest.fail "held fact has no derivation");
              match Solver.explain_chain t ~ptr ~obj with
              | [] -> Alcotest.fail "explain_chain empty for held fact"
              | lines ->
                List.iter
                  (fun l ->
                    Alcotest.(check bool) "rendered step" true
                      (Astring.String.is_infix ~affix:" <- " l))
                  lines
            end)
          (Solver.pts t ptr)
      | _ -> ());
  Alcotest.(check bool) "some facts checked" true (!checked > 0)

let test_provenance_first_write_wins () =
  let pr = Prov.create () in
  Prov.record_seed pr ~ptr:1 ~obj:9 ~label:"alloc";
  Prov.record_flow pr ~ptr:1 ~obj:9 ~src:2 ~via:"flow";
  (match Prov.reason pr ~ptr:1 ~obj:9 with
  | Some (Prov.Seed { label }) -> Alcotest.(check string) "first wins" "alloc" label
  | _ -> Alcotest.fail "seed record lost");
  Prov.record_flow pr ~ptr:3 ~obj:9 ~src:1 ~via:"flow";
  match Prov.chain pr ~ptr:3 ~obj:9 with
  | [ (3, Prov.Flow { src = 1; via = "flow" }); (1, Prov.Seed _) ] -> ()
  | c -> Alcotest.fail (Printf.sprintf "unexpected chain of length %d" (List.length c))

(* ------------------------------------------------- counter monotonicity *)

(* solver counters only ever move up: observed from inside the run via a
   plugin callback, over generated workloads *)
let prop_counters_monotone =
  QCheck2.Test.make ~name:"solver counters are monotone during solving"
    ~count:5
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let src = Gen.generate { Gen.small_shape with Gen.seed } in
      let p = compile src in
      let t = Solver.create p in
      let ok = ref true in
      let last = ref (0, 0, 0, 0) in
      let probe =
        {
          Solver.no_plugin with
          Solver.pl_name = "probe";
          pl_on_new_pts =
            (fun _ _ ->
              let s = Solver.snapshot t in
              let get n =
                Option.value ~default:0 (Snapshot.counter_value s n)
              in
              let cur =
                ( get "ptrs",
                  get "pfg_edges",
                  get "propagated",
                  get "cs_call_edges" )
              in
              let a, b, c, d = !last and a', b', c', d' = cur in
              if a' < a || b' < b || c' < c || d' < d then ok := false;
              last := cur);
        }
      in
      Solver.set_plugin t probe;
      Solver.run t;
      (* final snapshot dominates everything observed mid-run *)
      let s = Solver.snapshot t in
      let get n = Option.value ~default:0 (Snapshot.counter_value s n) in
      let a, b, c, d = !last in
      !ok && get "ptrs" >= a && get "pfg_edges" >= b && get "propagated" >= c
      && get "cs_call_edges" >= d)

let suite =
  [
    ( "obs-json",
      [
        Alcotest.test_case "parse/print round-trip" `Quick test_json_parse_print;
        Alcotest.test_case "string escapes" `Quick test_json_escapes;
        Alcotest.test_case "rejects malformed input" `Quick
          test_json_rejects_garbage;
        Alcotest.test_case "escapes around plain runs" `Quick
          test_json_string_runs;
        QCheck_alcotest.to_alcotest ~long:true prop_json_float_roundtrip;
        QCheck_alcotest.to_alcotest ~long:true prop_json_string_roundtrip;
      ] );
    ( "obs-metrics",
      [
        Alcotest.test_case "registry counters" `Quick test_registry_counters;
        Alcotest.test_case "gauges and histograms" `Quick
          test_registry_gauges_histograms;
        Alcotest.test_case "snapshot renderers" `Quick test_snapshot_renderers;
        QCheck_alcotest.to_alcotest ~long:true prop_counters_monotone;
      ] );
    ( "obs-timer",
      [
        Alcotest.test_case "no_budget never expires" `Quick test_timer_no_budget;
        Alcotest.test_case "budget expiry raises" `Quick test_timer_expiry;
        Alcotest.test_case "heap cap counts growth from creation" `Quick
          test_timer_heap_cap_is_relative;
        Alcotest.test_case "heap cap holds without a deadline" `Quick
          test_timer_heap_cap_without_deadline;
        Alcotest.test_case "timeout outcome keeps snapshot" `Quick
          test_timeout_outcome_snapshot;
      ] );
    ( "obs-trace",
      [ Alcotest.test_case "trace file is valid" `Quick test_trace_file_valid ] );
    ( "obs-provenance",
      [
        Alcotest.test_case "chains end in seeds" `Quick test_provenance_chains;
        Alcotest.test_case "first write wins" `Quick
          test_provenance_first_write_wins;
      ] );
  ]
