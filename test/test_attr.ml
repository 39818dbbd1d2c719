(** Cost-attribution layer coverage: histogram bucket laws, counter
    monotonicity observed from inside a solve, the disabled path's
    zero-allocation guarantee, profile rendering determinism, and the
    provenance memory cap. *)

open Helpers
module Attr = Csc_obs.Attr
module Json = Csc_obs.Json
module Prov = Csc_obs.Provenance
module Snapshot = Csc_obs.Snapshot
module Solver = Csc_pta.Solver
module Run = Csc_driver.Run
module Gen = Csc_workloads.Gen

(* ---------------------------------------------------------- histogram *)

let test_bucket_boundaries () =
  let cases =
    [ (0, 0); (1, 0);            (* bucket 0: delta <= 1 *)
      (2, 1);                    (* bucket i: (2^(i-1), 2^i] *)
      (3, 2); (4, 2);
      (5, 3); (8, 3);
      (9, 4); (16, 4);
      (1024, 10); (1025, 11);
      (1 lsl 22, 22) ]
  in
  List.iter
    (fun (d, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" d) b (Attr.bucket_of d))
    cases;
  (* everything past the last boundary clamps into the final bucket *)
  Alcotest.(check int) "clamped" (Attr.n_buckets - 1)
    (Attr.bucket_of ((1 lsl 22) + 1));
  Alcotest.(check int) "clamped max_int" (Attr.n_buckets - 1)
    (Attr.bucket_of max_int);
  (* labels: every bucket has one, the last is open-ended *)
  for i = 0 to Attr.n_buckets - 1 do
    Alcotest.(check bool) "label non-empty" true
      (String.length (Attr.bucket_label i) > 0)
  done;
  Alcotest.(check bool) "last label open-ended" true
    (String.length (Attr.bucket_label (Attr.n_buckets - 1)) > 0
    && (Attr.bucket_label (Attr.n_buckets - 1)).[0] = '>')

let test_observe_totals () =
  let a = Attr.create () in
  Attr.observe_pop a ~meth:1 ~ptr:10 ~delta:3;
  Attr.observe_pop a ~meth:1 ~ptr:11 ~delta:1;
  Attr.observe_pop a ~meth:2 ~ptr:12 ~delta:64;
  Attr.observe_shortcut a ~meth:2 ~ptr:12;
  Alcotest.(check int) "pops" 3 (Attr.pops a);
  Alcotest.(check int) "props" 68 (Attr.props a);
  Alcotest.(check int) "shortcuts" 1 (Attr.shortcuts a);
  let p =
    Attr.render a ~engine:"test" ~meth_name:string_of_int
      ~ptr_name:string_of_int
  in
  (* per-row attribution sums back to the totals *)
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 p.Attr.p_methods in
  Alcotest.(check int) "method props sum" 68 (sum (fun e -> e.Attr.e_props));
  Alcotest.(check int) "method pops sum" 3 (sum (fun e -> e.Attr.e_pops));
  (* the histogram saw one delta in each of buckets 0, 2 and 6 *)
  Alcotest.(check int) "hist mass" 3
    (List.fold_left (fun acc (_, n) -> acc + n) 0 p.Attr.p_hist);
  (* hottest method first: meth 2 propagated 64, meth 1 only 4 *)
  (match p.Attr.p_methods with
  | e :: _ -> Alcotest.(check string) "hottest method" "2" e.Attr.e_name
  | [] -> Alcotest.fail "no method rows")

let test_rule_rows_memoized () =
  let a = Attr.create () in
  let r = Attr.rule a "R" in
  Attr.rule_fire r;
  Attr.rule_tuples ~by:5 r;
  Attr.rule_scans r 7;
  (* a second handle for the same name hits the same row *)
  let r' = Attr.rule a "R" in
  Attr.rule_fire r';
  Attr.rule_time r' 0.25;
  let p =
    Attr.render a ~engine:"test" ~meth_name:string_of_int
      ~ptr_name:string_of_int
  in
  match p.Attr.p_rules with
  | [ re ] ->
    Alcotest.(check string) "name" "R" re.Attr.re_name;
    Alcotest.(check int) "fires merged" 2 re.Attr.re_fires;
    Alcotest.(check int) "tuples" 5 re.Attr.re_tuples;
    Alcotest.(check int) "scans" 7 re.Attr.re_scans;
    Alcotest.(check (float 1e-9)) "time" 0.25 re.Attr.re_time
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 rule row, got %d" (List.length rs))

(* ------------------------------------------------------- monotonicity *)

(* attribution totals only ever move up, observed from inside the run via a
   plugin callback *)
let prop_attr_monotone =
  QCheck2.Test.make ~name:"attribution totals are monotone during solving"
    ~count:5
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let src = Gen.generate { Gen.small_shape with Gen.seed } in
      let p = compile src in
      let t = Solver.create p in
      Solver.enable_attr t;
      let a =
        match Solver.attr t with
        | Some a -> a
        | None -> QCheck2.Test.fail_report "enable_attr did not install a table"
      in
      let ok = ref true in
      let last = ref (0, 0, 0) in
      let probe =
        {
          Solver.no_plugin with
          Solver.pl_name = "probe";
          pl_on_new_pts =
            (fun _ _ ->
              let cur = (Attr.pops a, Attr.props a, Attr.shortcuts a) in
              let w, x, z = !last and w', x', z' = cur in
              if w' < w || x' < x || z' < z then ok := false;
              last := cur);
        }
      in
      Solver.set_plugin t probe;
      Solver.run t;
      let w, x, z = !last in
      !ok && Attr.pops a >= w && Attr.props a >= x && Attr.shortcuts a >= z
      (* the run did real work and the table saw it *)
      && Attr.pops a > 0 && Attr.props a > 0)

(* ------------------------------------------------------ disabled path *)

(* the [None] guard every instrumentation site sits behind must not allocate:
   that is the whole near-zero-overhead contract of the disabled mode *)
let test_disabled_path_no_alloc () =
  (* a solver without enable_attr holds no table *)
  let p = compile Fixtures.carton in
  let t = Solver.create p in
  Alcotest.(check bool) "attr off by default" true (Solver.attr t = None);
  let attr = ref None in
  let sink = ref 0 in
  (* warm up so the closure and ref are allocated before measuring *)
  (match !attr with None -> incr sink | Some a -> Attr.observe_shortcut a ~meth:0 ~ptr:0);
  let before = Gc.allocated_bytes () in
  for i = 1 to 1_000_000 do
    match !attr with
    | None -> sink := !sink + (i land 1)
    | Some a -> Attr.observe_pop a ~meth:0 ~ptr:0 ~delta:1
  done;
  let after = Gc.allocated_bytes () in
  (* allocated_bytes itself boxes a float; allow a small slop, nothing like
     1M iterations' worth *)
  Alcotest.(check bool) "no allocation on the disabled branch" true
    (after -. before < 4096.);
  Alcotest.(check bool) "loop ran" true (!sink > 0)

(* -------------------------------------------------------- determinism *)

let profile_of_run analysis =
  let p = compile Fixtures.carton in
  let s = { (Run.spec analysis) with sp_profile = true } in
  match (Run.run_spec s p).Run.o_profile with
  | Some pr -> pr
  | None -> Alcotest.fail "profiled run produced no profile"

(* plugin hook rows carry wall-clock times; everything else, row order
   included, is a function of the run *)
let without_times (p : Attr.profile) =
  { p with
    p_rules = List.map (fun r -> { r with Attr.re_time = 0. }) p.p_rules }

let test_profile_json_deterministic () =
  let p1 = without_times (profile_of_run Run.Imp_csc) in
  let p2 = without_times (profile_of_run Run.Imp_csc) in
  let s1 = Json.to_string ~pretty:true (Attr.profile_json p1) in
  let s2 = Json.to_string ~pretty:true (Attr.profile_json p2) in
  Alcotest.(check string) "identical across runs" s1 s2;
  (* the document parses back and carries the stable top-level keys *)
  (match Json.parse s1 with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (option string)) "engine" (Some "imperative")
      (Option.bind (Json.member "engine" j) Json.get_string);
    List.iter
      (fun k ->
        if Json.member k j = None then Alcotest.fail ("missing key " ^ k))
      [ "totals"; "methods"; "pointers"; "rules"; "delta_hist" ]);
  (* rendered tables are sorted hottest-first *)
  let rec descending = function
    | (a : Attr.entry) :: (b : Attr.entry) :: rest ->
      a.e_props >= b.e_props && descending (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "methods hottest-first" true (descending p1.p_methods);
  Alcotest.(check bool) "pointers hottest-first" true (descending p1.p_pointers);
  (* text rendering is stable too, and mentions every section *)
  let t1 = Attr.profile_text p1 and t2 = Attr.profile_text p2 in
  Alcotest.(check string) "text identical" t1 t2;
  List.iter
    (fun section ->
      Alcotest.(check bool) section true
        (Astring.String.is_infix ~affix:section t1))
    [ "hot methods"; "hot pointers"; "rules"; "delta size histogram" ]

let test_profile_top_trims () =
  let pr = profile_of_run Run.Imp_ci in
  Alcotest.(check bool) "several method rows" true
    (List.length pr.Attr.p_methods > 1);
  let p = compile Fixtures.carton in
  let o =
    Run.run_spec
      { (Run.spec Run.Imp_ci) with sp_profile = true; sp_profile_top = 1 }
      p
  in
  match o.Run.o_profile with
  | Some pr1 ->
    Alcotest.(check int) "top=1 keeps one method row" 1
      (List.length pr1.Attr.p_methods);
    Alcotest.(check int) "top=1 keeps one pointer row" 1
      (List.length pr1.Attr.p_pointers)
  | None -> Alcotest.fail "no profile"

(* the Datalog engine fills the rule table (per-rule and per-stratum rows) *)
let test_datalog_rule_attr () =
  let pr = profile_of_run Run.Doop_ci in
  Alcotest.(check string) "engine" "datalog" pr.Attr.p_engine;
  Alcotest.(check bool) "rule rows present" true (pr.Attr.p_rules <> []);
  Alcotest.(check bool) "stratum rows present" true
    (List.exists
       (fun (re : Attr.rule_entry) ->
         Astring.String.is_prefix ~affix:"stratum:" re.Attr.re_name)
       pr.Attr.p_rules);
  Alcotest.(check bool) "some tuples attributed" true
    (List.exists (fun (re : Attr.rule_entry) -> re.Attr.re_tuples > 0)
       pr.Attr.p_rules);
  Alcotest.(check bool) "some scans attributed" true
    (List.exists (fun (re : Attr.rule_entry) -> re.Attr.re_scans > 0)
       pr.Attr.p_rules);
  (* the scans column reaches both renderings *)
  Alcotest.(check bool) "text scans column" true
    (Astring.String.is_infix ~affix:"scans" (Attr.profile_text pr));
  match Option.bind (Json.member "rules" (Attr.profile_json pr)) Json.get_list with
  | Some (r :: _) ->
    Alcotest.(check bool) "json scans member" true (Json.member "scans" r <> None)
  | _ -> Alcotest.fail "no JSON rule rows"

(* the imperative CSC plugin attributes shortcut firings per pattern *)
let test_csc_pattern_attr () =
  let pr = profile_of_run Run.Imp_csc in
  Alcotest.(check bool) "csc:* rule rows present" true
    (List.exists
       (fun (re : Attr.rule_entry) ->
         Astring.String.is_prefix ~affix:"csc:" re.Attr.re_name
         && (not (Astring.String.is_prefix ~affix:"csc:on_" re.Attr.re_name))
         && re.Attr.re_fires > 0)
       pr.Attr.p_rules)

(* a profiled CSC run times each plugin hook into a row of its own; a run
   without a plugin has none *)
let test_plugin_hook_rows () =
  let hooks = [ "on_new_pts"; "on_edge"; "on_call_edge"; "on_reachable" ] in
  let fires (pr : Attr.profile) name =
    List.find_map
      (fun (re : Attr.rule_entry) ->
        if re.Attr.re_name = name then Some re.Attr.re_fires else None)
      pr.Attr.p_rules
  in
  let csc = profile_of_run Run.Imp_csc and ci = profile_of_run Run.Imp_ci in
  List.iter
    (fun h ->
      (match fires csc ("csc:" ^ h) with
      | Some n -> Alcotest.(check bool) ("csc:" ^ h ^ " fired") true (n > 0)
      | None -> Alcotest.fail ("no row csc:" ^ h));
      Alcotest.(check bool) ("ci has no " ^ h ^ " row") true
        (List.for_all
           (fun (re : Attr.rule_entry) ->
             not (Astring.String.is_suffix ~affix:(":" ^ h) re.Attr.re_name))
           ci.Attr.p_rules))
    hooks

(* --------------------------------------------------- provenance bound *)

let test_provenance_cap () =
  let pr = Prov.create ~max_records:3 () in
  for i = 0 to 9 do
    Prov.record_seed pr ~ptr:i ~obj:i ~label:"alloc"
  done;
  Alcotest.(check int) "size bounded" 3 (Prov.size pr);
  Alcotest.(check int) "drops counted" 7 (Prov.dropped pr);
  (* first-write-wins is unaffected below the bound *)
  Prov.record_flow pr ~ptr:0 ~obj:0 ~src:1 ~via:"flow";
  (match Prov.reason pr ~ptr:0 ~obj:0 with
  | Some (Prov.Seed _) -> ()
  | _ -> Alcotest.fail "retained record overwritten");
  (* duplicate records of a retained fact are ignores, not drops *)
  Alcotest.(check int) "dup is not a drop" 7 (Prov.dropped pr)

let test_provenance_cap_in_solver () =
  let p = compile Fixtures.carton in
  let t = Solver.create p in
  Solver.enable_provenance ~max_records:5 t;
  Solver.run t;
  let pr =
    match Solver.provenance t with
    | Some pr -> pr
    | None -> Alcotest.fail "provenance not enabled"
  in
  Alcotest.(check bool) "size respects the cap" true (Prov.size pr <= 5);
  Alcotest.(check bool) "drops observed" true (Prov.dropped pr > 0);
  (* the dropped count surfaces in the snapshot next to prov_records *)
  let s = Solver.snapshot t in
  Alcotest.(check (option int)) "prov_records counter" (Some (Prov.size pr))
    (Snapshot.counter_value s "prov_records");
  match Snapshot.counter_value s "prov_dropped" with
  | Some n when n > 0 -> ()
  | v ->
    Alcotest.fail
      (Printf.sprintf "prov_dropped missing or zero (%s)"
         (match v with None -> "absent" | Some n -> string_of_int n))

let suite =
  [
    ( "attr",
      [
        Alcotest.test_case "histogram bucket boundaries" `Quick
          test_bucket_boundaries;
        Alcotest.test_case "observe totals and rows" `Quick test_observe_totals;
        Alcotest.test_case "rule rows memoized by name" `Quick
          test_rule_rows_memoized;
        QCheck_alcotest.to_alcotest ~long:true prop_attr_monotone;
        Alcotest.test_case "disabled path allocates nothing" `Quick
          test_disabled_path_no_alloc;
        Alcotest.test_case "profile JSON deterministic" `Quick
          test_profile_json_deterministic;
        Alcotest.test_case "profile_top trims tables" `Quick
          test_profile_top_trims;
        Alcotest.test_case "datalog rule attribution" `Quick
          test_datalog_rule_attr;
        Alcotest.test_case "csc pattern attribution" `Quick
          test_csc_pattern_attr;
        Alcotest.test_case "csc plugin hook rows" `Quick test_plugin_hook_rows;
      ] );
    ( "attr-provenance",
      [
        Alcotest.test_case "recorder respects max_records" `Quick
          test_provenance_cap;
        Alcotest.test_case "cap surfaces in solver snapshot" `Quick
          test_provenance_cap_in_solver;
      ] );
  ]
