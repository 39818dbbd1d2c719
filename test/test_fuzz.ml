(** Tests for the soundness fuzzer: generator determinism, compileability
    of random programs, seed-corpus replay, a clean mini-campaign, and a
    self-test that an injected unsoundness is caught and minimized. *)

module Gen = Csc_workloads.Gen
module Frontend = Csc_lang.Frontend
module Validate = Csc_ir.Validate
module Soundness = Csc_fuzz.Soundness
module Campaign = Csc_fuzz.Campaign

let compile src =
  let p = Frontend.compile_string ~name:"fuzz-test" src in
  Validate.check_exn p;
  p

(* ------------------------------------------------------------ generator *)

let test_deterministic () =
  let render seed = Gen.Rand.render (Gen.Rand.generate ~seed ~max_size:30) in
  Alcotest.(check string) "same seed, same source" (render 7) (render 7);
  Alcotest.(check bool) "different seeds differ" true (render 7 <> render 8)

let replay_seeds_clean seeds =
  List.iter
    (fun seed ->
      let plan = Gen.Rand.generate ~seed ~max_size:25 in
      let p = compile (Gen.Rand.render plan) in
      match Soundness.check ~max_steps:2_000_000 p with
      | [] -> ()
      | vs ->
        Alcotest.failf "seed %d: %a" seed
          (Fmt.list ~sep:Fmt.comma Soundness.pp_violation)
          vs)
    seeds

let test_generated_programs_compile () =
  (* every generated program must compile, validate, and replay through the
     oracle without a violation — this is the PR-loop slice of the nightly
     campaign *)
  replay_seeds_clean (List.init 20 (fun i -> 100 + i))

(* the same oracle over the default analysis matrix, on three fixed seeds
   outside the range above *)
let test_oracle_matrix_seeds () = replay_seeds_clean [ 7; 99; 4242 ]

(* ------------------------------------------------------------- seed corpus *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let seed_files =
  [ "seed_1"; "seed_2"; "seed_4"; "seed_13"; "seed_15"; "cast_copy" ]

let test_seed_corpus_replay () =
  List.iter
    (fun name ->
      let src = read_file ("fuzz_seeds/" ^ name ^ ".mjava") in
      let p = compile src in
      match Soundness.check p with
      | [] -> ()
      | vs ->
        Alcotest.failf "%s: %a" name
          (Fmt.list ~sep:Fmt.comma Soundness.pp_violation)
          vs)
    seed_files

let test_seed_corpus_features () =
  (* the hand-picked corpus must keep covering the language features it was
     chosen for; regenerating it with a changed generator can silently lose
     coverage otherwise *)
  let all = String.concat "\n" (List.map (fun n -> read_file ("fuzz_seeds/" ^ n ^ ".mjava")) seed_files) in
  let has sub =
    Astring.String.find_sub ~sub all <> None
  in
  Alcotest.(check bool) "guarded cast" true (has "instanceof");
  Alcotest.(check bool) "containers: list" true (has "ArrayList");
  Alcotest.(check bool) "containers: map" true (has "HashMap");
  Alcotest.(check bool) "containers: iterator" true (has "Iterator");
  Alcotest.(check bool) "arrays" true (has "Object[");
  Alcotest.(check bool) "virtual dispatch" true (has ".act()")

(* ------------------------------------------------------------- campaigns *)

let test_clean_campaign () =
  let cfg = { Campaign.default_cfg with n = 30; seed = 7; progress = false } in
  let r = Campaign.run cfg in
  Alcotest.(check int) "all programs checked" 30 r.r_total;
  Alcotest.(check int) "no violations" 0 (List.length r.r_failed);
  Alcotest.(check int) "no generator errors" 0 r.r_gen_errors

let test_injected_unsoundness_caught () =
  (* drop store-pattern shortcut edges for the whole campaign: the oracle
     must notice, and the shrinker must bring a counterexample under the
     30-app-statement bar from the acceptance criteria *)
  let cfg =
    { Campaign.default_cfg with
      n = 40;
      seed = 42;
      inject_unsound = true;
      minimize = true;
      progress = false;
    }
  in
  let r = Campaign.run cfg in
  Alcotest.(check bool) "sabotage flag restored" false
    !Csc_core.Csc.sabotage_drop_shortcuts;
  Alcotest.(check bool) "violations found" true (r.r_failed <> []);
  let minimized =
    List.filter_map (fun c -> c.Campaign.c_min_app_stmts) r.r_failed
  in
  Alcotest.(check bool) "at least one case minimized" true (minimized <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "minimized to %d app statements (< 30)" n)
        true (n < 30))
    minimized

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator deterministic" `Quick test_deterministic;
        Alcotest.test_case "generated programs compile and replay clean" `Slow
          test_generated_programs_compile;
        Alcotest.test_case "oracle matrix: seeds 7/99/4242" `Slow
          test_oracle_matrix_seeds;
        Alcotest.test_case "seed corpus replays clean" `Slow
          test_seed_corpus_replay;
        Alcotest.test_case "seed corpus covers target features" `Quick
          test_seed_corpus_features;
        Alcotest.test_case "clean mini-campaign" `Slow test_clean_campaign;
        Alcotest.test_case "injected unsoundness caught and minimized" `Slow
          test_injected_unsoundness_caught;
      ] );
  ]
