(** Unit + property tests for the bitset and other common substrate pieces. *)

open Csc_common

let test_add_mem () =
  let b = Bits.create () in
  Alcotest.(check bool) "empty" true (Bits.is_empty b);
  Alcotest.(check bool) "add 5" true (Bits.add b 5);
  Alcotest.(check bool) "re-add 5" false (Bits.add b 5);
  Alcotest.(check bool) "mem 5" true (Bits.mem b 5);
  Alcotest.(check bool) "mem 6" false (Bits.mem b 6);
  Alcotest.(check int) "card" 1 (Bits.cardinal b)

let test_growth () =
  let b = Bits.create () in
  ignore (Bits.add b 0);
  ignore (Bits.add b 1000);
  ignore (Bits.add b 100000);
  Alcotest.(check int) "card" 3 (Bits.cardinal b);
  Alcotest.(check (list int)) "elems" [ 0; 1000; 100000 ] (Bits.to_list b);
  (* every bit position of a word, the sign bit included *)
  for i = 0 to 3 * Sys.int_size do
    Alcotest.(check (list int)) "singleton" [ i ] (Bits.to_list (Bits.of_list [ i ]))
  done

let test_union_into () =
  let a = Bits.of_list [ 1; 2; 3 ] in
  let b = Bits.of_list [ 3; 4; 5 ] in
  (match Bits.union_into ~into:a b with
  | None -> Alcotest.fail "expected a delta"
  | Some d -> Alcotest.(check (list int)) "delta" [ 4; 5 ] (Bits.to_list d));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5 ] (Bits.to_list a);
  (* second union is a no-op *)
  match Bits.union_into ~into:a b with
  | None -> ()
  | Some _ -> Alcotest.fail "expected no delta"

let test_inter_nonempty () =
  let a = Bits.of_list [ 1; 64; 128 ] in
  let b = Bits.of_list [ 2; 65; 128 ] in
  Alcotest.(check bool) "overlap" true (Bits.inter_nonempty a b);
  let c = Bits.of_list [ 3; 66 ] in
  Alcotest.(check bool) "no overlap" false (Bits.inter_nonempty a c)

let test_remove () =
  let a = Bits.of_list [ 1; 2 ] in
  Bits.remove a 1;
  Alcotest.(check (list int)) "after remove" [ 2 ] (Bits.to_list a);
  Bits.remove a 77;
  Alcotest.(check int) "card stable" 1 (Bits.cardinal a)

let test_iter_diff () =
  let src = Bits.of_list [ 1; 2; 63; 64; 200 ] in
  let excl = Bits.of_list [ 2; 64; 300 ] in
  let seen = ref [] in
  Bits.iter_diff (fun i -> seen := i :: !seen) src excl;
  Alcotest.(check (list int)) "src \\ excl" [ 1; 63; 200 ] (List.rev !seen);
  (* excl shorter than src in words; and vice versa *)
  let seen = ref [] in
  Bits.iter_diff (fun i -> seen := i :: !seen) (Bits.of_list [ 500 ]) excl;
  Alcotest.(check (list int)) "excl shorter" [ 500 ] (List.rev !seen)

(* property tests *)

let gen_small_list = QCheck2.Gen.(list_size (int_bound 200) (int_bound 500))

let prop_model =
  QCheck2.Test.make ~name:"bits agrees with list-set model" ~count:300
    gen_small_list (fun l ->
      let b = Bits.of_list l in
      let model = List.sort_uniq compare l in
      Bits.to_list b = model
      && Bits.cardinal b = List.length model
      && List.for_all (Bits.mem b) model)

let prop_union =
  QCheck2.Test.make ~name:"union_into = set union, delta = difference"
    ~count:300
    QCheck2.Gen.(pair gen_small_list gen_small_list)
    (fun (l1, l2) ->
      let a = Bits.of_list l1 and b = Bits.of_list l2 in
      let delta = Bits.union_into ~into:a b in
      let s1 = List.sort_uniq compare l1 and s2 = List.sort_uniq compare l2 in
      let union = List.sort_uniq compare (s1 @ s2) in
      let diff = List.filter (fun x -> not (List.mem x s1)) s2 in
      Bits.to_list a = union
      &&
      match delta with
      | None -> diff = []
      | Some d -> Bits.to_list d = diff)

let prop_subset =
  QCheck2.Test.make ~name:"after union_into, src subset of dst" ~count:200
    QCheck2.Gen.(pair gen_small_list gen_small_list)
    (fun (l1, l2) ->
      let a = Bits.of_list l1 and b = Bits.of_list l2 in
      ignore (Bits.union_into ~into:a b);
      Bits.subset b a)

let prop_union_quiet =
  QCheck2.Test.make ~name:"union_quiet = union_into minus the delta"
    ~count:300
    QCheck2.Gen.(pair gen_small_list gen_small_list)
    (fun (l1, l2) ->
      let a = Bits.of_list l1 and b = Bits.of_list l2 in
      Bits.union_quiet ~into:a b;
      let union = List.sort_uniq compare (l1 @ l2) in
      Bits.to_list a = union && Bits.cardinal a = List.length union)

let prop_iter_diff =
  QCheck2.Test.make ~name:"iter_diff visits exactly src \\ excl, in order"
    ~count:300
    QCheck2.Gen.(pair gen_small_list gen_small_list)
    (fun (l1, l2) ->
      let src = Bits.of_list l1 and excl = Bits.of_list l2 in
      let seen = ref [] in
      Bits.iter_diff (fun i -> seen := i :: !seen) src excl;
      let s2 = List.sort_uniq compare l2 in
      let expect =
        List.filter (fun x -> not (List.mem x s2)) (List.sort_uniq compare l1)
      in
      List.rev !seen = expect)

let prop_subset_model =
  QCheck2.Test.make ~name:"subset agrees with list-set model" ~count:300
    QCheck2.Gen.(pair gen_small_list gen_small_list)
    (fun (l1, l2) ->
      let a = Bits.of_list l1 and b = Bits.of_list l2 in
      let s2 = List.sort_uniq compare l2 in
      Bits.subset a b = List.for_all (fun x -> List.mem x s2) l1)

let prop_rng_deterministic =
  QCheck2.Test.make ~name:"rng is deterministic per seed" ~count:50
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let r1 = Rng.create seed and r2 = Rng.create seed in
      List.init 20 (fun _ -> Rng.int r1 1000)
      = List.init 20 (fun _ -> Rng.int r2 1000))

let prop_rng_bounds =
  QCheck2.Test.make ~name:"rng int stays in bounds" ~count:100
    QCheck2.Gen.(pair (int_bound 1000) (int_range 1 500))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      List.init 50 (fun _ -> Rng.int r bound)
      |> List.for_all (fun x -> x >= 0 && x < bound))

let suite =
  [
    ( "common.bits",
      [
        Alcotest.test_case "add/mem/cardinal" `Quick test_add_mem;
        Alcotest.test_case "growth" `Quick test_growth;
        Alcotest.test_case "union_into" `Quick test_union_into;
        Alcotest.test_case "inter_nonempty" `Quick test_inter_nonempty;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "iter_diff" `Quick test_iter_diff;
        QCheck_alcotest.to_alcotest prop_model;
        QCheck_alcotest.to_alcotest prop_union;
        QCheck_alcotest.to_alcotest prop_subset;
        QCheck_alcotest.to_alcotest prop_union_quiet;
        QCheck_alcotest.to_alcotest prop_iter_diff;
        QCheck_alcotest.to_alcotest prop_subset_model;
      ] );
    ( "common.rng",
      [
        QCheck_alcotest.to_alcotest prop_rng_deterministic;
        QCheck_alcotest.to_alcotest prop_rng_bounds;
      ] );
  ]
