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

let prop_subset_model =
  QCheck2.Test.make ~name:"subset agrees with list-set model" ~count:300
    QCheck2.Gen.(pair gen_small_list gen_small_list)
    (fun (l1, l2) ->
      let a = Bits.of_list l1 and b = Bits.of_list l2 in
      let s2 = List.sort_uniq compare l2 in
      Bits.subset a b = List.for_all (fun x -> List.mem x s2) l1)

(* Sparse, clustered elements up to ~200k, so sets sit at high word
   offsets with disjoint or overlapping ranges. Two sets [a] and [b] take
   a random op sequence; a sorted-list model follows each op, and every
   query is checked against it after every op. *)
type op =
  | Add of int * int
  | Remove of int * int
  | Widen of int * int  (* add then remove an absent element: range only *)
  | Clear_below of int * int list  (* clear, re-add below the old lowest *)
  | Union_into of int
  | Union_quiet of int
  | Copy of int
  | Image of int

let image_map = Array.init 201_000 (fun i -> i * 7919 mod 200_003)

let gen_sparse_case =
  let open QCheck2.Gen in
  let* centers = list_size (int_range 1 3) (int_bound 200_000) in
  let elt = map2 ( + ) (oneofl centers) (int_bound 400) in
  let side = int_bound 1 in
  let op =
    frequency
      [ (6, map2 (fun i x -> Add (i, x)) side elt);
        (2, map2 (fun i x -> Remove (i, x)) side elt);
        (1, map2 (fun i x -> Widen (i, x)) side elt);
        (1, map2 (fun i l -> Clear_below (i, l)) side
              (list_size (int_range 1 4) (int_range 1 5000)));
        (2, map (fun i -> Union_into i) side);
        (1, map (fun i -> Union_quiet i) side);
        (1, map (fun i -> Copy i) side);
        (1, map (fun i -> Image i) side) ]
  in
  list_size (int_range 1 60) op

let print_op = function
  | Add (i, x) -> Printf.sprintf "add %d %d" i x
  | Remove (i, x) -> Printf.sprintf "remove %d %d" i x
  | Widen (i, x) -> Printf.sprintf "widen %d %d" i x
  | Clear_below (i, l) ->
    Printf.sprintf "clear_below %d [%s]" i
      (String.concat ";" (List.map string_of_int l))
  | Union_into i -> Printf.sprintf "union_into %d" i
  | Union_quiet i -> Printf.sprintf "union_quiet %d" i
  | Copy i -> Printf.sprintf "copy %d" i
  | Image i -> Printf.sprintf "image %d" i

let norm l = List.sort_uniq compare l
let minus a b = List.filter (fun x -> not (List.mem x b)) a

let prop_sparse_ops =
  QCheck2.Test.make ~name:"sparse high ranges agree with list-set model"
    ~count:300
    ~print:(fun ops -> String.concat ", " (List.map print_op ops))
    gen_sparse_case
    (fun ops ->
      let sets = [| Bits.create (); Bits.create () |] and model = [| []; [] |] in
      let check_queries () =
        let a = sets.(0) and b = sets.(1) and ma = model.(0) and mb = model.(1) in
        let common = List.filter (fun x -> List.mem x mb) ma in
        let each i =
          let s = sets.(i) and m = model.(i) in
          Bits.to_list s = m
          && List.rev (Bits.fold List.cons s []) = m
          && Bits.cardinal s = List.length m
          && Bits.is_empty s = (m = [])
          && Bits.choose s = (match m with [] -> None | x :: _ -> Some x)
          && List.for_all (Bits.mem s) m
          && List.for_all (fun x -> Bits.mem s x = List.mem x m)
               (List.concat_map (fun x -> [ x - 1; x + 1; x + 63 ]) m)
        in
        each 0 && each 1
        && Bits.to_list (Bits.inter a b) = common
        && Bits.cardinal (Bits.inter a b) = List.length common
        && Bits.inter_nonempty a b = (common <> [])
        && Bits.subset a b = (minus ma mb = [])
        && Bits.subset b a = (minus mb ma = [])
        && Bits.equal a b = (ma = mb)
        && Bits.to_list (Bits.copy a) = ma
        && Bits.equal (Bits.copy b) b
      in
      let step op =
        match op with
        | Add (i, x) ->
          let fresh = not (List.mem x model.(i)) in
          model.(i) <- norm (x :: model.(i));
          Bits.add sets.(i) x = fresh
        | Remove (i, x) ->
          Bits.remove sets.(i) x;
          model.(i) <- List.filter (( <> ) x) model.(i);
          true
        | Widen (i, x) ->
          if not (List.mem x model.(i)) then begin
            ignore (Bits.add sets.(i) x);
            Bits.remove sets.(i) x
          end;
          true
        | Clear_below (i, offs) ->
          let base = match model.(i) with [] -> 0 | x :: _ -> x in
          let l = List.map (fun d -> max 0 (base - d)) offs in
          Bits.clear sets.(i);
          List.iter (fun x -> ignore (Bits.add sets.(i) x)) l;
          model.(i) <- norm l;
          true
        | Union_into i ->
          let src = model.(1 - i) and old = model.(i) in
          let d = Bits.union_into ~into:sets.(i) sets.(1 - i) in
          model.(i) <- norm (old @ src);
          (match (d, minus src old) with
          | None, [] -> true
          | Some d, (_ :: _ as want) ->
            Bits.to_list d = want && Bits.cardinal d = List.length want
          | _ -> false)
        | Union_quiet i ->
          Bits.union_quiet ~into:sets.(i) sets.(1 - i);
          model.(i) <- norm (model.(i) @ model.(1 - i));
          true
        | Copy i ->
          sets.(i) <- Bits.copy sets.(1 - i);
          model.(i) <- model.(1 - i);
          true
        | Image i ->
          Bits.add_image ~into:sets.(i) image_map sets.(1 - i);
          model.(i) <-
            norm (model.(i) @ List.map (fun x -> image_map.(x)) model.(1 - i));
          true
      in
      List.for_all (fun op -> step op && check_queries ()) ops)

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
        QCheck_alcotest.to_alcotest prop_model;
        QCheck_alcotest.to_alcotest prop_union;
        QCheck_alcotest.to_alcotest prop_subset;
        QCheck_alcotest.to_alcotest prop_union_quiet;
        QCheck_alcotest.to_alcotest prop_subset_model;
        QCheck_alcotest.to_alcotest prop_sparse_ops;
      ] );
    ( "common.rng",
      [
        QCheck_alcotest.to_alcotest prop_rng_deterministic;
        QCheck_alcotest.to_alcotest prop_rng_bounds;
      ] );
  ]
