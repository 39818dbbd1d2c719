(** More Datalog engine tests: builtin functors, degenerate relations,
    join-ordering stress and plan selectivity, body-order independence, and
    cross-engine precision relations. *)

module E = Csc_datalog.Engine
open E

let v x = V x
let c x = C x

let test_builtin_functor () =
  let t = create () in
  add_builtin t "succ" (fun args -> args.(0) + 1);
  fact t "n" [ 1 ];
  fact t "n" [ 2 ];
  add_rule t (atom "m" [ v "y" ] <-- [ atom "n" [ v "x" ]; fn "succ" [ v "x"; v "y" ] ]);
  solve t;
  Alcotest.(check bool) "2 derived" true
    (List.exists (fun tup -> tup = [| 2 |]) (tuples t "m"));
  Alcotest.(check bool) "3 derived" true
    (List.exists (fun tup -> tup = [| 3 |]) (tuples t "m"))

let test_builtin_as_filter () =
  (* builtin output unified against an already-bound variable acts as a
     filter *)
  let t = create () in
  add_builtin t "double" (fun args -> 2 * args.(0));
  fact t "pair" [ 2; 4 ];
  fact t "pair" [ 3; 5 ];
  add_rule t
    (atom "ok" [ v "x" ]
    <-- [ atom "pair" [ v "x"; v "y" ]; fn "double" [ v "x"; v "y" ] ]);
  solve t;
  Alcotest.(check int) "only the doubling pair" 1 (count t "ok")

let test_builtin_interning () =
  (* the pattern used by the context-sensitive rules: a builtin that makes
     abstract objects in the context store *)
  let env = Csc_pta.Context.env (Helpers.compile Fixtures.carton) in
  let t = create () in
  add_builtin t "mkpair" (fun args ->
      Csc_pta.Context.obj env ~hctx:args.(0) ~site:args.(1));
  fact t "e" [ 1; 2 ];
  fact t "e" [ 2; 3 ];
  fact t "e" [ 1; 2 ];
  add_rule t
    (atom "p" [ v "id" ]
    <-- [ atom "e" [ v "a"; v "b" ]; fn "mkpair" [ v "a"; v "b"; v "id" ] ]);
  solve t;
  Alcotest.(check int) "two interned pairs" 2 (count t "p");
  Alcotest.(check int) "store has 2" 2 (Csc_pta.Context.n_objs env)

let test_zero_arity () =
  let t = create () in
  fact t "go" [];
  fact t "n" [ 7 ];
  add_rule t (atom "out" [ v "x" ] <-- [ atom "go" []; atom "n" [ v "x" ] ]);
  solve t;
  Alcotest.(check int) "fired" 1 (count t "out")

let test_join_order_stress () =
  (* a rule whose textual order is adversarial: the engine must reorder *)
  let t = create () in
  for i = 0 to 400 do
    fact t "big" [ i; i + 1 ]
  done;
  fact t "tiny" [ 5 ];
  (* textual order: big(x,y), big(y,z), big(z,w), tiny(x) *)
  add_rule t
    (atom "res" [ v "x"; v "w" ]
    <-- [ atom "big" [ v "x"; v "y" ]; atom "big" [ v "y"; v "z" ];
          atom "big" [ v "z"; v "w" ]; atom "tiny" [ v "x" ] ]);
  let _, dt = Csc_common.Timer.time (fun () -> solve t) in
  Alcotest.(check int) "one result" 1 (count t "res");
  Alcotest.(check bool) "fast (reordered joins)" true (dt < 1.0)

let test_same_var_twice_in_atom () =
  let t = create () in
  fact t "e" [ 1; 1 ];
  fact t "e" [ 1; 2 ];
  fact t "e" [ 3; 3 ];
  add_rule t (atom "diag" [ v "x" ] <-- [ atom "e" [ v "x"; v "x" ] ]);
  solve t;
  Alcotest.(check int) "diagonal only" 2 (count t "diag")

(* cross-engine relation: the Doop CSC (no load pattern) is never more
   precise than the imperative CSC on fail-cast *)
let test_doop_csc_at_most_imperative () =
  List.iter
    (fun (_, src) ->
      let p = Helpers.compile src in
      let imp =
        Csc_pta.Solver.(result (analyze ~plugin_of:Csc_core.Csc.plugin p))
      in
      let dl = Csc_datalog.Analysis.run p Csc_datalog.Analysis.Csc_doop in
      let mi = Csc_clients.Metrics.compute p imp in
      let md = Csc_clients.Metrics.compute p dl in
      if md.fail_cast < mi.fail_cast then
        Alcotest.fail "doop-csc more precise than imperative csc?")
    Fixtures.all

(* parameter passing, shaped like the Doop rule: the small FormalParam
   relation has a 4-value column K, so probing it on K alone returns a
   quarter of it per argument. The planner must probe CallEdge on the site
   first and FormalParam on (callee, K); the candidates it scans stay a
   small multiple of the tuples it derives. *)
let test_join_plan_selectivity () =
  let t = create () in
  let callees = 100 and sites = 1000 in
  for m = 0 to callees - 1 do
    for k = 0 to 3 do
      fact t "FormalParam" [ m; k; 10_000 + (4 * m) + k ]
    done
  done;
  for s = 0 to sites - 1 do
    fact t "CallEdge" [ s; s mod callees ];
    for k = 0 to 3 do
      let a = 20_000 + (4 * s) + k in
      fact t "ArgVar" [ s; k; a ];
      fact t "Alloc" [ a; a ]
    done
  done;
  (* the allocation rule comes second, so the arguments' points-to tuples
     reach the parameter rule as a semi-naive delta *)
  add_rule t
    (atom "VPT" [ v "P"; v "H" ]
    <-- [ atom "CallEdge" [ v "S"; v "M" ]; atom "ArgVar" [ v "S"; v "K"; v "A" ];
          atom "FormalParam" [ v "M"; v "K"; v "P" ]; atom "VPT" [ v "A"; v "H" ] ]);
  add_rule t (atom "VPT" [ v "A"; v "H" ] <-- [ atom "Alloc" [ v "A"; v "H" ] ]);
  solve t;
  let derived = derived_count t and scans = scan_count t in
  Alcotest.(check int) "derived" (8 * sites) derived;
  if scans > 4 * derived then
    Alcotest.failf "%d candidates scanned for %d tuples derived" scans derived

(* a random stratifiable program over a small domain: EDB relations e0/2,
   e1/2, e2/3, u0/1; IDB relations p0/2, p1/1, p2/2, p3/3; rules with up to
   four positive atoms, optionally a negated EDB atom or a bounded builtin
   after them, and heads that may hold constants *)
let mod5 x = ((x * 7) + 3) mod 5

let random_program rs =
  let t = create () in
  add_builtin t "mod5" (fun args -> mod5 args.(0));
  let edb = [| ("e0", 2); ("e1", 2); ("e2", 3); ("u0", 1) |]
  and idb = [| ("p0", 2); ("p1", 1); ("p2", 2); ("p3", 3) |] in
  Array.iter (fun (r, n) -> ignore (relation t r n)) (Array.append edb idb);
  Array.iter
    (fun (r, n) ->
      for _ = 1 to Random.State.int rs 16 do
        fact t r (List.init n (fun _ -> Random.State.int rs 4))
      done)
    edb;
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let pool = [| "a"; "b"; "c"; "d" |] in
  let rules =
    List.init (2 + Random.State.int rs 5) (fun _ ->
        let term () =
          if Random.State.int rs 8 = 0 then C (Random.State.int rs 4)
          else V (pick pool)
        in
        let positive =
          List.init (1 + Random.State.int rs 4) (fun _ ->
              let r, n = pick (Array.concat [ edb; edb; idb ]) in
              atom r (List.init n (fun _ -> term ())))
        in
        let vars =
          List.concat_map
            (fun a ->
              Array.to_list a.args
              |> List.filter_map (function V x -> Some x | C _ -> None))
            positive
          |> List.sort_uniq compare |> Array.of_list
        in
        let var_or_const () =
          if vars = [||] then C (Random.State.int rs 4) else V (pick vars)
        in
        let extra, vars =
          if vars = [||] || Random.State.bool rs then ([], vars)
          else if Random.State.bool rs then
            let r, n = pick edb in
            ([ atom ~neg:true r (List.init n (fun _ -> var_or_const ())) ], vars)
          else
            let out = if Random.State.bool rs then V "z" else V (pick vars) in
            ( [ fn "mod5" [ V (pick vars); out ] ],
              match out with V "z" -> Array.append vars [| "z" |] | _ -> vars )
        in
        let head_rel, n = pick idb in
        let head =
          List.init n (fun _ ->
              if vars = [||] || Random.State.int rs 6 = 0 then C (Random.State.int rs 4)
              else V (pick vars))
        in
        atom head_rel head <-- (positive @ extra))
  in
  (t, rules)

let shuffle rs l =
  List.map (fun x -> (Random.State.bits rs, x)) l
  |> List.sort compare |> List.map snd

let relations t =
  List.map
    (fun r -> (r, List.sort compare (tuples t r)))
    [ "e0"; "e1"; "e2"; "u0"; "p0"; "p1"; "p2"; "p3" ]

let prop_body_order_irrelevant =
  QCheck2.Test.make ~name:"permuted bodies derive the same"
    ~count:300 ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let solved permute =
        let rs = Random.State.make [| seed |] in
        let t, rules = random_program rs in
        let rs' = Random.State.make [| seed; 1 |] in
        List.iter
          (fun r ->
            add_rule t (if permute then { r with body = shuffle rs' r.body } else r))
          rules;
        solve t;
        (relations t, derived_count t)
      in
      solved false = solved true)

(* The evaluator against a naive fixpoint written over lists: every rule
   is evaluated over the whole database, its body left to right (the
   generator puts the negated atom or builtin after the positive atoms, so
   their inputs are bound), until a pass derives nothing. Negation reads
   EDB relations only, so the least model is the answer for both. *)
let naive_fixpoint (edb : (string * int array list) list) (rules : rule list) =
  let db = Hashtbl.create 16 in
  List.iter (fun (r, tups) -> Hashtbl.replace db r tups) edb;
  let get r = Option.value ~default:[] (Hashtbl.find_opt db r) in
  let value env = function C k -> Some k | V x -> List.assoc_opt x env in
  (* [env] extended so that [args] matches [tup], if it can be *)
  let unify env args tup =
    let rec go env i =
      if i = Array.length args then Some env
      else
        match value env args.(i) with
        | Some k -> if k = tup.(i) then go env (i + 1) else None
        | None -> (
          match args.(i) with
          | V x -> go ((x, tup.(i)) :: env) (i + 1)
          | C _ -> None)
    in
    go env 0
  in
  let bound env a = Array.map (fun t -> Option.get (value env t)) a.args in
  let step envs a =
    List.concat_map
      (fun env ->
        if a.builtin then
          let x = mod5 (Option.get (value env a.args.(0))) in
          Option.to_list (unify env [| a.args.(1) |] [| x |])
        else if a.neg then if List.mem (bound env a) (get a.rel) then [] else [ env ]
        else List.filter_map (unify env a.args) (get a.rel))
      envs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        List.iter
          (fun env ->
            let tup = bound env r.head in
            if not (List.mem tup (get r.head.rel)) then begin
              Hashtbl.replace db r.head.rel (tup :: get r.head.rel);
              changed := true
            end)
          (List.fold_left step [ [] ] r.body))
      rules
  done;
  fun r -> List.sort compare (get r)

let prop_naive_model =
  QCheck2.Test.make ~name:"engine = naive fixpoint" ~count:300
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      let t, rules = random_program rs in
      let edb = List.map (fun r -> (r, tuples t r)) [ "e0"; "e1"; "e2"; "u0" ] in
      let model = naive_fixpoint edb rules in
      List.iter (add_rule t) rules;
      solve t;
      List.for_all (fun (r, tups) -> tups = model r) (relations t))

(* The relation store against a list model. Random insert sequences over
   one relation of arity 1-4, with duplicates and with values either
   clustered (below 40) or sparse (up to 2^22), in rounds; indices are built
   at random points, so some grow with the relation and some are built from
   it. After each round: the round's delta range, membership, and for every
   column mask the distinct-key count and each key's tuples in insertion
   order, absent keys included. *)
let prop_store_model =
  QCheck2.Test.make ~name:"relation store = list model" ~count:150
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      let arity = 1 + Random.State.int rs 4 in
      let sparse = Random.State.int rs 4 = 0 in
      let value () =
        if sparse then Random.State.int rs (1 lsl 22) else Random.State.int rs 40
      in
      let t = create () in
      let r = relation t "r" arity in
      let masks = List.init ((1 lsl arity) - 1) (fun m -> m + 1) in
      let model = ref [] (* newest first *) in
      let fail fmt = Printf.ksprintf failwith fmt in
      let project mask tup =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list tup)
        |> Array.of_list
      in
      let check_round () =
        let all = Array.of_list (List.rev !model) in
        let stored = Array.of_list (tuples t "r") in
        if stored <> all then fail "tuples differ from the model";
        Array.iter (fun tup -> if not (mem r tup) then fail "member missing") all;
        for _ = 1 to 20 do
          let tup = Array.init arity (fun _ -> value ()) in
          if mem r tup <> Array.mem tup all then fail "mem disagrees"
        done;
        List.iter
          (fun mask ->
            let ix = index_for r mask in
            let keys = List.sort_uniq compare (List.map (project mask) (Array.to_list all)) in
            if ix.ix_keys <> List.length keys then fail "mask %d: key count" mask;
            if all <> [||]
               && estimate r mask
                  <> float_of_int (Array.length all)
                     /. float_of_int (List.length keys)
            then fail "mask %d: estimate" mask;
            let ring key =
              let last =
                if ix.ix_col >= 0 then col_last ix key.(0) else probe_table r ix key
              in
              if last < 0 then []
              else
                let rec go id acc =
                  let acc = stored.(id) :: acc in
                  if id = last then List.rev acc else go (ring_next ix id) acc
                in
                go (ring_next ix last) []
            in
            let expect key =
              List.filter (fun tup -> project mask tup = key) (Array.to_list all)
            in
            (* every present key, and absent keys at and past the edges *)
            let width = Array.length ix.ix_cols in
            let absent =
              [ Array.make width 0; Array.make width 40; Array.make width (1 lsl 22) ]
              @ List.init 10 (fun _ -> Array.init width (fun _ -> value ()))
              @
              if ix.ix_col >= 0 then
                let n = C32.length ix.ix_last in
                List.map (fun v -> [| v |]) [ max 0 (n - 1); n; n + 1 ]
              else []
            in
            List.iter
              (fun key ->
                if ring key <> expect key then
                  fail "mask %d key [%s]: tuples differ" mask
                    (String.concat ";" (Array.to_list (Array.map string_of_int key))))
              (keys @ absent))
          masks
      in
      for round = 0 to Random.State.int rs 5 do
        let added = ref [] in
        for _ = 1 to Random.State.int rs 60 do
          let tup =
            match !model with
            | old :: _ when Random.State.int rs 4 = 0 -> Array.copy old
            | _ -> Array.init arity (fun _ -> value ())
          in
          if Random.State.int rs 8 = 0 then
            ignore (index_for r (1 + Random.State.int rs ((1 lsl arity) - 1)));
          if round = 0 then fact t "r" (Array.to_list tup)
          else ignore (insert r tup);
          if not (List.mem tup !model) then begin
            model := tup :: !model;
            added := tup :: !added
          end
        done;
        let n = List.length !model in
        start_round r;
        if r.r_dlo <> n - List.length !added || r.r_dhi <> n then
          fail "round %d: delta [%d, %d) for %d tuples, %d new" round r.r_dlo
            r.r_dhi n (List.length !added);
        check_round ()
      done;
      true)

(* stored values must fit the store's cells: non-negative, below 2^31.
   Facts, rule constants and builtin results are checked. *)
let test_value_range () =
  let refused what f =
    match f (create ()) with
    | () -> Alcotest.failf "%s accepted" what
    | exception Error _ -> ()
  in
  List.iter
    (fun args -> refused "fact" (fun t -> fact t "r" args))
    [ [ -1; 0 ]; [ 0; -5 ]; [ 1 lsl 31; 0 ] ];
  refused "constant" (fun t ->
      add_rule t (atom "p" [ c (-1) ] <-- [ atom "q" [ v "x" ] ]));
  refused "builtin result" (fun t ->
      add_builtin t "neg" (fun args -> -args.(0) - 1);
      fact t "q" [ 3 ];
      add_rule t (atom "p" [ v "y" ] <-- [ atom "q" [ v "x" ]; fn "neg" [ v "x"; v "y" ] ]);
      solve t);
  let t = create () in
  fact t "r" [ 0; (1 lsl 31) - 1 ];
  Alcotest.(check (list (array int))) "largest value stored"
    [ [| 0; (1 lsl 31) - 1 |] ] (tuples t "r")

(* The store gauges are the byte lengths of the store's vectors over
   eight: a transitive closure over a 40-node chain with a shortcut edge
   fills the relation cells, the tuple sets and an index with its rings.
   A Datalog run reports them beside [derived] and [scans]. *)
let test_store_words () =
  let t = create () in
  for i = 0 to 39 do
    fact t "edge" [ i; i + 1 ]
  done;
  fact t "edge" [ 3; 30 ];
  add_rule t (atom "path" [ v "x"; v "y" ] <-- [ atom "edge" [ v "x"; v "y" ] ]);
  add_rule t
    (atom "path" [ v "x"; v "z" ]
    <-- [ atom "path" [ v "x"; v "y" ]; atom "edge" [ v "y"; v "z" ] ]);
  solve t;
  let cells = ref 0 and index = ref 0 and n_ix = ref 0 in
  Hashtbl.iter
    (fun _ r ->
      cells := !cells + Bytes.length r.r_data;
      index := !index + Bytes.length r.r_set;
      List.iter
        (fun ix ->
          incr n_ix;
          index := !index + Bytes.length ix.ix_last + Bytes.length ix.ix_next)
        r.r_indices)
    t.rels;
  Alcotest.(check bool) "an index built" true (!n_ix >= 1);
  Alcotest.(check (pair int int)) "gauges = byte lengths / 8"
    (!cells / 8, !index / 8) (store_words t);
  Alcotest.(check bool) "cells hold every tuple" true
    (!cells >= 4 * 2 * (count t "path" + count t "edge"));
  let p = Helpers.named_program "nullbugs.mjava" in
  let r = Csc_datalog.Analysis.run p Csc_datalog.Analysis.Ci in
  let gauge n =
    Csc_obs.Snapshot.gauge_value r.Csc_pta.Solver.r_snapshot n
    |> Option.get |> int_of_float
  in
  Alcotest.(check bool) "doop-ci reports both" true
    (gauge "cell_words" > 0 && gauge "index_words" > 0)

(* probes, key comparisons and membership tests allocate nothing. Each
   rule scans a(x), then probes on x: b on one column (c), m on two
   columns and b as a membership test (d), b negated (e); half the probes
   miss. The solve may allocate per rule evaluation, not per probe or per
   derived tuple. A second solve runs the other step shapes: q(x, 1, y)
   as a delta step with an equality check (the q(x, 2, x) tuples fail
   it), a probe of m on two columns, a builtin call and a head of arity
   3. *)
let test_solve_allocation () =
  let n = 10_000 in
  let base () =
    let t = create () in
    for i = 0 to n - 1 do
      fact t "a" [ i ];
      if i mod 2 = 0 then
        for k = 1 to 3 do
          fact t "b" [ i; i + k ];
          if k < 3 then fact t "m" [ i; i + k; i ]
        done
    done;
    t
  in
  let bounded t =
    let w0 = Gc.minor_words () in
    solve t;
    let words = Gc.minor_words () -. w0 in
    if words > 10_000. then
      Alcotest.failf "solve allocated %.0f minor words for %d scans" words
        (scan_count t)
  in
  let t = base () in
  add_rule t (atom "c" [ v "x"; v "y" ] <-- [ atom "a" [ v "x" ]; atom "b" [ v "x"; v "y" ] ]);
  add_rule t
    (atom "d" [ v "x"; v "y" ]
    <-- [ atom "a" [ v "x" ]; atom "b" [ v "x"; v "y" ]; atom "m" [ v "x"; v "y"; v "x" ] ]);
  add_rule t
    (atom "e" [ v "x" ] <-- [ atom "a" [ v "x" ]; atom ~neg:true "b" [ v "x"; v "x" ] ]);
  bounded t;
  Alcotest.(check int) "derived" 35_000 (derived_count t);
  Alcotest.(check int) "scans" 55_000 (scan_count t);
  let t = base () in
  add_builtin t "succ" (fun args -> args.(0) + 1);
  add_rule t (atom "q" [ v "x"; c 1; v "y" ] <-- [ atom "a" [ v "x" ]; atom "b" [ v "x"; v "y" ] ]);
  add_rule t (atom "q" [ v "x"; c 2; v "x" ] <-- [ atom "a" [ v "x" ] ]);
  add_rule t
    (atom "h" [ v "x"; v "y"; v "w" ]
    <-- [ atom "q" [ v "x"; c 1; v "y" ]; atom "m" [ v "x"; v "y"; v "z" ];
          fn "succ" [ v "z"; v "w" ] ]);
  bounded t;
  Alcotest.(check int) "shapes: derived" 35_000 (derived_count t);
  Alcotest.(check int) "shapes: scans" 70_000 (scan_count t);
  Alcotest.(check int) "shapes: delta tuples" 25_000 (delta_count t)

let suite =
  [
    ( "datalog.more",
      [
        Alcotest.test_case "builtin functor" `Quick test_builtin_functor;
        Alcotest.test_case "builtin as filter" `Quick test_builtin_as_filter;
        Alcotest.test_case "builtin interning" `Quick test_builtin_interning;
        Alcotest.test_case "zero arity" `Quick test_zero_arity;
        Alcotest.test_case "join-order stress" `Quick test_join_order_stress;
        Alcotest.test_case "join plan selectivity" `Quick
          test_join_plan_selectivity;
        QCheck_alcotest.to_alcotest prop_body_order_irrelevant;
        QCheck_alcotest.to_alcotest prop_naive_model;
        Alcotest.test_case "repeated var in atom" `Quick
          test_same_var_twice_in_atom;
        Alcotest.test_case "doop-csc <= imperative csc" `Quick
          test_doop_csc_at_most_imperative;
        QCheck_alcotest.to_alcotest prop_store_model;
        Alcotest.test_case "stored values in range" `Quick test_value_range;
        Alcotest.test_case "solve allocates nothing per probe" `Quick
          test_solve_allocation;
        Alcotest.test_case "store word gauges" `Quick test_store_words;
      ] );
  ]
