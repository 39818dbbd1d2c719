(** The imperative engine's result projects points-to sets on read: a
    variable's allocation sites are computed on its first [r_pt] and
    memoized. These tests hold the lazy result to a naive projection of the
    finished solver's pointer facts, check that reading leaves the solver
    intact and that a result does not keep its solver alive, and check the
    session's byte accounting of the results it caches. *)

open Helpers
module Bits = Csc_common.Bits
module Context = Csc_pta.Context
module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Zipper = Csc_driver.Zipper
module Explain = Csc_driver.Explain

(* each variable's allocation sites, straight from the solver's facts *)
let naive_sites (p : Ir.program) t =
  let sites = Array.init (Array.length p.vars) (fun _ -> Bits.create ()) in
  Solver.iter_ptrs t (fun ptr -> function
    | Solver.PVar (_, v) ->
      Bits.iter
        (fun o -> ignore (Bits.add sites.(v) (Solver.obj_alloc t o)))
        (Solver.pts t ptr)
    | _ -> ());
  sites

(* variables with more than one pointer, i.e. split across contexts *)
let split_vars (p : Ir.program) t =
  let ptrs = Array.make (Array.length p.vars) 0 in
  Solver.iter_ptrs t (fun _ -> function
    | Solver.PVar (_, v) -> ptrs.(v) <- ptrs.(v) + 1
    | _ -> ());
  Array.fold_left (fun n k -> if k > 1 then n + 1 else n) 0 ptrs

let cardinals t =
  let cs = ref [] in
  Solver.iter_ptrs t (fun p _ -> cs := Bits.cardinal (Solver.pts t p) :: !cs);
  !cs

(* the finished solvers under test: ci, csc and 2obj as the driver runs
   them (2obj not on hsqldb, where it outgrows the 4 GB heap cap), and
   Zipper^e's selective-2obj main solve *)
let solvers name (p : Ir.program) : (string * Solver.t) list =
  let imp a =
    match Run.run_spec_solver (Run.spec a) p with
    | Ok (_, Some t) -> (Run.name a, t)
    | _ -> Alcotest.failf "%s %s: no solver" name (Run.name a)
  in
  let zipper =
    let pre = Solver.result (Solver.analyze p) in
    let sel = Zipper.select p pre in
    Solver.analyze
      ~sel:
        (Context.selective ~selected:sel.selected
           ~base:(Context.kobj ~k:2 ~hk:1))
      p
  in
  List.map imp
    (Run.Imp_ci :: Run.Imp_csc
    :: (if name = "hsqldb" then [] else [ Run.Imp_2obj ]))
  @ [ ("zipper-e main", zipper) ]

let test_matches_naive name () =
  let p = named_program name in
  let n = Array.length p.vars in
  List.iter
    (fun (a, t) ->
      let what = name ^ " " ^ a in
      let naive = naive_sites p t in
      let cards = cardinals t in
      let facts = Explain.facts p t in
      if a = "2obj" then
        Alcotest.(check bool) (what ^ ": some variable is split") true
          (split_vars p t > 0);
      let r = Solver.result t in
      for pass = 1 to 2 do
        for v = n - 1 downto 0 do
          if not (Bits.equal (r.r_pt v) naive.(v)) then
            Alcotest.failf "%s: read %d of var %d: %s, naive %s" what pass v
              (Fmt.str "%a" Bits.pp (r.r_pt v))
              (Fmt.str "%a" Bits.pp naive.(v))
        done
      done;
      Alcotest.(check bool) (what ^ ": out of range is empty") true
        (Bits.is_empty (r.r_pt (-1)) && Bits.is_empty (r.r_pt n));
      Alcotest.(check (list int)) (what ^ ": solver sets intact") cards
        (cardinals t);
      Alcotest.(check bool) (what ^ ": explain unchanged") true
        (facts = Explain.facts p t))
    (solvers name p)

(* Solve with the solver visible only through [w]; [@inline never] keeps
   the finished solver out of the caller's frame. *)
let[@inline never] solve_weakly w a p =
  match Run.run_spec_solver (Run.spec a) p with
  | Ok (o, Some t) ->
    Weak.set w 0 (Some t);
    o
  | _ -> Alcotest.fail "no solver"

let test_solver_released () =
  List.iter
    (fun (name, a) ->
      let p = named_program name in
      let w = Weak.create 1 in
      let o = solve_weakly w a p in
      let r = Option.get o.Run.o_result in
      Gc.full_major ();
      Alcotest.(check bool) (name ^ " unread: solver collected") false
        (Weak.check w 0);
      ignore (r.r_pt (Array.length p.vars - 1));
      Gc.full_major ();
      Alcotest.(check bool) (name ^ " read: solver collected") false
        (Weak.check w 0);
      ignore (Sys.opaque_identity o))
    [ ("findbugs", Run.Imp_ci); ("findbugs", Run.Imp_csc);
      ("nullbugs.mjava", Run.Imp_2obj) ]

let word_bytes = Sys.word_size / 8
let bytes_of o = Obj.reachable_words (Obj.repr o) * word_bytes

let session_bytes sess =
  match Session.stats_json sess with
  | Csc_obs.Json.Obj fields -> (
    match List.assoc "bytes" fields with
    | Csc_obs.Json.Int b -> b
    | _ -> Alcotest.fail "bytes is not an int")
  | _ -> Alcotest.fail "stats is not an object"

(* a cached outcome is counted after every variable is projected, so
   reading it does not grow it and the count is its size. A one-shot
   outcome projects only what is read: reading one variable that points
   somewhere allocates a sliver of what reading them all does, and only
   then does the outcome measure what the session counted. *)
let test_session_accounting () =
  let sess = Session.create () in
  let p, digest =
    match Session.load sess "soot" with
    | Ok pd -> pd
    | Error _ -> Alcotest.fail "soot does not load"
  in
  let read_all (o : Run.outcome) =
    let r = Option.get o.o_result in
    for v = 0 to Array.length p.vars - 1 do
      ignore (r.r_pt v)
    done
  in
  let allocated f =
    let a0 = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. a0
  in
  let o, _ = Session.outcome sess ~digest (Run.spec Run.Imp_ci) p in
  let counted = bytes_of o in
  read_all o;
  Alcotest.(check int) "reads do not grow the entry" counted (bytes_of o);
  Alcotest.(check int) "the entry's recorded bytes" counted
    (session_bytes sess);
  let v =
    let r = Option.get o.o_result in
    let v = ref 0 in
    while Bits.is_empty (r.r_pt !v) do incr v done;
    !v
  in
  let plain = Run.run_spec (Run.spec Run.Imp_ci) p in
  let r = Option.get plain.o_result in
  let one = allocated (fun () -> ignore (r.r_pt v)) in
  let all = allocated (fun () -> read_all plain) in
  if all = 0. || one *. 100. > all then
    Alcotest.failf "one read allocated %.0f bytes, all reads %.0f" one all;
  Alcotest.(check int) "read in full, the one-shot outcome" counted
    (bytes_of plain)

let suite =
  [ ( "pta.result",
      List.map
        (fun name ->
          Alcotest.test_case ("matches naive " ^ name) `Quick
            (test_matches_naive name))
        [ "nullbugs.mjava"; "findbugs"; "hsqldb" ]
      @ [ Alcotest.test_case "solver released" `Quick test_solver_released;
          Alcotest.test_case "session accounting" `Quick
            test_session_accounting ] ) ]
