(** Shared helpers for analysis tests. *)

module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver

(* every compiled test program goes through the IR validator, so the whole
   suite doubles as a frontend well-formedness check *)
let compile src =
  let p = Csc_lang.Frontend.compile_string src in
  Csc_ir.Validate.check_exn p;
  p

(* a suite program by name, or a sample program by its file name *)
let named_program name =
  if Filename.check_suffix name ".mjava" then
    compile
      (In_channel.with_open_bin ("../examples/sample_programs/" ^ name)
         In_channel.input_all)
  else Csc_workloads.Suite.compile name

let find_method (p : Ir.program) name : Ir.metho =
  let found = ref None in
  Array.iter
    (fun (m : Ir.metho) -> if Ir.method_name p m.m_id = name then found := Some m)
    p.methods;
  match !found with
  | Some m -> m
  | None -> Alcotest.fail ("method not found: " ^ name)

(** [var p "Main.main" "x"] finds variable [x] of that method. *)
let var (p : Ir.program) mname vname : Ir.var_id =
  let m = find_method p mname in
  let found = ref None in
  Array.iter
    (fun (v : Ir.var) ->
      if v.v_method = m.m_id && v.v_name = vname then found := Some v.v_id)
    p.vars;
  match !found with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "var not found: %s in %s" vname mname)

let analyze ?sel ?plugin_of src : Ir.program * Solver.result =
  let p = compile src in
  let t = Solver.analyze ?sel ?plugin_of p in
  (p, Solver.result t)

(** Points-to set size of a variable, in allocation sites. *)
let pt_size (r : Solver.result) v = Csc_common.Bits.cardinal (r.r_pt v)

let reaches (p : Ir.program) (r : Solver.result) mname =
  Csc_common.Bits.mem r.r_reach (find_method p mname).m_id

(** Check a static result over-approximates a dynamic run (recall = 100%). *)
let check_recall (p : Ir.program) (r : Solver.result) =
  let dyn = Csc_interp.Interp.run p in
  Csc_common.Bits.iter
    (fun m ->
      if not (Csc_common.Bits.mem r.r_reach m) then
        Alcotest.fail
          (Printf.sprintf "%s: dynamic method %s not recalled" r.r_name
             (Ir.method_name p m)))
    dyn.dyn_reachable;
  List.iter
    (fun (site, callee) ->
      if not (List.mem (site, callee) r.r_edges) then
        Alcotest.fail
          (Printf.sprintf "%s: dynamic call edge cs%d -> %s not recalled"
             r.r_name site (Ir.method_name p callee)))
    dyn.dyn_edges
