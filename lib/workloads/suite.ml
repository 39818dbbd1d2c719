(** The benchmark suite: ten generated programs named after the paper's
    evaluation subjects (DESIGN.md, substitution 3). Sizes are chosen to
    mirror the paper's *relative* hardness (hsqldb/findbugs smallest,
    soot/columba largest); see EXPERIMENTS.md for the calibration. *)

open Gen

let scaled ~seed ~u ~fork ~mesh : shape =
  {
    seed;
    n_entity = 8 + (6 * u);
    n_fields = 3;
    n_wrap = 3 + (2 * u);
    n_hier = 2 + u;
    hier_width = 3 + (u / 2);
    n_registry = 2 + (2 * u);
    n_util = 2 + (u / 2);
    n_driver = 3 + (2 * u);
    ops_per_driver = 5 + u;
    loop_iters = 3;
    fork_sites = fork;
    mesh_classes = mesh;
  }

(* (name, scale unit, context-bomb sizes): units roughly track the paper's CI
   times on Tai-e (hsqldb 4s ... columba 117s); [fork]/[mesh] control whether
   2obj / 2type scale on each program, mirroring which programs they scale on
   in the paper (2obj: eclipse, jedit, findbugs; 2type: those + hsqldb). *)
let programs : (string * shape) list =
  [
    ("hsqldb", scaled ~seed:101 ~u:1 ~fork:120 ~mesh:6);
    ("findbugs", scaled ~seed:102 ~u:2 ~fork:30 ~mesh:6);
    ("jython", scaled ~seed:103 ~u:3 ~fork:130 ~mesh:40);
    ("eclipse", scaled ~seed:104 ~u:5 ~fork:40 ~mesh:8);
    ("jedit", scaled ~seed:105 ~u:4 ~fork:35 ~mesh:7);
    ("briss", scaled ~seed:106 ~u:8 ~fork:150 ~mesh:50);
    ("gruntspud", scaled ~seed:107 ~u:9 ~fork:150 ~mesh:55);
    ("freecol", scaled ~seed:108 ~u:10 ~fork:160 ~mesh:55);
    ("soot", scaled ~seed:109 ~u:13 ~fork:180 ~mesh:60);
    ("columba", scaled ~seed:110 ~u:14 ~fork:180 ~mesh:65);
  ]

let names = List.map fst programs

let shape_of name =
  match List.assoc_opt name programs with
  | Some s -> s
  | None -> invalid_arg ("unknown workload: " ^ name)

let source name = Gen.generate (shape_of name)

(** An "edited" revision of a suite program: identical except for the body
    of [Driver0.op0_0] (see [Gen.generate ?variant]). Kept only for
    [bench/perf]'s edit workload; to be removed with the benchmark's next
    change. *)
let source_variant name variant = Gen.generate ~variant (shape_of name)

(** Compile a suite program (with the mini-JDK). *)
let compile name : Csc_ir.Ir.program =
  Csc_lang.Frontend.compile_string (source name)
