(** Deterministic generator of executable MiniJava workloads (DESIGN.md S11,
    substitution 3).

    Each generated program mixes the precision-loss shapes the paper's three
    patterns target, at a controlled scale:
    - an *entity* layer: classes with fields wrapped in setters/getters
      (field access pattern), some in small inheritance chains;
    - a *wrapper* layer: Box-like classes whose constructors delegate to an
      init method (nested calls for field access, Figure 3);
    - a *hierarchy* layer: polymorphic base/sub classes driving virtual
      dispatch and the #poly-call client;
    - a *registry* layer: classes owning ArrayLists/HashMaps of entities
      (container access pattern), plus direct container usage with iterators
      and map views in driver code;
    - a *utility* layer: static methods whose return values flow from their
      parameters (local flow pattern, Figure 5);
    - *driver* classes + a main that populate and query everything inside
      bounded loops, with downcasts after container reads (#fail-cast).

    Programs are generated from a {!shape} and a seed; the same inputs yield
    byte-identical sources. Every program terminates under the interpreter
    (all loops are bounded), which the recall experiment requires. *)

open Csc_common

type shape = {
  seed : int;
  n_entity : int;      (** entity classes *)
  n_fields : int;      (** fields (and setter/getter pairs) per entity *)
  n_wrap : int;        (** wrapper classes *)
  n_hier : int;        (** polymorphic hierarchies *)
  hier_width : int;    (** subclasses per hierarchy *)
  n_registry : int;    (** container-owning classes *)
  n_util : int;        (** static utility classes *)
  n_driver : int;      (** driver classes *)
  ops_per_driver : int;(** operation methods per driver *)
  loop_iters : int;    (** runtime loop bound in main *)
  fork_sites : int;
      (** size of the single-class factory web: quadratic context blow-up
          for object sensitivity (type sensitivity is immune: one class) *)
  mesh_classes : int;
      (** size of the multi-class factory mesh: context blow-up for type
          sensitivity too *)
}

let small_shape =
  { seed = 42; n_entity = 6; n_fields = 2; n_wrap = 3; n_hier = 2;
    hier_width = 3; n_registry = 3; n_util = 2; n_driver = 3;
    ops_per_driver = 4; loop_iters = 3; fork_sites = 6; mesh_classes = 4 }

(* ------------------------------------------------------------ emission *)

type ctx = {
  buf : Buffer.t;
  rng : Rng.t;
  shape : shape;
  variant : int;
}

let pf ctx fmt = Printf.ksprintf (Buffer.add_string ctx.buf) fmt

let entity c k = Printf.sprintf "Ent%d_%d" c k
(* class names are namespaced by a numeric component id [c] so that multiple
   generated units could coexist; we use c = 0 throughout *)

let ent ctx k = entity 0 (k mod ctx.shape.n_entity)
let wrap_cls k = Printf.sprintf "Wrap%d" k
let base_cls h = Printf.sprintf "Base%d" h
let sub_cls h i = Printf.sprintf "Sub%d_%d" h i
let reg_cls k = Printf.sprintf "Reg%d" k
let util_cls k = Printf.sprintf "Util%d" k
let driver_cls k = Printf.sprintf "Driver%d" k

(* ---- entity layer ---- *)

let emit_entities ctx =
  let s = ctx.shape in
  for k = 0 to s.n_entity - 1 do
    let name = ent ctx k in
    (* a third of the entities extend the previous one, forming chains *)
    let extends =
      if k > 0 && Rng.chance ctx.rng 33 then
        Printf.sprintf " extends %s" (ent ctx (k - 1))
      else ""
    in
    pf ctx "class %s%s {\n" name extends;
    for f = 0 to s.n_fields - 1 do
      pf ctx "  Object fld%d_%d;\n" k f;
      pf ctx "  void set%d(Object v) { this.fld%d_%d = v; }\n" f k f;
      pf ctx "  Object get%d() { return this.fld%d_%d; }\n" f k f
    done;
    (* an identity-ish method: direct flow through an instance method *)
    pf ctx "  Object self%d(Object x) { Object r = x; return r; }\n" k;
    pf ctx "}\n\n"
  done

(* ---- wrapper layer (nested constructor stores, Figure 3) ---- *)

let emit_wrappers ctx =
  let s = ctx.shape in
  for k = 0 to s.n_wrap - 1 do
    pf ctx "class %s {\n" (wrap_cls k);
    pf ctx "  Object value%d;\n" k;
    pf ctx "  %s(Object v) { this.init%d(v); }\n" (wrap_cls k) k;
    pf ctx "  void init%d(Object v) { this.value%d = v; }\n" k k;
    pf ctx "  Object unwrap%d() { return this.value%d; }\n" k k;
    (* a re-wrapping helper: deepens call chains *)
    pf ctx "  Object viaUtil%d(Object x) { return Util%d.ident(x); }\n" k
      (k mod (max 1 s.n_util));
    pf ctx "}\n\n"
  done

(* ---- polymorphic hierarchies ---- *)

let emit_hierarchies ctx =
  let s = ctx.shape in
  for h = 0 to s.n_hier - 1 do
    pf ctx "class %s {\n" (base_cls h);
    pf ctx "  Object payload%d;\n" h;
    pf ctx "  Object act() { return this.payload%d; }\n" h;
    pf ctx "  void load(Object p) { this.payload%d = p; }\n" h;
    pf ctx "  int kindId() { return 0; }\n";
    pf ctx "}\n\n";
    for i = 0 to s.hier_width - 1 do
      pf ctx "class %s extends %s {\n" (sub_cls h i) (base_cls h);
      pf ctx "  Object state%d_%d;\n" h i;
      if i mod 2 = 0 then
        pf ctx "  Object act() { Object r = this.state%d_%d; if (r == null) { r = new Object(); } return r; }\n"
          h i
      else
        (* odd subclasses defer to the superclass implementation *)
        pf ctx "  Object act() { Object r = super.act(); if (r == null) { r = this.state%d_%d; } return r; }\n"
          h i;
      pf ctx "  void prime() { this.state%d_%d = new Object(); }\n" h i;
      pf ctx "  int kindId() { return %d; }\n" (i + 1);
      pf ctx "}\n\n"
    done
  done

(* ---- registry layer (containers behind methods) ---- *)

let emit_registries ctx =
  let s = ctx.shape in
  for k = 0 to s.n_registry - 1 do
    let name = reg_cls k in
    pf ctx "class %s {\n" name;
    pf ctx "  ArrayList items%d;\n" k;
    pf ctx "  HashMap index%d;\n" k;
    pf ctx "  %s() { this.items%d = new ArrayList(); this.index%d = new HashMap(); }\n"
      name k k;
    pf ctx "  void register(Object o) { this.items%d.add(o); }\n" k;
    pf ctx "  void assoc(Object key, Object v) { this.index%d.put(key, v); }\n" k;
    pf ctx "  Object at(int i) { return this.items%d.get(i); }\n" k;
    pf ctx "  Object find(Object key) { return this.index%d.get(key); }\n" k;
    pf ctx "  int count() { return this.items%d.size(); }\n" k;
    pf ctx "  Iterator all() { return this.items%d.iterator(); }\n" k;
    pf ctx "  Iterator keys() { return this.index%d.keySet().iterator(); }\n" k;
    pf ctx "}\n\n"
  done

(* ---- utility layer (local flow) ---- *)

let emit_utils ctx =
  let s = ctx.shape in
  for k = 0 to s.n_util - 1 do
    pf ctx "class %s {\n" (util_cls k);
    pf ctx "  static Object ident(Object x) { return x; }\n";
    pf ctx "  static Object choose(boolean c, Object a, Object b) { Object r = b; if (c) { r = a; } return r; }\n";
    pf ctx "  static Object orElse(Object a, Object b) { Object r = b; if (a != null) { r = a; } return r; }\n";
    pf ctx "}\n\n"
  done

(* ---- factory web: the object-sensitivity context bomb ----

   A single class whose [fork_k] methods allocate fresh [Web] nodes, copy
   per-object state across, and call further forks on them. Under 2obj the
   abstract objects are (site, allocator-site) pairs, so the web induces
   quadratically many contexts, each re-analyzing stores/loads of [cargo] -
   the cost profile that makes conventional object sensitivity explode on
   real code. Context insensitivity (and Cut-Shortcut, which adds no
   contexts) walks this code once. Type sensitivity collapses it to a single
   context element (one class). Runtime recursion is bounded by [d]. *)

let emit_fork_web ctx =
  let s = ctx.shape in
  let n = s.fork_sites in
  if n > 0 then begin
    pf ctx "class Web {\n";
    pf ctx "  Object cargo;\n";
    pf ctx "  Object grab() { return this.cargo; }\n";
    pf ctx "  void put(Object c) { this.cargo = c; }\n";
    for k = 0 to n - 1 do
      let j1 = ((k * 7) + 1) mod n in
      pf ctx "  Web fork%d(int d) {\n" k;
      pf ctx "    Web n = new Web();\n";
      pf ctx "    n.put(this.grab());\n";
      pf ctx "    if (d > 0) {\n";
      pf ctx "      Web a = n.fork%d(d - 1);\n" j1;
      pf ctx "      n.put(a.grab());\n";
      pf ctx "    }\n";
      pf ctx "    return n;\n";
      pf ctx "  }\n"
    done;
    pf ctx "}\n\n";
    (* the driver: all webs live in one ArrayList, so every fork call site
       dispatches on every web variant - under 2obj that saturates the
       (site, allocator-site) context product, while CI/CSC walk the code
       once. The payload pool scales per-context work. *)
    pf ctx "class WebMain {\n";
    pf ctx "  static void drive() {\n";
    pf ctx "    ArrayList webs = new ArrayList();\n";
    pf ctx "    ArrayList pool = new ArrayList();\n";
    for _ = 0 to (n / 2) - 1 do
      pf ctx "    pool.add(new Object());\n"
    done;
    for k = 0 to n - 1 do
      pf ctx "    Web w%d = new Web();\n" k;
      pf ctx "    w%d.put(pool.get(%d));\n" k (k mod max 1 (n / 2));
      pf ctx "    webs.add(w%d);\n" k
    done;
    for k = 0 to n - 1 do
      pf ctx "    Web x%d = (Web) webs.get(%d);\n" k (k mod n);
      pf ctx "    Web y%d = x%d.fork%d(1);\n" k k k;
      pf ctx "    y%d.put(x%d.grab());\n" k k;
      pf ctx "    webs.add(y%d);\n" k
    done;
    pf ctx "    System.print(webs.size());\n";
    pf ctx "  }\n";
    pf ctx "}\n\n"
  end

(* ---- factory mesh: the type-sensitivity context bomb ----

   As above but across many classes, so type contexts (class pairs) multiply
   as well. *)

let mesh_cls i = Printf.sprintf "Mesh%d" i

(* The shared [MeshCore] is allocated by each of the [mesh_classes] spawner
   classes (so core objects carry distinct *type* context elements: the
   allocating class). All cores live in one merged list, and every [spin_k]
   call site dispatches on all of them: both 2obj and 2type saturate their
   context products here, while CI/CSC stay linear. *)
let emit_mesh ctx =
  let s = ctx.shape in
  let n = s.mesh_classes in
  if n > 0 then begin
    pf ctx "class MeshCore {\n";
    pf ctx "  Object freight;\n";
    pf ctx "  Object pull() { return this.freight; }\n";
    pf ctx "  void push(Object c) { this.freight = c; }\n";
    for k = 0 to n - 1 do
      let j = ((k * 7) + 1) mod n in
      pf ctx "  MeshCore spin%d(int d) {\n" k;
      pf ctx "    MeshCore n = new MeshCore();\n";
      pf ctx "    n.push(this.pull());\n";
      pf ctx "    if (d > 0) {\n";
      pf ctx "      MeshCore a = n.spin%d(d - 1);\n" j;
      pf ctx "      n.push(a.pull());\n";
      pf ctx "    }\n";
      pf ctx "    return n;\n";
      pf ctx "  }\n"
    done;
    pf ctx "}\n\n";
    for i = 0 to n - 1 do
      pf ctx "class %s {\n" (mesh_cls i);
      pf ctx "  MeshCore spawn(Object payload) {\n";
      pf ctx "    MeshCore core = new MeshCore();\n";
      pf ctx "    core.push(payload);\n";
      pf ctx "    return core;\n";
      pf ctx "  }\n";
      pf ctx "}\n\n"
    done;
    pf ctx "class MeshMain {\n";
    pf ctx "  static void drive() {\n";
    pf ctx "    ArrayList cores = new ArrayList();\n";
    pf ctx "    ArrayList pool = new ArrayList();\n";
    for _ = 0 to (n / 2) - 1 do
      pf ctx "    pool.add(new Object());\n"
    done;
    for i = 0 to n - 1 do
      pf ctx "    %s g%d = new %s();\n" (mesh_cls i) i (mesh_cls i);
      pf ctx "    cores.add(g%d.spawn(pool.get(%d)));\n" i
        (i mod max 1 (n / 2))
    done;
    for i = 0 to n - 1 do
      pf ctx "    MeshCore c%d = (MeshCore) cores.get(%d);\n" i (i mod n);
      pf ctx "    MeshCore k%d = c%d.spin%d(1);\n" i i i;
      pf ctx "    k%d.push(c%d.pull());\n" i i;
      pf ctx "    cores.add(k%d);\n" i
    done;
    pf ctx "    System.print(cores.size());\n";
    pf ctx "  }\n";
    pf ctx "}\n\n"
  end

(* ---- driver layer ---- *)

(* Fixed statements appended to Driver0.op0_0 when generating an "edited"
   revision of a shape program (see [generate ?variant]). Keyed only by the
   variant integer and consuming no RNG draws, so every other method of the
   variant-k rendering is byte-identical to the variant-0 one — exactly a
   single-method body edit, the one the edit workload of [bench/perf]
   sends as [update] requests. *)
let emit_variant_stmts ctx =
  let v = ctx.variant in
  let s = ctx.shape in
  if s.n_entity > 0 && s.n_fields > 0 then begin
    let f = v mod s.n_fields in
    pf ctx "    %s ev%d = new %s();\n" (ent ctx 0) v (ent ctx 0);
    pf ctx "    ev%d.set%d(new Object());\n" v f;
    pf ctx "    Object er%d = ev%d.get%d();\n" v v f;
    pf ctx "    Object es%d = ev%d.self0(er%d);\n" v v v
  end;
  pf ctx "    if (salt > %d) { System.print(\"variant%d\"); }\n" (v + 1000) v

(* Each driver op method exercises one scenario. They receive an int salt so
   the interpreter runs them with slightly different data. *)
let emit_driver_op ctx ~d ~j =
  let s = ctx.shape in
  let rng = ctx.rng in
  let e1 = Rng.int rng s.n_entity and e2 = Rng.int rng s.n_entity in
  let f1 = Rng.int rng s.n_fields in
  let w = Rng.int rng (max 1 s.n_wrap) in
  let h = Rng.int rng (max 1 s.n_hier) in
  let sub1 = Rng.int rng s.hier_width and sub2 = Rng.int rng s.hier_width in
  let r1 = Rng.int rng (max 1 s.n_registry) in
  let u = Rng.int rng (max 1 s.n_util) in
  let scenario = Rng.int rng 8 in
  pf ctx "  void op%d_%d(int salt) {\n" d j;
  (match scenario with
  | 0 ->
    (* setter/getter pairs on two distinct entities *)
    pf ctx "    %s a = new %s();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    %s b = new %s();\n" (ent ctx e2) (ent ctx e2);
    pf ctx "    a.set%d(new Object());\n" f1;
    pf ctx "    b.set%d(\"tag%d_%d\");\n" f1 d j;
    pf ctx "    Object ra = a.get%d();\n" f1;
    pf ctx "    Object rb = b.get%d();\n" f1;
    pf ctx "    if (ra == rb) { System.print(\"alias%d_%d\"); }\n" d j
  | 1 ->
    (* wrappers + nested constructor stores *)
    pf ctx "    %s ent = new %s();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    %s w1 = new %s(ent);\n" (wrap_cls w) (wrap_cls w);
    pf ctx "    %s w2 = new %s(new Object());\n" (wrap_cls w) (wrap_cls w);
    pf ctx "    Object u1 = w1.unwrap%d();\n" w;
    pf ctx "    Object u2 = w2.unwrap%d();\n" w;
    pf ctx "    %s back = (%s) u1;\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    back.set%d(u2);\n" f1
  | 2 ->
    (* direct container usage with iterator + cast *)
    pf ctx "    ArrayList list = new ArrayList();\n";
    pf ctx "    int i = 0;\n";
    pf ctx "    while (i < 2 + (salt %% 3)) {\n";
    pf ctx "      list.add(new %s());\n" (ent ctx e1);
    pf ctx "      i = i + 1;\n";
    pf ctx "    }\n";
    pf ctx "    %s first = (%s) list.get(0);\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    first.set%d(list.get(list.size() - 1));\n" f1;
    pf ctx "    Iterator it = list.iterator();\n";
    pf ctx "    while (it.hasNext()) {\n";
    pf ctx "      %s cur = (%s) it.next();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "      Object got = cur.get%d();\n" f1;
    pf ctx "      if (got != null) { System.print(\"hit%d_%d\"); }\n" d j;
    pf ctx "    }\n"
  | 3 ->
    (* registries + maps + key iteration *)
    pf ctx "    %s reg = new %s();\n" (reg_cls r1) (reg_cls r1);
    pf ctx "    %s k1 = new %s();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    %s v1 = new %s();\n" (ent ctx e2) (ent ctx e2);
    pf ctx "    reg.register(v1);\n";
    pf ctx "    reg.register(new %s());\n" (ent ctx e2);
    pf ctx "    reg.assoc(k1, v1);\n";
    pf ctx "    %s out = (%s) reg.at(0);\n" (ent ctx e2) (ent ctx e2);
    pf ctx "    Object hit = reg.find(k1);\n";
    pf ctx "    Iterator keys = reg.keys();\n";
    pf ctx "    while (keys.hasNext()) {\n";
    pf ctx "      %s kk = (%s) keys.next();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "      kk.set%d(hit);\n" f1;
    pf ctx "    }\n";
    pf ctx "    out.set%d(hit);\n" (f1 mod s.n_fields)
  | 5 ->
    (* stacks and queues of entities *)
    pf ctx "    Stack st = new Stack();\n";
    pf ctx "    Queue qu = new Queue();\n";
    pf ctx "    for (int i = 0; i < 2 + (salt %% 2); i = i + 1) {\n";
    pf ctx "      st.push(new %s());\n" (ent ctx e1);
    pf ctx "      qu.enqueue(new %s());\n" (ent ctx e2);
    pf ctx "    }\n";
    pf ctx "    %s top = (%s) st.pop();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    %s head = (%s) qu.dequeue();\n" (ent ctx e2) (ent ctx e2);
    pf ctx "    top.set%d(head);\n" f1;
    pf ctx "    Object back = top.get%d();\n" f1;
    pf ctx "    if (back instanceof %s) { System.print(\"q%d_%d\"); }\n"
      (ent ctx e2) d j
  | 6 ->
    (* deques + builders *)
    pf ctx "    ArrayDeque dq = new ArrayDeque();\n";
    pf ctx "    dq.addFirst(new %s());\n" (ent ctx e1);
    pf ctx "    dq.addLast(new %s());\n" (ent ctx e2);
    pf ctx "    StringBuilder sb = new StringBuilder();\n";
    pf ctx "    sb.append(dq.peekFirst()).append(dq.peekLast());\n";
    pf ctx "    Object first = sb.part(0);\n";
    pf ctx "    if (first instanceof %s) {\n" (ent ctx e1);
    pf ctx "      %s fe = (%s) first;\n" (ent ctx e1) (ent ctx e1);
    pf ctx "      fe.set%d(dq.removeLast());\n" f1;
    pf ctx "    }\n"
  | 7 ->
    (* optionals wrapping registry lookups *)
    pf ctx "    %s reg7 = new %s();\n" (reg_cls r1) (reg_cls r1);
    pf ctx "    %s key7 = new %s();\n" (ent ctx e1) (ent ctx e1);
    pf ctx "    reg7.assoc(key7, new %s());\n" (ent ctx e2);
    pf ctx "    Optional found = Optional.of(reg7.find(key7));\n";
    pf ctx "    Object v7 = found.orElse(new %s());\n" (ent ctx e2);
    pf ctx "    if (v7 instanceof %s) {\n" (ent ctx e2);
    pf ctx "      %s typed = (%s) v7;\n" (ent ctx e2) (ent ctx e2);
    pf ctx "      typed.set%d(key7);\n" f1;
    pf ctx "    }\n"
  | _ ->
    (* polymorphism + local flow utilities *)
    pf ctx "    %s n1 = new %s();\n" (sub_cls h sub1) (sub_cls h sub1);
    pf ctx "    %s n2 = new %s();\n" (sub_cls h sub2) (sub_cls h sub2);
    pf ctx "    n1.prime();\n";
    pf ctx "    n2.load(new Object());\n";
    pf ctx "    %s pick = (%s) %s.choose(salt %% 2 == 0, n1, n2);\n" (base_cls h)
      (base_cls h) (util_cls u);
    pf ctx "    Object res = pick.act();\n";
    pf ctx "    Object res2 = %s.orElse(res, new Object());\n" (util_cls u);
    pf ctx "    ArrayList bag = new ArrayList();\n";
    pf ctx "    bag.add(n1);\n";
    pf ctx "    bag.add(n2);\n";
    pf ctx "    Iterator bit = bag.iterator();\n";
    pf ctx "    while (bit.hasNext()) {\n";
    pf ctx "      %s node = (%s) bit.next();\n" (base_cls h) (base_cls h);
    pf ctx "      if (node.kindId() > %d) { node.load(res2); }\n" (s.hier_width / 2);
    pf ctx "    }\n");
  if d = 0 && j = 0 && ctx.variant > 0 then emit_variant_stmts ctx;
  pf ctx "  }\n"

let emit_drivers ctx =
  let s = ctx.shape in
  for d = 0 to s.n_driver - 1 do
    pf ctx "class %s {\n" (driver_cls d);
    for j = 0 to s.ops_per_driver - 1 do
      emit_driver_op ctx ~d ~j
    done;
    pf ctx "  void runAll%d(int salt) {\n" d;
    for j = 0 to s.ops_per_driver - 1 do
      pf ctx "    this.op%d_%d(salt + %d);\n" d j j
    done;
    pf ctx "  }\n";
    pf ctx "}\n\n"
  done

let emit_main ctx =
  let s = ctx.shape in
  pf ctx "class Main {\n";
  pf ctx "  static void main() {\n";
  pf ctx "    int round = 0;\n";
  pf ctx "    while (round < %d) {\n" s.loop_iters;
  for d = 0 to s.n_driver - 1 do
    pf ctx "      %s d%d = new %s();\n" (driver_cls d) d (driver_cls d);
    pf ctx "      d%d.runAll%d(round);\n" d d
  done;
  pf ctx "      round = round + 1;\n";
  pf ctx "    }\n";
  if s.fork_sites > 0 then pf ctx "    WebMain.drive();\n";
  if s.mesh_classes > 0 then pf ctx "    MeshMain.drive();\n";
  pf ctx "    System.print(\"done\");\n";
  pf ctx "  }\n";
  pf ctx "}\n"

(** Generate a full MiniJava program (without the mini-JDK, which the
    frontend prepends). [variant > 0] appends fixed, variant-keyed statements
    to [Driver0.op0_0] without consuming RNG draws, so two variants of the
    same shape differ in exactly that one method body. *)
let generate ?(variant = 0) (shape : shape) : string =
  let ctx =
    { buf = Buffer.create 65536; rng = Rng.create shape.seed; shape; variant }
  in
  emit_entities ctx;
  emit_wrappers ctx;
  emit_hierarchies ctx;
  emit_registries ctx;
  emit_utils ctx;
  emit_fork_web ctx;
  emit_mesh ctx;
  emit_drivers ctx;
  emit_main ctx;
  Buffer.contents ctx.buf

(* ================================================================== *)
(* Randomized, type-correct program generation for the soundness      *)
(* fuzzer (lib/fuzz). Unlike the shape-based generator above, which   *)
(* emits a fixed architecture, [Rand] draws a random *plan* — a tree  *)
(* of typed statements over a random class table — and renders it to  *)
(* MiniJava source. Plans, not source text, are what the fuzzer       *)
(* shrinks: removing a plan statement cascades through its def-use    *)
(* closure, so every shrink candidate is again a well-formed program. *)
(* ================================================================== *)

module Rand = struct
  (* ---- class table ---- *)

  type cls = {
    k_parent : int option;  (* index of superclass, always a lower index *)
    k_nf : int;             (* own Object fields f<c>_<j>, j < k_nf *)
    k_act : int;            (* act() body variant, see [render_act] *)
  }

  (* ---- statement plans ----

     Variables are numbered globally and defined exactly once (SSA-ish at
     the source level); compound statements open lexical scopes, so a var
     defined inside an [if]/loop body is invisible outside it. *)

  type cond = CEven | COdd  (* round % 2 == 0 / 1: varies across rounds *)

  type pstmt =
    | PNew of { v : int; cls : int }
    | PNewObj of { v : int }
    | PStr of { v : int; tag : int }
    | PMake of { v : int; cls : int }  (* static factory: local-flow shape *)
    | PPipe of { v : int; src : int }  (* static identity chain *)
    | PWiden of { v : int; anc : int; src : int }  (* Anc v = src; *)
    | PChoice of { v : int; anc : int option; a : int; b : int; cond : cond }
    | PSet of { recv : int; acc : int * int; arg : int }  (* recv.set<c>_<j>(arg) *)
    | PGet of { v : int; recv : int; acc : int * int }
    | PVirt of { v : int; recv : int }  (* Object v = recv.act(); *)
    | PCast of { v : int; cls : int; src : int; guarded : bool }
    | PListNew of { v : int }
    | PListAdd of { list : int; arg : int }
    | PListGet of { v : int; list : int }
    | PIter of { it : int; elem : int; list : int; body : pstmt list }
    | PMapNew of { v : int }
    | PMapPut of { map : int; key : int; value : int }
    | PMapGet of { v : int; map : int; key : int }
    | PArrNew of { v : int; len : int }
    | PArrStore of { arr : int; idx : int; arg : int }
    | PArrLoad of { v : int; arr : int; idx : int }
    | PIf of { cond : cond; body : pstmt list }
    | PLoop of { i : int; n : int; body : pstmt list }
    | PPrint of { arg : int }
    | PSource of { v : int }  (* Object v = Flow.source();  taint source *)
    | PScrub of { v : int; src : int }  (* Object v = Flow.scrub(src); *)
    | PSink of { arg : int }  (* Flow.sink(arg);  taint sink *)

  type plan = {
    p_seed : int;
    p_classes : cls array;
    p_stmts : pstmt list;
    p_rounds : int;
    p_taint_leaks : int;  (* planted source->sink chains (ground truth) *)
    p_taint_sanitized : int;  (* planted source->scrub->sink chains *)
  }

  let seed_of p = p.p_seed
  let planted_leaks p = p.p_taint_leaks
  let planted_sanitized p = p.p_taint_sanitized

  (* ---- class-table helpers ---- *)

  let rec ancestors classes c =
    match classes.(c).k_parent with
    | None -> []
    | Some p -> p :: ancestors classes p

  let descendants classes c =
    let out = ref [] in
    Array.iteri
      (fun d _ -> if d <> c && List.mem c (ancestors classes d) then
          out := d :: !out)
      classes;
    !out

  (* accessors callable through a receiver of static class [c]:
     own fields plus every ancestor's *)
  let accessors classes c =
    List.concat_map
      (fun k -> List.init classes.(k).k_nf (fun j -> (k, j)))
      (c :: ancestors classes c)

  (* ---- def/use, for shrink-time cascade removal ---- *)

  let defs = function
    | PNew { v; _ } | PNewObj { v } | PStr { v; _ } | PMake { v; _ }
    | PPipe { v; _ } | PWiden { v; _ } | PChoice { v; _ } | PGet { v; _ }
    | PVirt { v; _ } | PCast { v; _ } | PListNew { v } | PListGet { v; _ }
    | PMapNew { v } | PMapGet { v; _ } | PArrNew { v; _ }
    | PArrLoad { v; _ } | PSource { v } | PScrub { v; _ } -> [ v ]
    | PIter { it; elem; _ } -> [ it; elem ]
    | PLoop { i; _ } -> [ i ]
    | PSet _ | PListAdd _ | PMapPut _ | PArrStore _ | PIf _ | PPrint _
    | PSink _ -> []

  let uses = function
    | PPipe { src; _ } | PWiden { src; _ } | PCast { src; _ }
    | PScrub { src; _ } -> [ src ]
    | PChoice { a; b; _ } -> [ a; b ]
    | PSet { recv; arg; _ } -> [ recv; arg ]
    | PGet { recv; _ } | PVirt { recv; _ } -> [ recv ]
    | PListAdd { list; arg } -> [ list; arg ]
    | PListGet { list; _ } | PIter { list; _ } -> [ list ]
    | PMapPut { map; key; value } -> [ map; key; value ]
    | PMapGet { map; key; _ } -> [ map; key ]
    | PArrStore { arr; arg; _ } -> [ arr; arg ]
    | PArrLoad { arr; _ } -> [ arr ]
    | PPrint { arg } | PSink { arg } -> [ arg ]
    | PNew _ | PNewObj _ | PStr _ | PMake _ | PListNew _ | PMapNew _
    | PArrNew _ | PIf _ | PLoop _ | PSource _ -> []

  let body_of = function
    | PIter { body; _ } | PIf { body; _ } | PLoop { body; _ } -> Some body
    | _ -> None

  let with_body s body =
    match s with
    | PIter r -> PIter { r with body }
    | PIf r -> PIf { r with body }
    | PLoop r -> PLoop { r with body }
    | s -> s

  let rec count_stmts stmts =
    List.fold_left
      (fun acc s ->
        acc + 1
        + match body_of s with Some b -> count_stmts b | None -> 0)
      0 stmts

  let stmt_count p = count_stmts p.p_stmts

  (* ---- generation ---- *)

  type rtyp = RObj | RCls of int | RStr | RList | RMap | RArr of int

  type entry = {
    e_id : int;
    e_ty : rtyp;
    e_nn : bool;  (* definitely non-null: eligible as a receiver *)
    mutable e_filled : bool;  (* lists: definitely non-empty *)
    mutable e_keys : int list;  (* maps: keys definitely put *)
  }

  type genv = {
    g_rng : Rng.t;
    g_classes : cls array;
    mutable g_next : int;  (* fresh var counter *)
    mutable g_budget : int;
  }

  let fresh g =
    let v = g.g_next in
    g.g_next <- v + 1;
    v

  let random_classes rng =
    let n = Rng.range rng 2 5 in
    Array.init n (fun c ->
        {
          k_parent =
            (if c > 0 && Rng.chance rng 60 then Some (Rng.int rng c) else None);
          k_nf = Rng.range rng 1 2;
          k_act = Rng.int rng 3;
        })

  (* pick a var satisfying [pred] from [scope], newest-biased *)
  let pick_var g scope pred =
    let cands = List.filter pred scope in
    match cands with
    | [] -> None
    | _ ->
      let arr = Array.of_list cands in
      (* bias towards recent definitions to create longer flow chains *)
      let i = min (Rng.int g (Array.length arr)) (Rng.int g (Array.length arr)) in
      Some arr.(i)

  let is_ref e = match e.e_ty with RObj | RCls _ | RStr -> true | _ -> false
  let is_cls e = match e.e_ty with RCls _ -> true | _ -> false
  let is_list e = e.e_ty = RList
  let is_map e = e.e_ty = RMap
  let is_arr e = match e.e_ty with RArr _ -> true | _ -> false

  (* Generate one statement given the in-scope entries (innermost first).
     [definite] is true when the current program point is executed
     unconditionally relative to the enclosing scope's entry — only then may
     container population facts be recorded. Returns the statement plus the
     entries it brings into scope. *)
  let rec gen_stmt g ~scope ~definite ~depth : (pstmt * entry list) option =
    let rng = g.g_rng in
    let entry ?(nn = true) id ty = { e_id = id; e_ty = ty; e_nn = nn;
                                     e_filled = false; e_keys = [] } in
    let cond () = if Rng.bool rng then CEven else COdd in
    (* candidate productions as (weight, thunk); thunks may still give up *)
    let productions =
      [
        (6, fun () ->
            let cls = Rng.int rng (Array.length g.g_classes) in
            let v = fresh g in
            Some (PNew { v; cls }, [ entry v (RCls cls) ]));
        (3, fun () ->
            let v = fresh g in
            Some (PNewObj { v }, [ entry v RObj ]));
        (2, fun () ->
            let v = fresh g in
            Some (PStr { v; tag = Rng.int rng 100 }, [ entry v RStr ]));
        (2, fun () ->
            let cls = Rng.int rng (Array.length g.g_classes) in
            let v = fresh g in
            Some (PMake { v; cls }, [ entry v (RCls cls) ]));
        (3, fun () ->
            match pick_var rng scope is_ref with
            | Some src ->
              (* rendered with a declared type of Object: pipe erases the
                 static type, so class-typed use again needs a cast *)
              let v = fresh g in
              Some (PPipe { v; src = src.e_id }, [ entry ~nn:src.e_nn v RObj ])
            | None -> None);
        (4, fun () ->
            match pick_var rng scope is_cls with
            | Some src ->
              let c = (match src.e_ty with RCls c -> c | _ -> assert false) in
              (match ancestors g.g_classes c with
              | [] -> None
              | ancs ->
                let anc = Rng.pick_list rng ancs in
                let v = fresh g in
                Some (PWiden { v; anc; src = src.e_id },
                      [ entry ~nn:src.e_nn v (RCls anc) ]))
            | None -> None);
        (3, fun () ->
            match (pick_var rng scope is_ref, pick_var rng scope is_ref) with
            | Some a, Some b when a.e_id <> b.e_id ->
              (* join two values under a round-varying condition; the static
                 type is the closest common class ancestor, or Object *)
              let anc =
                match (a.e_ty, b.e_ty) with
                | RCls ca, RCls cb ->
                  let ancs_a = ca :: ancestors g.g_classes ca in
                  let ancs_b = cb :: ancestors g.g_classes cb in
                  List.find_opt (fun x -> List.mem x ancs_b) ancs_a
                | _ -> None
              in
              let v = fresh g in
              Some (PChoice { v; anc; a = a.e_id; b = b.e_id; cond = cond () },
                    [ entry ~nn:(a.e_nn && b.e_nn) v
                        (match anc with Some c -> RCls c | None -> RObj) ])
            | _ -> None);
        (6, fun () ->
            match pick_var rng scope (fun e -> is_cls e && e.e_nn) with
            | Some recv ->
              let c = (match recv.e_ty with RCls c -> c | _ -> assert false) in
              (match (accessors g.g_classes c, pick_var rng scope is_ref) with
              | [], _ | _, None -> None
              | accs, Some arg ->
                Some (PSet { recv = recv.e_id; acc = Rng.pick_list rng accs;
                             arg = arg.e_id }, []))
            | None -> None);
        (5, fun () ->
            match pick_var rng scope (fun e -> is_cls e && e.e_nn) with
            | Some recv ->
              let c = (match recv.e_ty with RCls c -> c | _ -> assert false) in
              (match accessors g.g_classes c with
              | [] -> None
              | accs ->
                let v = fresh g in
                Some (PGet { v; recv = recv.e_id; acc = Rng.pick_list rng accs },
                      [ entry ~nn:false v RObj ]))
            | None -> None);
        (5, fun () ->
            match pick_var rng scope (fun e -> is_cls e && e.e_nn) with
            | Some recv ->
              let v = fresh g in
              Some (PVirt { v; recv = recv.e_id }, [ entry ~nn:false v RObj ])
            | None -> None);
        (4, fun () ->
            (* guarded downcast: always safe, always leaves v non-null *)
            match pick_var rng scope is_ref with
            | Some src ->
              let cls = Rng.int rng (Array.length g.g_classes) in
              let v = fresh g in
              Some (PCast { v; cls; src = src.e_id; guarded = true },
                    [ entry v (RCls cls) ])
            | None -> None);
        (1, fun () ->
            (* unguarded downcast to a strict subclass: may genuinely fail at
               runtime, exercising the failed-cast ground truth (the trace
               halts there, which the oracle tolerates) *)
            match pick_var rng scope is_cls with
            | Some src ->
              let c = (match src.e_ty with RCls c -> c | _ -> assert false) in
              (match descendants g.g_classes c with
              | [] -> None
              | ds ->
                let cls = Rng.pick_list rng ds in
                let v = fresh g in
                Some (PCast { v; cls; src = src.e_id; guarded = false },
                      [ entry ~nn:src.e_nn v (RCls cls) ]))
            | None -> None);
        (4, fun () ->
            let v = fresh g in
            Some (PListNew { v }, [ entry v RList ]));
        (5, fun () ->
            match (pick_var rng scope is_list, pick_var rng scope is_ref) with
            | Some l, Some arg ->
              if definite then l.e_filled <- true;
              Some (PListAdd { list = l.e_id; arg = arg.e_id }, [])
            | _ -> None);
        (4, fun () ->
            match pick_var rng scope (fun e -> is_list e && e.e_filled) with
            | Some l ->
              let v = fresh g in
              Some (PListGet { v; list = l.e_id }, [ entry ~nn:false v RObj ])
            | None -> None);
        (2, fun () ->
            let v = fresh g in
            Some (PMapNew { v }, [ entry v RMap ]));
        (3, fun () ->
            match
              (pick_var rng scope is_map,
               pick_var rng scope (fun e -> is_ref e && e.e_nn),
               pick_var rng scope is_ref)
            with
            | Some m, Some key, Some value ->
              if definite then m.e_keys <- key.e_id :: m.e_keys;
              Some (PMapPut { map = m.e_id; key = key.e_id;
                              value = value.e_id }, [])
            | _ -> None);
        (3, fun () ->
            match pick_var rng scope (fun e -> is_map e && e.e_keys <> []) with
            | Some m ->
              let key = Rng.pick_list rng m.e_keys in
              (* the key may have gone out of scope if it was defined in a
                 nested block; only use keys still visible here *)
              if List.exists (fun e -> e.e_id = key) scope then begin
                let v = fresh g in
                Some (PMapGet { v; map = m.e_id; key }, [ entry ~nn:false v RObj ])
              end
              else None
            | None -> None);
        (2, fun () ->
            let v = fresh g in
            let len = Rng.range rng 2 4 in
            Some (PArrNew { v; len }, [ entry v (RArr len) ]));
        (3, fun () ->
            match (pick_var rng scope is_arr, pick_var rng scope is_ref) with
            | Some a, Some arg ->
              let len = (match a.e_ty with RArr l -> l | _ -> assert false) in
              Some (PArrStore { arr = a.e_id; idx = Rng.int rng len;
                                arg = arg.e_id }, [])
            | _ -> None);
        (2, fun () ->
            match pick_var rng scope is_arr with
            | Some a ->
              let len = (match a.e_ty with RArr l -> l | _ -> assert false) in
              let v = fresh g in
              Some (PArrLoad { v; arr = a.e_id; idx = Rng.int rng len },
                    [ entry ~nn:false v RObj ])
            | None -> None);
        (3, fun () ->
            match pick_var rng scope is_list with
            | Some l ->
              if depth >= 2 then None
              else begin
                let it = fresh g and elem = fresh g in
                let body_scope =
                  { e_id = elem; e_ty = RObj; e_nn = false; e_filled = false;
                    e_keys = [] } :: scope
                in
                let body =
                  gen_body g ~scope:body_scope ~definite:false ~depth:(depth + 1)
                    ~len:(Rng.range rng 1 2)
                in
                Some (PIter { it; elem; list = l.e_id; body }, [])
              end
            | None -> None);
        (3, fun () ->
            if depth >= 2 then None
            else
              let body =
                gen_body g ~scope ~definite:false ~depth:(depth + 1)
                  ~len:(Rng.range rng 1 3)
              in
              if body = [] then None
              else Some (PIf { cond = cond (); body }, []));
        (3, fun () ->
            if depth >= 2 then None
            else begin
              let i = fresh g in
              let body =
                (* fixed bound >= 1, so the body always executes: population
                   facts established inside remain definite *)
                gen_body g ~scope ~definite ~depth:(depth + 1)
                  ~len:(Rng.range rng 1 3)
              in
              if body = [] then None
              else Some (PLoop { i; n = Rng.range rng 1 3; body }, [])
            end);
        (1, fun () ->
            match pick_var rng scope is_ref with
            | Some x -> Some (PPrint { arg = x.e_id }, [])
            | None -> None);
        (2, fun () ->
            (* taint source: a fresh, tainted Object *)
            let v = fresh g in
            Some (PSource { v }, [ entry v RObj ]));
        (2, fun () ->
            (* sanitizer: launders whatever flows in (returns a fresh clean
               object, so the result is never tainted) *)
            match pick_var rng scope is_ref with
            | Some src ->
              let v = fresh g in
              Some (PScrub { v; src = src.e_id }, [ entry v RObj ])
            | None -> None);
        (2, fun () ->
            (* sink: a dynamic leak iff the argument carries taint here *)
            match pick_var rng scope is_ref with
            | Some x -> Some (PSink { arg = x.e_id }, [])
            | None -> None);
      ]
    in
    let total = List.fold_left (fun a (w, _) -> a + w) 0 productions in
    (* rejection-sample: try a few draws before giving up on this slot *)
    let rec attempt tries =
      if tries = 0 then None
      else begin
        let roll = Rng.int rng total in
        let rec pick acc = function
          | [] -> assert false
          | (w, th) :: rest ->
            if roll < acc + w then th () else pick (acc + w) rest
        in
        match pick 0 productions with
        | Some r -> Some r
        | None -> attempt (tries - 1)
      end
    in
    attempt 4

  and gen_body g ~scope ~definite ~depth ~len : pstmt list =
    let scope = ref scope in
    let out = ref [] in
    let n = ref len in
    while !n > 0 && g.g_budget > 0 do
      (match gen_stmt g ~scope:!scope ~definite ~depth with
      | Some (s, news) ->
        g.g_budget <- g.g_budget - 1;
        out := s :: !out;
        scope := news @ !scope
      | None -> ());
      decr n
    done;
    List.rev !out

  (* a fixed prelude so every program exercises allocation, widening,
     virtual dispatch, containers and a guarded cast regardless of the
     random draw *)
  let gen_prelude g : pstmt list * entry list =
    let entry ?(nn = true) id ty = { e_id = id; e_ty = ty; e_nn = nn;
                                     e_filled = false; e_keys = [] } in
    let rng = g.g_rng in
    let nclasses = Array.length g.g_classes in
    (* prefer a class with a parent, to guarantee a widening exists *)
    let with_parent =
      List.filter (fun c -> g.g_classes.(c).k_parent <> None)
        (List.init nclasses Fun.id)
    in
    let c0 =
      match with_parent with
      | [] -> Rng.int rng nclasses
      | cs -> Rng.pick_list rng cs
    in
    let v_obj = fresh g in
    let v0 = fresh g in
    let stmts = ref [ PNewObj { v = v_obj }; PNew { v = v0; cls = c0 } ] in
    let scope = ref [ entry v0 (RCls c0); entry v_obj RObj ] in
    (match g.g_classes.(c0).k_parent with
    | Some anc ->
      let vw = fresh g in
      stmts := PWiden { v = vw; anc; src = v0 } :: !stmts;
      scope := entry vw (RCls anc) :: !scope
    | None -> ());
    let va = fresh g in
    stmts := PVirt { v = va; recv = v0 } :: !stmts;
    scope := entry ~nn:false va RObj :: !scope;
    let vl = fresh g in
    stmts := PListNew { v = vl } :: !stmts;
    let le = entry vl RList in
    le.e_filled <- true;
    scope := le :: !scope;
    stmts := PListAdd { list = vl; arg = v0 } :: !stmts;
    let vg = fresh g in
    stmts := PListGet { v = vg; list = vl } :: !stmts;
    scope := entry ~nn:false vg RObj :: !scope;
    let vc = fresh g in
    stmts := PCast { v = vc; cls = c0; src = vg; guarded = true } :: !stmts;
    scope := entry vc (RCls c0) :: !scope;
    (List.rev !stmts, !scope)

  let generate ~seed ~max_size : plan =
    let rng = Rng.create seed in
    let classes = random_classes rng in
    let g = { g_rng = rng; g_classes = classes; g_next = 0;
              g_budget = max max_size 8 } in
    let prelude, scope = gen_prelude g in
    g.g_budget <- g.g_budget - List.length prelude;
    let scope = ref scope in
    let out = ref (List.rev prelude) in
    while g.g_budget > 0 do
      (match gen_stmt g ~scope:!scope ~definite:true ~depth:0 with
      | Some (s, news) ->
        out := s :: !out;
        scope := news @ !scope
      | None -> ());
      g.g_budget <- g.g_budget - 1
    done;
    (* plant ground-truth flows at the end of the program, where every value
       they produce is guaranteed to reach the sink: one leaking
       source->pipe->sink chain and one sanitized source->scrub->sink chain
       (each with independent probability, so programs without planted flows
       keep exercising the organic source/sink productions) *)
    let planted_leaks = ref 0 and planted_san = ref 0 in
    if Rng.chance rng 60 then begin
      let vs = fresh g and vp = fresh g in
      out := PSink { arg = vp } :: PPipe { v = vp; src = vs }
             :: PSource { v = vs } :: !out;
      incr planted_leaks
    end;
    if Rng.chance rng 60 then begin
      let vs = fresh g and vc = fresh g in
      out := PSink { arg = vc } :: PScrub { v = vc; src = vs }
             :: PSource { v = vs } :: !out;
      incr planted_san
    end;
    { p_seed = seed; p_classes = classes; p_stmts = List.rev !out;
      p_rounds = Rng.range rng 2 3; p_taint_leaks = !planted_leaks;
      p_taint_sanitized = !planted_san }

  (* ---- rendering ---- *)

  let cls_name c = Printf.sprintf "A%d" c
  let fld_name c j = Printf.sprintf "f%d_%d" c j
  let vn v = Printf.sprintf "v%d" v

  let cond_src = function
    | CEven -> "round % 2 == 0"
    | COdd -> "round % 2 == 1"

  (* features actually used by the surviving statements; rendering emits
     only these, so shrinking a plan sheds classes and methods too *)
  type used = {
    mutable u_classes : int list;
    mutable u_accs : (int * int) list;
    mutable u_act : bool;
    mutable u_makes : int list;
    mutable u_pipe : bool;
    mutable u_source : bool;
    mutable u_sink : bool;
    mutable u_scrub : bool;
  }

  let collect_used classes stmts =
    let u = { u_classes = []; u_accs = []; u_act = false; u_makes = [];
              u_pipe = false; u_source = false; u_sink = false;
              u_scrub = false } in
    let add_cls c = if not (List.mem c u.u_classes) then
        u.u_classes <- c :: u.u_classes in
    let rec go s =
      (match s with
      | PNew { cls; _ } | PCast { cls; _ } -> add_cls cls
      | PMake { cls; _ } ->
        add_cls cls;
        if not (List.mem cls u.u_makes) then u.u_makes <- cls :: u.u_makes
      | PWiden { anc; _ } -> add_cls anc
      | PChoice { anc = Some c; _ } -> add_cls c
      | PSet { acc; _ } | PGet { acc; _ } ->
        add_cls (fst acc);
        if not (List.mem acc u.u_accs) then u.u_accs <- acc :: u.u_accs
      | PVirt _ -> u.u_act <- true
      | PPipe _ -> u.u_pipe <- true
      | PSource _ -> u.u_source <- true
      | PSink _ -> u.u_sink <- true
      | PScrub _ -> u.u_scrub <- true
      | _ -> ());
      match body_of s with Some b -> List.iter go b | None -> ()
    in
    List.iter go stmts;
    (* close under superclasses: extends-clauses and widened receivers need
       every ancestor present *)
    let rec close c =
      add_cls c;
      match classes.(c).k_parent with Some p -> close p | None -> ()
    in
    List.iter close u.u_classes;
    u

  let render_class buf classes u c =
    let k = classes.(c) in
    let ext =
      match k.k_parent with
      | Some p -> Printf.sprintf " extends %s" (cls_name p)
      | None -> ""
    in
    Printf.bprintf buf "class %s%s {\n" (cls_name c) ext;
    for j = 0 to k.k_nf - 1 do
      Printf.bprintf buf "  Object %s;\n" (fld_name c j)
    done;
    List.iter
      (fun (ac, j) ->
        if ac = c then begin
          Printf.bprintf buf "  void set%d_%d(Object x) { this.%s = x; }\n" c j
            (fld_name c j);
          Printf.bprintf buf "  Object get%d_%d() { return this.%s; }\n" c j
            (fld_name c j)
        end)
      u.u_accs;
    if u.u_act then begin
      match k.k_act with
      | 0 ->
        Printf.bprintf buf "  Object act() { return this.%s; }\n" (fld_name c 0)
      | 2 when k.k_parent <> None ->
        Printf.bprintf buf "  Object act() { Object r = super.act(); return r; }\n"
      | _ ->
        Printf.bprintf buf "  Object act() { Object r = new Object(); return r; }\n"
    end;
    Buffer.add_string buf "}\n\n"

  let rec render_stmt buf ~indent s =
    let pad = String.make indent ' ' in
    let pf fmt = Printf.bprintf buf fmt in
    match s with
    | PNew { v; cls } ->
      pf "%s%s %s = new %s();\n" pad (cls_name cls) (vn v) (cls_name cls)
    | PNewObj { v } -> pf "%sObject %s = new Object();\n" pad (vn v)
    | PStr { v; tag } -> pf "%sString %s = \"s%d\";\n" pad (vn v) tag
    | PMake { v; cls } ->
      pf "%s%s %s = Fact.make%d();\n" pad (cls_name cls) (vn v) cls
    | PPipe { v; src } ->
      (* declared Object: pipe erases the static type on purpose, so getting
         it back needs a cast — the local-flow pattern's bread and butter *)
      pf "%sObject %s = Flow.pipe(%s);\n" pad (vn v) (vn src)
    | PWiden { v; anc; src } ->
      pf "%s%s %s = %s;\n" pad (cls_name anc) (vn v) (vn src)
    | PChoice { v; anc; a; b; cond } ->
      let ty = match anc with Some c -> cls_name c | None -> "Object" in
      pf "%s%s %s = %s;\n" pad ty (vn v) (vn a);
      pf "%sif (%s) { %s = %s; }\n" pad (cond_src cond) (vn v) (vn b)
    | PSet { recv; acc = (c, j); arg } ->
      pf "%s%s.set%d_%d(%s);\n" pad (vn recv) c j (vn arg)
    | PGet { v; recv; acc = (c, j) } ->
      pf "%sObject %s = %s.get%d_%d();\n" pad (vn v) (vn recv) c j
    | PVirt { v; recv } -> pf "%sObject %s = %s.act();\n" pad (vn v) (vn recv)
    | PCast { v; cls; src; guarded = true } ->
      pf "%s%s %s = new %s();\n" pad (cls_name cls) (vn v) (cls_name cls);
      pf "%sif (%s instanceof %s) { %s = (%s) %s; }\n" pad (vn src)
        (cls_name cls) (vn v) (cls_name cls) (vn src)
    | PCast { v; cls; src; guarded = false } ->
      pf "%s%s %s = (%s) %s;\n" pad (cls_name cls) (vn v) (cls_name cls) (vn src)
    | PListNew { v } -> pf "%sArrayList %s = new ArrayList();\n" pad (vn v)
    | PListAdd { list; arg } -> pf "%s%s.add(%s);\n" pad (vn list) (vn arg)
    | PListGet { v; list } ->
      pf "%sObject %s = %s.get(0);\n" pad (vn v) (vn list)
    | PIter { it; elem; list; body } ->
      pf "%sIterator it%d = %s.iterator();\n" pad it (vn list);
      pf "%swhile (it%d.hasNext()) {\n" pad it;
      pf "%s  Object %s = it%d.next();\n" pad (vn elem) it;
      List.iter (render_stmt buf ~indent:(indent + 2)) body;
      pf "%s}\n" pad
    | PMapNew { v } -> pf "%sHashMap %s = new HashMap();\n" pad (vn v)
    | PMapPut { map; key; value } ->
      pf "%s%s.put(%s, %s);\n" pad (vn map) (vn key) (vn value)
    | PMapGet { v; map; key } ->
      pf "%sObject %s = %s.get(%s);\n" pad (vn v) (vn map) (vn key)
    | PArrNew { v; len } ->
      pf "%sObject[] %s = new Object[%d];\n" pad (vn v) len
    | PArrStore { arr; idx; arg } ->
      pf "%s%s[%d] = %s;\n" pad (vn arr) idx (vn arg)
    | PArrLoad { v; arr; idx } ->
      pf "%sObject %s = %s[%d];\n" pad (vn v) (vn arr) idx
    | PIf { cond; body } ->
      pf "%sif (%s) {\n" pad (cond_src cond);
      List.iter (render_stmt buf ~indent:(indent + 2)) body;
      pf "%s}\n" pad
    | PLoop { i; n; body } ->
      pf "%sfor (int i%d = 0; i%d < %d; i%d = i%d + 1) {\n" pad i i n i i;
      List.iter (render_stmt buf ~indent:(indent + 2)) body;
      pf "%s}\n" pad
    | PPrint { arg } -> pf "%sSystem.print(%s);\n" pad (vn arg)
    | PSource { v } -> pf "%sObject %s = Flow.source();\n" pad (vn v)
    | PScrub { v; src } -> pf "%sObject %s = Flow.scrub(%s);\n" pad (vn v) (vn src)
    | PSink { arg } -> pf "%sFlow.sink(%s);\n" pad (vn arg)

  let render (p : plan) : string =
    let buf = Buffer.create 4096 in
    let u = collect_used p.p_classes p.p_stmts in
    Array.iteri
      (fun c _ -> if List.mem c u.u_classes then
          render_class buf p.p_classes u c)
      p.p_classes;
    if u.u_makes <> [] then begin
      Buffer.add_string buf "class Fact {\n";
      List.iter
        (fun c ->
          Printf.bprintf buf
            "  static %s make%d() { %s t = new %s(); %s r = t; return r; }\n"
            (cls_name c) c (cls_name c) (cls_name c) (cls_name c))
        (List.sort compare u.u_makes);
      Buffer.add_string buf "}\n\n"
    end;
    if u.u_pipe || u.u_source || u.u_sink || u.u_scrub then begin
      Buffer.add_string buf "class Flow {\n";
      if u.u_pipe then
        Buffer.add_string buf
          "  static Object pipe(Object x) { Object y = Flow.pipe2(x); return y; }\n\
          \  static Object pipe2(Object x) { return x; }\n";
      if u.u_source then
        Buffer.add_string buf
          "  static Object source() { Object s = new Object(); return s; }\n";
      if u.u_sink then
        Buffer.add_string buf "  static void sink(Object x) { }\n";
      if u.u_scrub then
        Buffer.add_string buf
          "  static Object scrub(Object x) { Object c = new Object(); return c; }\n";
      Buffer.add_string buf "}\n\n"
    end;
    Buffer.add_string buf "class Main {\n  static void main() {\n";
    Buffer.add_string buf "    int round = 0;\n";
    if p.p_rounds > 1 then begin
      Printf.bprintf buf "    while (round < %d) {\n" p.p_rounds;
      List.iter (render_stmt buf ~indent:6) p.p_stmts;
      Buffer.add_string buf "      round = round + 1;\n    }\n"
    end
    else List.iter (render_stmt buf ~indent:4) p.p_stmts;
    Buffer.add_string buf "  }\n}\n";
    Buffer.contents buf

  (* ---- shrinking ---- *)

  (* Remove every statement that (transitively) uses a variable in [dead],
     recursing into compound bodies; removing a statement kills its own
     definitions too. Iterates to a fixpoint so any def-use cascade is
     followed; the result is always a renderable plan. *)
  let purge stmts dead =
    let dead = ref dead in
    let changed = ref true in
    let alive = ref stmts in
    let is_dead s = List.exists (fun v -> List.mem v !dead) (uses s) in
    let rec sweep ss =
      List.filter_map
        (fun s ->
          if is_dead s then begin
            changed := true;
            let rec kill s =
              dead := defs s @ !dead;
              match body_of s with
              | Some b -> List.iter kill b
              | None -> ()
            in
            kill s;
            None
          end
          else
            match body_of s with
            | Some b -> Some (with_body s (sweep b))
            | None -> Some s)
        ss
    in
    while !changed do
      changed := false;
      alive := sweep !alive
    done;
    !alive

  (* Candidate plans, roughly most-aggressive first: drop whole chunks of the
     top level, drop any single statement anywhere in the tree (cascading
     through its users), and collapse the rounds loop. The fuzzer greedily
     re-applies these until no candidate still fails the oracle. *)
  let shrink_candidates (p : plan) : plan list =
    let out = ref [] in
    let push stmts = out := { p with p_stmts = stmts } :: !out in
    if p.p_rounds > 1 then out := { p with p_rounds = 1 } :: !out;
    (* chunk removal at the top level *)
    let top = Array.of_list p.p_stmts in
    let n = Array.length top in
    let chunk = ref (max 1 (n / 2)) in
    while !chunk >= 1 do
      let k = !chunk in
      let i = ref 0 in
      while !i < n do
        let keep = ref [] in
        let removed = ref [] in
        Array.iteri
          (fun j s ->
            if j >= !i && j < !i + k then begin
              let rec kill s =
                removed := defs s @ !removed;
                match body_of s with Some b -> List.iter kill b | None -> ()
              in
              kill s
            end
            else keep := s :: !keep)
          top;
        if !removed <> [] || k > 0 then
          push (purge (List.rev !keep) !removed);
        i := !i + k
      done;
      if k = 1 then chunk := 0 else chunk := max 1 (k / 2)
    done;
    (* unwrap a compound statement: splice its body in place of the header.
       Escapes local minima where the body must stay but the wrapper need
       not — e.g. an [if (round % 2 == 1)] guard whose body keeps the
       violation alive forces [p_rounds >= 2]; hoisting the body lets the
       rounds loop collapse on a later pass. Only offered when the body
       never reads the header's own defs (the foreach element, the loop
       index). *)
    List.iteri
      (fun j s ->
        match body_of s with
        | Some b when b <> [] ->
          let rec body_uses acc ss =
            List.fold_left
              (fun acc bs ->
                let acc = uses bs @ acc in
                match body_of bs with Some bb -> body_uses acc bb | None -> acc)
              acc ss
          in
          let used = body_uses [] b in
          if List.for_all (fun v -> not (List.mem v used)) (defs s) then
            push
              (List.concat
                 (List.mapi (fun x t -> if x = j then b else [ t ]) p.p_stmts))
        | _ -> ())
      p.p_stmts;
    (* single-statement removal inside compound bodies *)
    let rec nested prefix ss =
      List.iteri
        (fun j s ->
          match body_of s with
          | Some b ->
            List.iteri
              (fun bj bs ->
                let removed = ref [] in
                let rec kill s =
                  removed := defs s @ !removed;
                  match body_of s with
                  | Some b -> List.iter kill b
                  | None -> ()
                in
                kill bs;
                let b' = List.filteri (fun x _ -> x <> bj) b in
                let s' = with_body s b' in
                let top' =
                  List.mapi (fun x t -> if x = j then s' else t) ss
                in
                let rebuilt = prefix top' in
                push (purge rebuilt !removed))
              b;
            nested
              (fun inner ->
                prefix
                  (List.mapi (fun x t -> if x = j then with_body s inner else t)
                     ss))
              b
          | None -> ())
        ss
    in
    nested (fun x -> x) p.p_stmts;
    List.rev !out
end
