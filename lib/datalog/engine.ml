(** A semi-naive Datalog engine over int tuples.

    This is the substrate standing in for the Doop framework (DESIGN.md S5):
    the declarative version of the pointer analysis is expressed as rules
    evaluated here. Features: automatic stratification, stratified negation
    (a negated atom may only mention relations of strictly lower strata),
    flat tuple storage with lazily-built indices per (relation, bound-column
    mask), semi-naive delta iteration inside each stratum, and a join
    planner that orders each rule's body by estimated index selectivity
    once per round, and plans staged into chains of closures. *)

open Csc_common
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr

type term =
  | V of string  (** variable *)
  | C of int     (** constant *)

type atom = {
  rel : string;
  args : term array;
  neg : bool;
  builtin : bool;
      (** builtin atoms call a registered function: all arguments except the
          last must be bound; the last is unified with the result. They act
          like Soufflé functors (used to construct contexts / project
          abstract objects in the context-sensitive analyses). *)
}

(** [head :- body]. The head must be positive. *)
type rule = {
  head : atom;
  body : atom list;
}

let atom ?(neg = false) rel args =
  { rel; args = Array.of_list args; neg; builtin = false }

let fn rel args = { rel; args = Array.of_list args; neg = false; builtin = true }
let ( <-- ) head body : rule = { head; body }

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------- relations *)

(* Every value a relation stores is an int in [0, 2^31): the analyses
   store interned, dense ids. So a one-column index can be an array indexed
   by the key's value, and tuples, tuple ids and indices can all live in
   32-bit cells. [fact], rule constants and builtin results are checked. *)
let valid x = x lsr 31 = 0

(* Vectors of signed 32-bit cells in a [bytes], bounds-checked. They hold
   values and tuple ids, and [-1] for "none". Half the size of an [int
   array] matters: these vectors are the engine's whole footprint, and
   when the engine runs after another analysis has grown the heap, they
   add to the process's peak memory. *)
module C32 = struct
  external get32 : bytes -> int -> int32 = "%caml_bytes_get32"
  external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"

  let get b i = Int32.to_int (get32 b (i lsl 2))
  let set b i x = set32 b (i lsl 2) (Int32.of_int x)
  let length b = Bytes.length b lsr 2

  (* [fill] is 0 or -1 *)
  let make n fill = Bytes.make (4 * n) (if fill < 0 then '\255' else '\000')

  (* [a] grown to hold index [i], at least doubled; new cells read [fill] *)
  let grow_to a i fill =
    let b = make (max (i + 1) (2 * length a)) fill in
    Bytes.blit a 0 b 0 (Bytes.length a);
    b
end

(* hashing a key of several columns, read in place from wherever it lives:
   Fibonacci mixing per column, the high half folded into the low bits
   that a table's mask keeps *)
let mix h x = (h + x) * 0x1E3779B97F4A7C15
let finish h = h lxor (h lsr 32)

let hash_key (key : int array) =
  let h = ref 0 in
  for i = 0 to Array.length key - 1 do
    h := mix !h (Array.unsafe_get key i)
  done;
  finish !h

(* the columns [cols] of the tuple at [base] in [data] *)
let hash_at data base (cols : int array) =
  let h = ref 0 in
  for i = 0 to Array.length cols - 1 do
    h := mix !h (C32.get data (base + Array.unsafe_get cols i))
  done;
  finish !h

let rec eq_key data base (cols : int array) (key : int array) i =
  i >= Array.length cols
  || C32.get data (base + Array.unsafe_get cols i) = Array.unsafe_get key i
     && eq_key data base cols key (i + 1)

let rec eq_at data a b (cols : int array) i =
  i >= Array.length cols
  || (let c = Array.unsafe_get cols i in
      C32.get data (a + c) = C32.get data (b + c))
     && eq_at data a b cols (i + 1)

(* open-addressing tables of tuple ids: power-of-two length, linear
   probing, [-1] in every free slot, at most 3/4 full *)
let capacity n =
  let c = ref 8 in
  while !c * 3 < n * 4 do
    c := !c * 2
  done;
  !c

let full n slots = (n + 1) * 4 > C32.length slots * 3

(* An index on the columns [ix_cols] (bitmask [ix_mask]). Each key's
   tuples form a ring through [ix_next] (tuple id -> the next tuple with
   the same key, the newest pointing back to the oldest), and the index
   maps each key to its newest tuple id:
   - a one-column index ([ix_col >= 0]) is an array indexed by the key's
     value, [-1] where no tuple has that value;
   - any other is an open-addressing table of tuple ids, hashed and
     compared on the key columns of that tuple.
   [ix_keys] counts the distinct keys, which the join planner reads as the
   index's selectivity. *)
type index = {
  ix_mask : int;
  ix_cols : int array;
  ix_col : int;
  mutable ix_last : bytes;
  mutable ix_next : bytes;
  mutable ix_keys : int;
}

(* A relation stores its tuples flat: tuple [i] is [r_data] positions
   [i * r_arity, (i + 1) * r_arity), in insertion order. Scans read
   [r_len] once and re-read [r_data] per tuple, so tuples appended during a
   scan (rules that derive into a relation they read) are not visited by
   it. [r_set] is an open-addressing table of every tuple id. *)
type relation = {
  r_name : string;
  r_arity : int;
  r_cols : int array;  (* [0; ...; r_arity - 1] *)
  mutable r_data : bytes;
  mutable r_len : int;
  mutable r_set : bytes;
  mutable r_indices : index list;
  (* semi-naive delta: the tuples derived in the previous round are ids
     [r_dlo, r_dhi); [r_seen] is [r_len] when the current round started *)
  mutable r_dlo : int;
  mutable r_dhi : int;
  mutable r_seen : int;
}

type t = {
  rels : (string, relation) Hashtbl.t;
  builtins : (string, int array -> int) Hashtbl.t;
  mutable rules : rule list;
  mutable n_derived : int;
  mutable n_scans : int;  (* candidates scanned, see [tick] *)
  mutable n_emits : int;  (* head instantiations, new or not *)
  mutable n_delta : int;  (* tuples visited by delta steps *)
  mutable n_fires : int;  (* rule evaluations *)
  mutable n_plans : int;  (* join plans staged, see [chain] *)
  mutable budget : Timer.budget;
}

let create () =
  { rels = Hashtbl.create 64; builtins = Hashtbl.create 8; rules = [];
    n_derived = 0; n_scans = 0; n_emits = 0; n_delta = 0;
    n_fires = 0; n_plans = 0; budget = Timer.no_budget }

(** Register a builtin function callable from rules via {!fn}. The engine
    reuses the argument array between calls, so [f] must not retain it. *)
let add_builtin t name (f : int array -> int) = Hashtbl.replace t.builtins name f

let relation t name arity : relation =
  match Hashtbl.find_opt t.rels name with
  | Some r ->
    if r.r_arity <> arity then
      error "relation %s declared with arity %d and %d" name r.r_arity arity;
    r
  | None ->
    let r =
      { r_name = name; r_arity = arity; r_cols = Array.init arity Fun.id;
        r_data = Bytes.empty; r_len = 0; r_set = C32.make (capacity 0) (-1);
        r_indices = []; r_dlo = 0; r_dhi = 0; r_seen = 0 }
    in
    Hashtbl.add t.rels name r;
    r

(* the slot of [r_set] holding the tuple equal to [key], or the free slot
   where it would go; load 3/4 guarantees a free slot, so the probe ends *)
let rec set_probe (r : relation) slots mask (key : int array) i =
  let id = C32.get slots i in
  if id < 0 || eq_key r.r_data (id * r.r_arity) r.r_cols key 0 then i
  else set_probe r slots mask key ((i + 1) land mask)

let set_slot (r : relation) key =
  let mask = C32.length r.r_set - 1 in
  set_probe r r.r_set mask key (hash_key key land mask)

let mem (r : relation) key = C32.get r.r_set (set_slot r key) >= 0

let set_grow (r : relation) =
  let slots = C32.make (2 * C32.length r.r_set) (-1) in
  let mask = C32.length slots - 1 in
  for id = 0 to r.r_len - 1 do
    let i = ref (hash_at r.r_data (id * r.r_arity) r.r_cols land mask) in
    while C32.get slots !i >= 0 do
      i := (!i + 1) land mask
    done;
    C32.set slots !i id
  done;
  r.r_set <- slots

(* the slot of a multi-column index holding the key of the tuple at [base]
   (found in [data]), or the free slot where it would go *)
let rec ix_probe ix data arity base mask i =
  let id = C32.get ix.ix_last i in
  if id < 0 || eq_at data (id * arity) base ix.ix_cols 0 then i
  else ix_probe ix data arity base mask ((i + 1) land mask)

let ix_slot ix data arity base =
  let mask = C32.length ix.ix_last - 1 in
  ix_probe ix data arity base mask (hash_at data base ix.ix_cols land mask)

(* the tuple after [id] in its key's ring: after the newest, the oldest *)
let ring_next ix id = C32.get ix.ix_next id

(* append tuple [id], whose key sits at position [p] of [ix_last], to its
   key's ring *)
let ring_add ix p id =
  if id >= C32.length ix.ix_next then ix.ix_next <- C32.grow_to ix.ix_next id 0;
  let last = C32.get ix.ix_last p in
  if last < 0 then begin
    C32.set ix.ix_next id id;
    ix.ix_keys <- ix.ix_keys + 1
  end
  else begin
    C32.set ix.ix_next id (C32.get ix.ix_next last);
    C32.set ix.ix_next last id
  end;
  C32.set ix.ix_last p id

let index_add (r : relation) ix id =
  let base = id * r.r_arity in
  if ix.ix_col >= 0 then begin
    let v = C32.get r.r_data (base + ix.ix_col) in
    if v >= C32.length ix.ix_last then ix.ix_last <- C32.grow_to ix.ix_last v (-1);
    ring_add ix v id
  end
  else begin
    if full ix.ix_keys ix.ix_last then begin
      (* rehash the keys' newest ids into a table twice as large *)
      let old = ix.ix_last in
      ix.ix_last <- C32.make (2 * C32.length old) (-1);
      for i = 0 to C32.length old - 1 do
        let last = C32.get old i in
        if last >= 0 then
          C32.set ix.ix_last (ix_slot ix r.r_data r.r_arity (last * r.r_arity)) last
      done
    end;
    ring_add ix (ix_slot ix r.r_data r.r_arity base) id
  end

(* [List.iter] would allocate a closure per tuple *)
let rec add_to_indices r id = function
  | [] -> ()
  | ix :: rest ->
    index_add r ix id;
    add_to_indices r id rest

(* append [tup], known to be absent and to sit at [r_set] slot [slot] *)
let add_new (r : relation) slot (tup : int array) =
  let id = r.r_len in
  let base = id * r.r_arity in
  if base + r.r_arity > C32.length r.r_data then
    r.r_data <- C32.grow_to r.r_data (base + r.r_arity - 1) 0;
  for i = 0 to r.r_arity - 1 do
    C32.set r.r_data (base + i) tup.(i)
  done;
  r.r_len <- id + 1;
  if full id r.r_set then set_grow r
  else C32.set r.r_set slot id;
  add_to_indices r id r.r_indices

let insert (r : relation) (tup : int array) : bool =
  let slot = set_slot r tup in
  if C32.get r.r_set slot >= 0 then false
  else begin
    add_new r slot tup;
    true
  end

let rec find_index mask = function
  | [] -> raise_notrace Not_found
  | ix :: rest -> if ix.ix_mask = mask then ix else find_index mask rest

let index_for (r : relation) (mask : int) : index =
  match find_index mask r.r_indices with
  | ix -> ix
  | exception Not_found ->
    let cols =
      List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init r.r_arity Fun.id)
      |> Array.of_list
    in
    let col = if Array.length cols = 1 then cols.(0) else -1 in
    (* sized from the relation as it stands: a one-column index to the
       largest value, any other to one key per tuple *)
    let last =
      if col >= 0 then begin
        let top = ref (-1) in
        for id = 0 to r.r_len - 1 do
          top := max !top (C32.get r.r_data ((id * r.r_arity) + col))
        done;
        C32.make (!top + 1) (-1)
      end
      else C32.make (capacity r.r_len) (-1)
    in
    let ix =
      { ix_mask = mask; ix_cols = cols; ix_col = col; ix_last = last;
        ix_next = C32.make r.r_len 0; ix_keys = 0 }
    in
    for id = 0 to r.r_len - 1 do
      index_add r ix id
    done;
    r.r_indices <- ix :: r.r_indices;
    ix

(** Add an EDB fact. Values must lie in [0, 2^31). *)
let fact t name args =
  if not (List.for_all valid args) then
    error "value out of range in fact %s(%s)" name
      (String.concat ", " (List.map string_of_int args));
  let args = Array.of_list args in
  let r = relation t name (Array.length args) in
  ignore (insert r args)

let add_rule t (rule : rule) =
  if rule.head.neg then error "negative head in rule for %s" rule.head.rel;
  List.iter
    (fun a ->
      if not a.builtin then
        Array.iter
          (function
            | C c when not (valid c) -> error "constant %d out of range in %s" c a.rel
            | _ -> ())
          a.args)
    (rule.head :: rule.body);
  ignore (relation t rule.head.rel (Array.length rule.head.args));
  List.iter
    (fun a ->
      if a.builtin then begin
        if not (Hashtbl.mem t.builtins a.rel) then
          error "unknown builtin %s" a.rel
      end
      else ignore (relation t a.rel (Array.length a.args)))
    rule.body;
  (* safety: every head / negated variable must occur in a positive atom
     (builtin outputs count as bound) *)
  let positive_vars =
    List.concat_map
      (fun a ->
        if a.neg then []
        else
          Array.to_list a.args
          |> List.filter_map (function V v -> Some v | C _ -> None))
      rule.body
  in
  let check_bound what args =
    Array.iter
      (function
        | V v when not (List.mem v positive_vars) ->
          error "unbound variable %s in %s" v what
        | _ -> ())
      args
  in
  check_bound ("head of " ^ rule.head.rel) rule.head.args;
  List.iter (fun a -> if a.neg then check_bound ("negated " ^ a.rel) a.args) rule.body;
  t.rules <- rule :: t.rules

(* --------------------------------------------------------- stratification *)

(* stratum(r) >= stratum(b) for positive deps, > for negated deps *)
let stratify t : (string, int) Hashtbl.t =
  let strata = Hashtbl.create 32 in
  Hashtbl.iter (fun name _ -> Hashtbl.replace strata name 0) t.rels;
  let n_rels = Hashtbl.length t.rels in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n_rels + 1 then
      error "negation inside a recursive cycle: program is not stratifiable";
    List.iter
      (fun rule ->
        let hs = Hashtbl.find strata rule.head.rel in
        List.iter
          (fun a ->
            if a.builtin then ()
            else
            let bs = Hashtbl.find strata a.rel in
            let need = if a.neg then bs + 1 else bs in
            if hs < need then begin
              Hashtbl.replace strata rule.head.rel need;
              changed := true
            end)
          rule.body)
      t.rules
  done;
  strata

(* ------------------------------------------------------------- evaluation *)

(* Rules are compiled once per [solve]: variables become integer slots in a
   flat environment array, and each body atom is resolved to its relation /
   builtin up front. *)

type slot = S_const of int | S_var of int

type target = Rel of relation | Fn of (int array -> int)

type catom = {
  ca_neg : bool;
  ca_target : target;
  ca_args : slot array;
}

(* a rule's join plan for one delta position, staged: [ch_order] is the
   body order it was compiled for, [ch_run] evaluates it *)
type chain = {
  ch_order : int array;
  ch_run : unit -> unit;
}

type crule = {
  cr_head_rel : relation;
  cr_head : slot array;
  cr_out : int array;  (* scratch head tuple, constant positions prefilled *)
  cr_body : catom array;
  cr_env : int array;  (* variable slots *)
  cr_chains : chain option array;  (* by delta position + 1 *)
  cr_order : int array;  (* scratch: the body order of this fire *)
  cr_left : bool array;  (* scratch: the atoms not yet ordered *)
  cr_bound : bool array;  (* scratch: the variables bound so far *)
  cr_label : string;  (* "Head :- Body, ..." for attribution *)
  cr_span : string;  (* "rule:" ^ cr_label *)
  mutable cr_arule : Attr.rule option;  (* attribution row, when profiling *)
}

let compile_rule t (rule : rule) : crule =
  let vars = Hashtbl.create 8 in
  let slot_of = function
    | C c -> S_const c
    | V v -> (
      match Hashtbl.find_opt vars v with
      | Some i -> S_var i
      | None ->
        let i = Hashtbl.length vars in
        Hashtbl.add vars v i;
        S_var i)
  in
  let body =
    List.map
      (fun a ->
        {
          ca_neg = a.neg;
          ca_target =
            (if a.builtin then Fn (Hashtbl.find t.builtins a.rel)
             else Rel (Hashtbl.find t.rels a.rel));
          ca_args = Array.map slot_of a.args;
        })
      rule.body
  in
  let head = Array.map slot_of rule.head.args in
  let label =
    match rule.body with
    | [] -> rule.head.rel ^ "."
    | body ->
      rule.head.rel ^ " :- "
      ^ String.concat ", "
          (List.map
             (fun a ->
               (if a.neg then "!" else "")
               ^ a.rel
               ^ if a.builtin then "()" else "")
             body)
  in
  {
    cr_head_rel = Hashtbl.find t.rels rule.head.rel;
    cr_head = head;
    cr_out = Array.map (function S_const c -> c | S_var _ -> 0) head;
    cr_body = Array.of_list body;
    cr_env = Array.make (Hashtbl.length vars) 0;
    cr_chains = Array.make (List.length rule.body + 1) None;
    cr_order = Array.make (List.length rule.body) 0;
    cr_left = Array.make (List.length rule.body) false;
    cr_bound = Array.make (Hashtbl.length vars) false;
    cr_label = label;
    cr_span = "rule:" ^ label;
    cr_arule = None;
  }

(* Join plans. A plan lists a rule's body atoms in evaluation order, each
   compiled against the variables bound before it, so evaluation makes no
   per-binding decision: every column of a step is statically a key column
   (filled from constants and bound variables before the probe), a binding
   (the first occurrence of a free variable) or an equality check. *)

type scan = {
  s_rel : relation;
  s_index : index option;  (* None: every tuple (or the delta) *)
  s_key : int array;       (* probe key, constant positions prefilled *)
  s_key_pos : int array;   (* key positions filled from ... *)
  s_key_var : int array;   (* ... these variables *)
  s_bind_col : int array;  (* env.(s_bind_var.(i)) <- tup.(s_bind_col.(i)) *)
  s_bind_var : int array;
  s_eqc_col : int array;   (* tup.(s_eqc_col.(i)) = s_eqc_val.(i) *)
  s_eqc_val : int array;
  s_eqv_col : int array;   (* tup.(s_eqv_col.(i)) = env.(s_eqv_var.(i)) *)
  s_eqv_var : int array;
}

(* a builtin's result: bound to a free variable, or checked *)
type out = Bind of int | Eq_var of int | Eq_const of int

type step =
  | Scan of scan  (* index probe, or full scan when nothing is bound *)
  | Delta of scan  (* the previous round's tuples of the delta atom *)
  | Member of {
      m_rel : relation;
      m_neg : bool;
      m_tup : int array;  (* constant positions prefilled *)
      m_pos : int array;
      m_var : int array;
    }  (* fully bound atom: a membership test, negated or not *)
  | Call of {
      c_fn : int array -> int;
      c_in : int array;
      c_pos : int array;
      c_var : int array;
      c_out : out;
    }

(* a scratch array holding [args]' constants, plus the positions and
   variables that fill the rest *)
let scratch (args : slot array) =
  let a = Array.map (function S_const c -> c | S_var _ -> 0) args in
  let vars =
    List.filter_map
      (fun (i, s) -> match s with S_var v -> Some (i, v) | S_const _ -> None)
      (List.mapi (fun i s -> (i, s)) (Array.to_list args))
  in
  (a, Array.of_list (List.map fst vars), Array.of_list (List.map snd vars))

(* compile a positive atom against [bound] (which it updates). [mask]
   selects the probe-key columns; every other constant or already-bound
   column becomes a check *)
let make_scan (r : relation) (args : slot array) (bound : bool array) ~mask :
    scan =
  let key = ref [] and bind = ref [] and eqc = ref [] and eqv = ref [] in
  Array.iteri
    (fun i s ->
      if mask land (1 lsl i) <> 0 then key := (i, s) :: !key
      else
        match s with
        | S_const c -> eqc := (i, c) :: !eqc
        | S_var v ->
          if bound.(v) then eqv := (i, v) :: !eqv
          else begin
            bound.(v) <- true;
            bind := (i, v) :: !bind
          end)
    args;
  let arrays l =
    let l = List.rev l in
    (Array.of_list (List.map fst l), Array.of_list (List.map snd l))
  in
  let key_args = Array.of_list (List.rev_map snd !key) in
  let s_key, kpos, kvar = scratch key_args in
  let s_bind_col, s_bind_var = arrays !bind in
  let s_eqc_col, s_eqc_val = arrays !eqc in
  let s_eqv_col, s_eqv_var = arrays !eqv in
  {
    s_rel = r;
    s_index = (if mask = 0 then None else Some (index_for r mask));
    s_key;
    s_key_pos = kpos;
    s_key_var = kvar;
    s_bind_col;
    s_bind_var;
    s_eqc_col;
    s_eqc_val;
    s_eqv_col;
    s_eqv_var;
  }

(* estimated candidates of probing [r] on [mask]: |R| / distinct keys *)
let estimate (r : relation) mask =
  let n = r.r_len in
  if mask = 0 || n = 0 then float_of_int n
  else float_of_int n /. float_of_int (index_for r mask).ix_keys

(* a new semi-naive round: its delta is what the previous round added *)
let start_round (r : relation) =
  r.r_dlo <- r.r_seen;
  r.r_dhi <- r.r_len;
  r.r_seen <- r.r_len

(* [a]'s inputs: a builtin's arguments but the last *)
let inputs (a : catom) = Array.sub a.ca_args 0 (Array.length a.ca_args - 1)

let rec all_bound (bound : bool array) (args : slot array) i n =
  i >= n
  || (match args.(i) with S_const _ -> true | S_var v -> bound.(v))
     && all_bound bound args (i + 1) n

(* [a] can be evaluated as a membership test or builtin call: every
   argument (every input, for a builtin) is bound *)
let ready (bound : bool array) (a : catom) =
  let n = Array.length a.ca_args in
  match a.ca_target with
  | Fn _ -> all_bound bound a.ca_args 0 (n - 1)
  | Rel _ -> all_bound bound a.ca_args 0 n

let mask_of (bound : bool array) (args : slot array) =
  let m = ref 0 in
  for i = 0 to Array.length args - 1 do
    match args.(i) with
    | S_const _ -> m := !m lor (1 lsl i)
    | S_var v -> if bound.(v) then m := !m lor (1 lsl i)
  done;
  !m

let bind_all (bound : bool array) (args : slot array) =
  for i = 0 to Array.length args - 1 do
    match args.(i) with S_var v -> bound.(v) <- true | S_const _ -> ()
  done

(* Order the body greedily, with the delta atom (if [delta >= 0]) first:
   a negated atom, builtin or fully bound atom goes as soon as its inputs
   are bound; otherwise the positive atom with the fewest estimated
   candidates, where any bound probe beats any full scan (ties: smaller
   relation, then body order). Computed once per rule, delta position and
   round, from the index statistics at that time, into [cr_order]. Every
   atom placed binds all its variables. *)
let order (cr : crule) ~(delta : int) =
  let body = cr.cr_body and bound = cr.cr_bound and placed = cr.cr_order in
  let left = cr.cr_left and n = Array.length body in
  Array.fill bound 0 (Array.length bound) false;
  Array.fill left 0 n true;
  let k = ref 0 in
  let place i =
    bind_all bound body.(i).ca_args;
    placed.(!k) <- i;
    incr k;
    left.(i) <- false
  in
  if delta >= 0 then place delta;
  while !k < n do
    let next = ref (-1) and i = ref 0 in
    while !next < 0 && !i < n do
      if left.(!i) && ready bound body.(!i) then next := !i;
      incr i
    done;
    if !next < 0 then begin
      (* the cheapest probe: (full scan, estimate, size), least first *)
      let b_full = ref true and b_est = ref 0. and b_len = ref 0 in
      for i = 0 to n - 1 do
        let a = body.(i) in
        match a.ca_target with
        | Rel r when left.(i) && not a.ca_neg ->
          let mask = mask_of bound a.ca_args in
          let full = mask = 0 and est = estimate r mask in
          if !next < 0
             || (full = !b_full
                 && (est < !b_est || (est = !b_est && r.r_len < !b_len)))
             || (!b_full && not full)
          then begin
            next := i;
            b_full := full;
            b_est := est;
            b_len := r.r_len
          end
        | _ -> ()
      done;
      if !next < 0 then
        error "no evaluable atom in %s (unbound builtin inputs?)" cr.cr_label
    end;
    place !next
  done

(* the steps of the body in [order]: the delta atom (if [delta >= 0], it
   comes first) scans the delta; a fully bound atom becomes a membership
   test; any other relation atom is probed on its bound columns *)
let plan (cr : crule) ~(delta : int) (order : int array) : step list =
  let body = cr.cr_body in
  let bound = Array.make (Array.length cr.cr_env) false in
  let step_of i =
    let a = body.(i) in
    match a.ca_target with
    | Rel r when i = delta -> Delta (make_scan r a.ca_args bound ~mask:0)
    | Fn _ when i = delta -> invalid_arg "Engine.plan: builtin delta atom"
    | Rel r when ready bound a ->
      let m_tup, m_pos, m_var = scratch a.ca_args in
      Member { m_rel = r; m_neg = a.ca_neg; m_tup; m_pos; m_var }
    | Rel r -> Scan (make_scan r a.ca_args bound ~mask:(mask_of bound a.ca_args))
    | Fn f ->
      let c_in, c_pos, c_var = scratch (inputs a) in
      let c_out =
        match a.ca_args.(Array.length a.ca_args - 1) with
        | S_const c -> Eq_const c
        | S_var v when bound.(v) -> Eq_var v
        | S_var v ->
          bound.(v) <- true;
          Bind v
      in
      Call { c_fn = f; c_in; c_pos; c_var; c_out }
  in
  (* in order: each step binds what later steps read *)
  Array.fold_left (fun acc i -> step_of i :: acc) [] order |> List.rev

(* Staging. A plan is compiled once into a chain of closures, one per
   step, each calling the next for every binding it produces; the last
   emits the head. Each closure is specialized on its step's shape (delta
   scan, full scan, a probe of a one-column index on one variable or
   constant, a multi-column probe, membership test, builtin call, and the
   head of arity 2 or 3 with only variables), with one generic closure for
   any other head. The tuple test of a scan that binds at most three
   columns and checks none is specialized; any other runs [matches].
   Closures read the store's vectors ([r_data], [ix_last],
   [ix_next], [r_set]) when they run, never when they are built, since
   inserts reallocate them. Nothing allocates per tuple. *)

(* candidate-scan accounting: huge joins can spend a long time without
   deriving anything, so the deadline is also checked per scanned tuple *)
let[@inline] tick t =
  t.n_scans <- t.n_scans + 1;
  if t.n_scans land 0x7ffff = 0 then Timer.check t.budget

let rec eq_const cols vals d base i =
  i >= Array.length cols
  || (C32.get d (base + cols.(i)) = vals.(i) && eq_const cols vals d base (i + 1))

let rec eq_var cols vars (env : int array) d base i =
  i >= Array.length cols
  || (C32.get d (base + cols.(i)) = env.(vars.(i)) && eq_var cols vars env d base (i + 1))

(* bind the free columns of the tuple at [base] in [d], then run the
   checks *)
let matches s (env : int array) d base =
  for i = 0 to Array.length s.s_bind_col - 1 do
    env.(s.s_bind_var.(i)) <- C32.get d (base + s.s_bind_col.(i))
  done;
  eq_const s.s_eqc_col s.s_eqc_val d base 0
  && eq_var s.s_eqv_col s.s_eqv_var env d base 0

(* [matches s env], specialized on up to three bindings and no check *)
let matcher s (env : int array) : bytes -> int -> bool =
  match (s.s_bind_col, s.s_bind_var, s.s_eqc_col, s.s_eqv_col) with
  | [||], _, [||], [||] -> fun _ _ -> true
  | [| c0 |], [| v0 |], [||], [||] ->
    fun d base ->
      env.(v0) <- C32.get d (base + c0);
      true
  | [| c0; c1 |], [| v0; v1 |], [||], [||] ->
    fun d base ->
      env.(v0) <- C32.get d (base + c0);
      env.(v1) <- C32.get d (base + c1);
      true
  | [| c0; c1; c2 |], [| v0; v1; v2 |], [||], [||] ->
    fun d base ->
      env.(v0) <- C32.get d (base + c0);
      env.(v1) <- C32.get d (base + c1);
      env.(v2) <- C32.get d (base + c2);
      true
  | _ -> matches s env

let fill (dst : int array) pos vars (env : int array) =
  for i = 0 to Array.length pos - 1 do
    dst.(pos.(i)) <- env.(vars.(i))
  done

(* the newest tuple id whose key is [key] in a multi-column index, or
   [-1] *)
let probe_table (r : relation) ix (key : int array) =
  let slots = ix.ix_last in
  let mask = C32.length slots - 1 in
  let i = ref (hash_key key land mask) in
  while
    let id = C32.get slots !i in
    id >= 0 && not (eq_key r.r_data (id * r.r_arity) ix.ix_cols key 0)
  do
    i := (!i + 1) land mask
  done;
  C32.get slots !i

(* the newest tuple id whose key is [v] in a one-column index, or [-1] *)
let col_last ix v = if v < C32.length ix.ix_last then C32.get ix.ix_last v else -1

(* Walk the ring of tuple [last] from its oldest tuple to [last], the
   newest as the scan starts; tuples appended meanwhile come after it.
   [next] runs for each tuple that [m] accepts. *)
let walk t (r : relation) ix m next last =
  if last >= 0 then begin
    let id = ref (ring_next ix last) and more = ref true in
    while !more do
      tick t;
      let i = !id in
      if m r.r_data (i * r.r_arity) then next ();
      if i = last then more := false else id := ring_next ix i
    done
  end

let stage_scan t env next = function
  | Delta s ->
    let r = s.s_rel and m = matcher s env in
    fun () ->
      for id = r.r_dlo to r.r_dhi - 1 do
        t.n_delta <- t.n_delta + 1;
        if m r.r_data (id * r.r_arity) then next ()
      done
  | Scan ({ s_index = None; _ } as s) ->
    let r = s.s_rel and m = matcher s env in
    fun () ->
      for id = 0 to r.r_len - 1 do
        tick t;
        if m r.r_data (id * r.r_arity) then next ()
      done
  | Scan ({ s_index = Some ix; _ } as s) when ix.ix_col >= 0 ->
    (* the key is one bound variable, or one constant *)
    let r = s.s_rel and m = matcher s env in
    let kv = (match s.s_key_var with [| v |] -> v | _ -> -1) and k = s.s_key.(0) in
    fun () -> walk t r ix m next (col_last ix (if kv >= 0 then env.(kv) else k))
  | Scan ({ s_index = Some ix; _ } as s) ->
    let r = s.s_rel and m = matcher s env in
    let key = s.s_key and pos = s.s_key_pos and vars = s.s_key_var in
    fun () ->
      fill key pos vars env;
      walk t r ix m next (probe_table r ix key)
  | Member { m_rel; m_neg; m_tup; m_pos; m_var } ->
    fun () ->
      fill m_tup m_pos m_var env;
      if mem m_rel m_tup <> m_neg then next ()
  | Call { c_fn; c_in; c_pos; c_var; c_out } -> (
    match c_out with
    | Bind v ->
      fun () ->
        fill c_in c_pos c_var env;
        let x = c_fn c_in in
        if not (valid x) then error "builtin result %d out of range" x;
        env.(v) <- x;
        next ()
    | Eq_var v ->
      fun () ->
        fill c_in c_pos c_var env;
        if c_fn c_in = env.(v) then next ()
    | Eq_const k ->
      fun () ->
        fill c_in c_pos c_var env;
        if c_fn c_in = k then next ())

let[@inline] count_emit t =
  t.n_emits <- t.n_emits + 1;
  if t.n_emits land 0xffff = 0 then Timer.check t.budget

(* [cr]'s head tuple, already in [cr_out], is new at [r_set] slot [slot] *)
let derive t (cr : crule) slot =
  add_new cr.cr_head_rel slot cr.cr_out;
  t.n_derived <- t.n_derived + 1;
  match cr.cr_arule with None -> () | Some ar -> Attr.rule_tuples ar

(* the [r_set] slot holding the pair (a, b) of a binary relation, or the
   free slot where it would go; [hash_key] of the pair, unrolled *)
let rec slot2 d slots mask a b i =
  let id = C32.get slots i in
  if id < 0 || (C32.get d (2 * id) = a && C32.get d ((2 * id) + 1) = b) then i
  else slot2 d slots mask a b ((i + 1) land mask)

let rec slot3 d slots mask a b c i =
  let id = C32.get slots i in
  if id < 0
     || C32.get d (3 * id) = a
        && C32.get d ((3 * id) + 1) = b
        && C32.get d ((3 * id) + 2) = c
  then i
  else slot3 d slots mask a b c ((i + 1) land mask)

(* the closure that instantiates [cr]'s head and inserts it *)
let stage_emit t (cr : crule) =
  let env = cr.cr_env and out = cr.cr_out and r = cr.cr_head_rel in
  match cr.cr_head with
  | [| S_var v0; S_var v1 |] ->
    fun () ->
      count_emit t;
      let a = env.(v0) and b = env.(v1) in
      let slots = r.r_set in
      let mask = C32.length slots - 1 in
      let slot = slot2 r.r_data slots mask a b (finish (mix (mix 0 a) b) land mask) in
      if C32.get slots slot < 0 then begin
        out.(0) <- a;
        out.(1) <- b;
        derive t cr slot
      end
  | [| S_var v0; S_var v1; S_var v2 |] ->
    fun () ->
      count_emit t;
      let a = env.(v0) and b = env.(v1) and c = env.(v2) in
      let slots = r.r_set in
      let mask = C32.length slots - 1 in
      let slot =
        slot3 r.r_data slots mask a b c
          (finish (mix (mix (mix 0 a) b) c) land mask)
      in
      if C32.get slots slot < 0 then begin
        out.(0) <- a;
        out.(1) <- b;
        out.(2) <- c;
        derive t cr slot
      end
  | head ->
    let _, pos, vars = scratch head in
    fun () ->
      count_emit t;
      fill out pos vars env;
      let slot = set_slot r out in
      if C32.get r.r_set slot < 0 then derive t cr slot

(* [cr]'s plan for [delta] as one closure: the chain compiled for the
   previous fire at this delta position when the order is the same,
   otherwise a new one *)
let rec same_order (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && same_order a b (i - 1))

let chain t (cr : crule) ~delta =
  order cr ~delta;
  t.n_fires <- t.n_fires + 1;
  match cr.cr_chains.(delta + 1) with
  | Some ch when same_order ch.ch_order cr.cr_order (Array.length cr.cr_order - 1) ->
    ch.ch_run
  | _ ->
    t.n_plans <- t.n_plans + 1;
    let order = Array.copy cr.cr_order in
    let run =
      List.fold_right
        (fun step next -> stage_scan t cr.cr_env next step)
        (plan cr ~delta order) (stage_emit t cr)
    in
    cr.cr_chains.(delta + 1) <- Some { ch_order = order; ch_run = run };
    run

(** Run all rules to fixpoint, stratum by stratum. [attr] records per-rule
    and per-stratum tuple counts, candidates scanned and wall time;
    [progress_s] emits a stderr heartbeat line every that-many seconds.
    Both default to off. *)
let solve ?(budget = Timer.no_budget) ?attr ?progress_s (t : t) : unit =
  t.budget <- budget;
  let t_solve0 = Timer.now () in
  let last_progress = ref t_solve0 in
  let strata = stratify t in
  let max_stratum = Hashtbl.fold (fun _ s acc -> max s acc) strata 0 in
  let rules = List.rev t.rules in
  for stratum = 0 to max_stratum do
    let srules =
      List.filter (fun r -> Hashtbl.find strata r.head.rel = stratum) rules
      |> List.map (compile_rule t)
    in
    (match attr with
    | None -> ()
    | Some a ->
      List.iter (fun cr -> cr.cr_arule <- Some (Attr.rule a cr.cr_label)) srules);
    let heads =
      List.sort_uniq
        (fun a b -> String.compare a.r_name b.r_name)
        (List.map (fun cr -> cr.cr_head_rel) srules)
    in
    let recursive (r : relation) = Hashtbl.find strata r.r_name = stratum in
    let round = ref 0 in
    (* one rule evaluation = one span, one attribution fire *)
    let timed cr ~delta =
      Trace.with_span ~cat:"datalog" cr.cr_span (fun () ->
          let t0 = Timer.now () and scans0 = t.n_scans in
          Fun.protect
            ~finally:(fun () ->
              match cr.cr_arule with
              | None -> ()
              | Some r ->
                Attr.rule_fire r;
                Attr.rule_scans r (t.n_scans - scans0);
                Attr.rule_time r (Timer.now () -. t0))
            (fun () -> chain t cr ~delta ()))
    in
    let heartbeat () =
      (match progress_s with
      | None -> ()
      | Some iv ->
        let now = Timer.now () in
        if now -. !last_progress >= iv then begin
          last_progress := now;
          Fmt.epr
            "[progress] datalog %.1fs: stratum %d/%d round %d, %d tuples derived@."
            (now -. t_solve0) stratum max_stratum !round t.n_derived
        end);
      Trace.counter "datalog" [ ("derived", float_of_int t.n_derived) ]
    in
    if srules <> [] then begin
      let derived0 = t.n_derived and scans0 = t.n_scans in
      let st0 = Timer.now () in
      let st_finish () =
        match attr with
        | None -> ()
        | Some a ->
          let r = Attr.rule a (Printf.sprintf "stratum:%d" stratum) in
          Attr.rule_fire r;
          Attr.rule_tuples ~by:(t.n_derived - derived0) r;
          Attr.rule_scans r (t.n_scans - scans0);
          Attr.rule_time r (Timer.now () -. st0)
      in
      Trace.with_span ~cat:"datalog"
        (Printf.sprintf "stratum:%d" stratum)
        (fun () ->
          (* the stratum row is recorded even when the budget expires
             mid-stratum, so timed-out profiles stay meaningful *)
          Fun.protect ~finally:st_finish @@ fun () ->
          (* round 0: run every rule of the stratum naively *)
          List.iter (fun r -> r.r_seen <- r.r_len) heads;
          List.iter (fun cr -> timed cr ~delta:(-1)) srules;
          (* semi-naive rounds: each rule once per body atom whose relation
             grew in the previous round *)
          while List.exists (fun r -> r.r_len > r.r_seen) heads do
            Timer.check budget;
            incr round;
            heartbeat ();
            List.iter start_round heads;
            List.iter
              (fun cr ->
                Array.iteri
                  (fun i a ->
                    match a.ca_target with
                    | Rel r when (not a.ca_neg) && recursive r && r.r_dhi > r.r_dlo
                      ->
                      timed cr ~delta:i
                    | _ -> ())
                  cr.cr_body)
              srules
          done)
    end
  done

(* ---------------------------------------------------------------- queries *)

let tuples t name : int array list =
  match Hashtbl.find_opt t.rels name with
  | None -> []
  | Some r ->
    List.init r.r_len (fun id ->
        Array.init r.r_arity (fun i -> C32.get r.r_data ((id * r.r_arity) + i)))

let count t name =
  match Hashtbl.find_opt t.rels name with
  | None -> 0
  | Some r -> r.r_len

let derived_count t = t.n_derived

(** Candidate tuples scanned by index probes and full scans so far: the
    join planner's cost, next to {!derived_count}, its yield. *)
let scan_count t = t.n_scans

(** Head instantiations so far, duplicates included: each one writes the
    head tuple and probes its relation's tuple set. *)
let emit_count t = t.n_emits

(** Tuples visited by semi-naive delta steps so far. Delta steps do not
    count as scans. *)
let delta_count t = t.n_delta

(** Rule evaluations so far, and the join plans staged for them: a fire
    whose body order matches the chain staged for its delta position
    reuses it. *)
let fire_count t = t.n_fires
let plan_count t = t.n_plans

(** Words in the relation store, as [(cells, index)]: the tuples' 32-bit
    cells, and the tuple sets with every index's key array and rings.
    Payload bytes over eight, block headers left out. *)
let store_words t =
  let cells = ref 0 and index = ref 0 in
  Hashtbl.iter
    (fun _ r ->
      cells := !cells + Bytes.length r.r_data;
      index := !index + Bytes.length r.r_set;
      List.iter
        (fun ix ->
          index := !index + Bytes.length ix.ix_last + Bytes.length ix.ix_next)
        r.r_indices)
    t.rels;
  (!cells / 8, !index / 8)

(** [f] sees each tuple of [name] in insertion order, in one array that is
    reused between calls, so [f] must not retain it. *)
let iter_tuples t name f =
  match Hashtbl.find_opt t.rels name with
  | None -> ()
  | Some r ->
    let tup = Array.make r.r_arity 0 in
    for id = 0 to r.r_len - 1 do
      for i = 0 to r.r_arity - 1 do
        tup.(i) <- C32.get r.r_data ((id * r.r_arity) + i)
      done;
      f tup
    done
