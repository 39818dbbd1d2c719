(* Cost-attribution tables. All recording paths are allocation-free after
   the first touch of a key (rows are mutable records found by hash), so a
   profiled run stays close to an unprofiled one; an unprofiled run pays a
   single [None] branch at each instrumentation site. *)

type row = {
  mutable k_pops : int;
  mutable k_props : int;
  mutable k_shortcuts : int;
}

type rule = {
  r_name : string;
  mutable r_fires : int;
  mutable r_tuples : int;
  mutable r_scans : int;
  mutable r_time : float;
}

let n_buckets = 24

type t = {
  meths : (int, row) Hashtbl.t;
  ptrs : (int, row) Hashtbl.t;
  rules : (string, rule) Hashtbl.t;
  hist : int array;  (* delta-cardinality histogram, log2 buckets *)
  mutable t_pops : int;
  mutable t_props : int;
  mutable t_shortcuts : int;
}

let create () =
  {
    meths = Hashtbl.create 256;
    ptrs = Hashtbl.create 1024;
    rules = Hashtbl.create 32;
    hist = Array.make n_buckets 0;
    t_pops = 0;
    t_props = 0;
    t_shortcuts = 0;
  }

(* bucket 0 holds deltas <= 1; bucket i>0 holds (2^(i-1), 2^i], i.e.
   ceil(log2 delta), clamped to the last bucket *)
let bucket_of d =
  if d <= 1 then 0
  else begin
    let b = ref 0 and v = ref (d - 1) in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    if !b >= n_buckets then n_buckets - 1 else !b
  end

let bucket_label i =
  if i >= n_buckets - 1 then Printf.sprintf ">%d" (1 lsl (n_buckets - 2))
  else Printf.sprintf "<=%d" (1 lsl i)

let row tbl id =
  match Hashtbl.find_opt tbl id with
  | Some r -> r
  | None ->
    let r = { k_pops = 0; k_props = 0; k_shortcuts = 0 } in
    Hashtbl.add tbl id r;
    r

let observe_pop t ~meth ~ptr ~delta =
  t.t_pops <- t.t_pops + 1;
  t.t_props <- t.t_props + delta;
  let b = bucket_of delta in
  t.hist.(b) <- t.hist.(b) + 1;
  let m = row t.meths meth in
  m.k_pops <- m.k_pops + 1;
  m.k_props <- m.k_props + delta;
  let p = row t.ptrs ptr in
  p.k_pops <- p.k_pops + 1;
  p.k_props <- p.k_props + delta

let observe_shortcut t ~meth ~ptr =
  t.t_shortcuts <- t.t_shortcuts + 1;
  let m = row t.meths meth in
  m.k_shortcuts <- m.k_shortcuts + 1;
  let p = row t.ptrs ptr in
  p.k_shortcuts <- p.k_shortcuts + 1

let rule t name =
  match Hashtbl.find_opt t.rules name with
  | Some r -> r
  | None ->
    let r =
      { r_name = name; r_fires = 0; r_tuples = 0; r_scans = 0; r_time = 0. }
    in
    Hashtbl.add t.rules name r;
    r

let rule_fire r = r.r_fires <- r.r_fires + 1
let rule_tuples ?(by = 1) r = r.r_tuples <- r.r_tuples + by
let rule_scans r n = r.r_scans <- r.r_scans + n
let rule_time r dt = r.r_time <- r.r_time +. dt
let pops t = t.t_pops
let props t = t.t_props
let shortcuts t = t.t_shortcuts

(* --------------------------------------------------------- rendered form *)

type entry = {
  e_name : string;
  e_pops : int;
  e_props : int;
  e_shortcuts : int;
}

type rule_entry = {
  re_name : string;
  re_fires : int;
  re_tuples : int;
  re_scans : int;
  re_time : float;
}

type profile = {
  p_engine : string;
  p_methods : entry list;
  p_pointers : entry list;
  p_rules : rule_entry list;
  p_hist : (string * int) list;
  p_pops : int;
  p_props : int;
  p_shortcuts : int;
}

(* the first [n] entries of a ranked list *)
let first n xs = List.filteri (fun i _ -> i < n) xs

(* hottest first: objects propagated, then pops, then name — a total order,
   so output is deterministic for a deterministic run *)
let entry_compare a b =
  match compare b.e_props a.e_props with
  | 0 -> (
    match compare b.e_pops a.e_pops with
    | 0 -> String.compare a.e_name b.e_name
    | c -> c)
  | c -> c

let rule_compare a b =
  match compare b.re_tuples a.re_tuples with
  | 0 -> (
    match compare b.re_fires a.re_fires with
    | 0 -> String.compare a.re_name b.re_name
    | c -> c)
  | c -> c

let render ?(top = 10) t ~engine ~meth_name ~ptr_name : profile =
  let entries tbl name_of =
    Hashtbl.fold
      (fun id (r : row) acc ->
        {
          e_name = name_of id;
          e_pops = r.k_pops;
          e_props = r.k_props;
          e_shortcuts = r.k_shortcuts;
        }
        :: acc)
      tbl []
    |> List.sort entry_compare
    |> first top
  in
  let rules =
    Hashtbl.fold
      (fun _ (r : rule) acc ->
        {
          re_name = r.r_name;
          re_fires = r.r_fires;
          re_tuples = r.r_tuples;
          re_scans = r.r_scans;
          re_time = r.r_time;
        }
        :: acc)
      t.rules []
    |> List.sort rule_compare
    |> first top
  in
  let hist = ref [] in
  for i = n_buckets - 1 downto 0 do
    (* drop empty tail buckets but keep interior zeros so the shape reads *)
    if t.hist.(i) > 0 || !hist <> [] then
      hist := (bucket_label i, t.hist.(i)) :: !hist
  done;
  {
    p_engine = engine;
    p_methods = entries t.meths meth_name;
    p_pointers = entries t.ptrs ptr_name;
    p_rules = rules;
    p_hist = !hist;
    p_pops = t.t_pops;
    p_props = t.t_props;
    p_shortcuts = t.t_shortcuts;
  }

let entry_json (e : entry) : Json.t =
  Json.Obj
    [
      ("name", Json.Str e.e_name);
      ("pops", Json.Int e.e_pops);
      ("props", Json.Int e.e_props);
      ("shortcuts", Json.Int e.e_shortcuts);
    ]

let rule_json (r : rule_entry) : Json.t =
  Json.Obj
    [
      ("rule", Json.Str r.re_name);
      ("fires", Json.Int r.re_fires);
      ("tuples", Json.Int r.re_tuples);
      ("scans", Json.Int r.re_scans);
      ("time_s", Json.Float r.re_time);
    ]

let profile_json (p : profile) : Json.t =
  Json.Obj
    [
      ("engine", Json.Str p.p_engine);
      ( "totals",
        Json.Obj
          [
            ("pops", Json.Int p.p_pops);
            ("props", Json.Int p.p_props);
            ("shortcuts", Json.Int p.p_shortcuts);
          ] );
      ("methods", Json.List (List.map entry_json p.p_methods));
      ("pointers", Json.List (List.map entry_json p.p_pointers));
      ("rules", Json.List (List.map rule_json p.p_rules));
      ( "delta_hist",
        Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) p.p_hist) );
    ]

let profile_text ?top (p : profile) : string =
  let cut xs = match top with None -> xs | Some n -> first n xs in
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "engine: %s\n" p.p_engine;
  pf "totals: pops=%d props=%d shortcuts=%d\n" p.p_pops p.p_props
    p.p_shortcuts;
  let section title xs =
    if xs <> [] then begin
      pf "%s:\n" title;
      pf "  %10s %10s %9s  name\n" "props" "pops" "shortcuts";
      List.iter
        (fun e ->
          pf "  %10d %10d %9d  %s\n" e.e_props e.e_pops e.e_shortcuts e.e_name)
        (cut xs)
    end
  in
  section "hot methods (by objects propagated)" p.p_methods;
  section "hot pointers" p.p_pointers;
  if p.p_rules <> [] then begin
    pf "rules:\n";
    pf "  %10s %12s %10s %9s  rule\n" "tuples" "scans" "fires" "time(s)";
    List.iter
      (fun r ->
        pf "  %10d %12d %10d %9.3f  %s\n" r.re_tuples r.re_scans r.re_fires
          r.re_time r.re_name)
      (cut p.p_rules)
  end;
  if p.p_hist <> [] then begin
    pf "delta size histogram (pops per delta cardinality):\n";
    let max_c = List.fold_left (fun m (_, c) -> max m c) 1 p.p_hist in
    List.iter
      (fun (l, c) ->
        let stars = c * 40 / max_c in
        pf "  %10s %8d %s\n" l c (String.make stars '*'))
      p.p_hist
  end;
  Buffer.contents b
