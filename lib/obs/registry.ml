type counter = {
  c_name : string;
  c_labels : (string * string) list;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_bounds : float array;
  h_counts : int array;  (* length = bounds + 1 (overflow) *)
  mutable h_sum : float;
  mutable h_count : int;
}

type entry = E_counter of counter | E_gauge of gauge | E_histogram of histogram

type t = {
  entries : (string * (string * string) list, entry) Hashtbl.t;
  mutable order : entry list;  (* reverse registration order *)
}

let create () = { entries = Hashtbl.create 32; order = [] }

let register t key entry =
  Hashtbl.add t.entries key entry;
  t.order <- entry :: t.order

let counter t ?(labels = []) name : counter =
  match Hashtbl.find_opt t.entries (name, labels) with
  | Some (E_counter c) -> c
  | Some _ -> invalid_arg ("Registry.counter: " ^ name ^ " registered as non-counter")
  | None ->
    let c = { c_name = name; c_labels = labels; c_value = 0 } in
    register t (name, labels) (E_counter c);
    c

let gauge t ?(labels = []) name : gauge =
  match Hashtbl.find_opt t.entries (name, labels) with
  | Some (E_gauge g) -> g
  | Some _ -> invalid_arg ("Registry.gauge: " ^ name ^ " registered as non-gauge")
  | None ->
    let g = { g_name = name; g_labels = labels; g_value = 0. } in
    register t (name, labels) (E_gauge g);
    g

let histogram t ?(labels = []) ~buckets name : histogram =
  match Hashtbl.find_opt t.entries (name, labels) with
  | Some (E_histogram h) -> h
  | Some _ ->
    invalid_arg ("Registry.histogram: " ^ name ^ " registered as non-histogram")
  | None ->
    let bounds = Array.of_list buckets in
    let h =
      {
        h_name = name;
        h_labels = labels;
        h_bounds = bounds;
        h_counts = Array.make (Array.length bounds + 1) 0;
        h_sum = 0.;
        h_count = 0;
      }
    in
    register t (name, labels) (E_histogram h);
    h

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let value c = c.c_value
let set g v = g.g_value <- v
let set_max g v = if v > g.g_value then g.g_value <- v
let gauge_value g = g.g_value

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let snapshot t : Snapshot.t =
  Snapshot.of_metrics
    (List.rev_map
       (function
         | E_counter c ->
           Snapshot.Counter { name = c.c_name; labels = c.c_labels; value = c.c_value }
         | E_gauge g ->
           Snapshot.Gauge { name = g.g_name; labels = g.g_labels; value = g.g_value }
         | E_histogram h ->
           Snapshot.Histogram
             {
               name = h.h_name;
               labels = h.h_labels;
               bounds = Array.to_list h.h_bounds;
               counts = Array.to_list h.h_counts;
               sum = h.h_sum;
               count = h.h_count;
             })
       t.order)
