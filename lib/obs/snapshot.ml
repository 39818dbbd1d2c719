type metric =
  | Counter of { name : string; labels : (string * string) list; value : int }
  | Gauge of { name : string; labels : (string * string) list; value : float }
  | Histogram of {
      name : string;
      labels : (string * string) list;
      bounds : float list;
      counts : int list;
      sum : float;
      count : int;
    }

type t = { sn_metrics : metric list }

let metric_name = function
  | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } -> name

let metric_labels = function
  | Counter { labels; _ } | Gauge { labels; _ } | Histogram { labels; _ } ->
    labels

let metric_key m = (metric_name m, metric_labels m)

let of_metrics (ms : metric list) : t =
  { sn_metrics = List.stable_sort (fun a b -> compare (metric_key a) (metric_key b)) ms }

let metrics t = t.sn_metrics

let with_counter t name value =
  of_metrics (Counter { name; labels = []; value } :: t.sn_metrics)

let counter_value ?labels t name =
  let hits =
    List.filter_map
      (function
        | Counter c when c.name = name -> (
          match labels with
          | None -> Some c.value
          | Some l when l = c.labels -> Some c.value
          | Some _ -> None)
        | _ -> None)
      t.sn_metrics
  in
  match hits with [] -> None | vs -> Some (List.fold_left ( + ) 0 vs)

let gauge_value ?labels t name =
  List.find_map
    (function
      | Gauge g when g.name = name -> (
        match labels with
        | None -> Some g.value
        | Some l when l = g.labels -> Some g.value
        | Some _ -> None)
      | _ -> None)
    t.sn_metrics

(* ------------------------------------------------------------------ JSON *)

let labels_json labels : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let metric_json (m : metric) : Json.t =
  let base kind name labels rest =
    Json.Obj
      (("type", Json.Str kind) :: ("name", Json.Str name)
      :: (if labels = [] then rest else ("labels", labels_json labels) :: rest))
  in
  match m with
  | Counter { name; labels; value } ->
    base "counter" name labels [ ("value", Json.Int value) ]
  | Gauge { name; labels; value } ->
    base "gauge" name labels [ ("value", Json.Float value) ]
  | Histogram { name; labels; bounds; counts; sum; count } ->
    base "histogram" name labels
      [
        ("bounds", Json.List (List.map (fun b -> Json.Float b) bounds));
        ("counts", Json.List (List.map (fun c -> Json.Int c) counts));
        ("sum", Json.Float sum);
        ("count", Json.Int count);
      ]

let to_json t : Json.t =
  Json.Obj [ ("metrics", Json.List (List.map metric_json t.sn_metrics)) ]

(* ------------------------------------------------------------------ text *)

let label_str labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    string_of_int (int_of_float f)
  else Printf.sprintf "%.3f" f

let metric_line (m : metric) : string =
  match m with
  | Counter { name; labels; value } ->
    Printf.sprintf "%s%s=%d" name (label_str labels) value
  | Gauge { name; labels; value } ->
    Printf.sprintf "%s%s=%s" name (label_str labels) (float_str value)
  | Histogram { name; labels; sum; count; _ } ->
    Printf.sprintf "%s%s=%d/%s" name (label_str labels) count (float_str sum)

let to_line t = String.concat " " (List.map metric_line t.sn_metrics)
