(** Machine-readable reports: serialize driver outcomes as JSON. Shared by
    [bench --json] and the CLI so the two emit identical shapes. *)

module Json = Csc_obs.Json
module Snapshot = Csc_obs.Snapshot
module Metrics = Csc_clients.Metrics

let metrics_json (m : Metrics.t) : Json.t =
  Obj
    [ ("fail_cast", Json.Int m.fail_cast);
      ("reach_mtd", Json.Int m.reach_mtd);
      ("poly_call", Json.Int m.poly_call);
      ("call_edge", Json.Int m.call_edge) ]

let opt f = function None -> Json.Null | Some x -> f x

let outcome_json (o : Run.outcome) : Json.t =
  let base =
    [ ("schema", Json.Int Json.schema_version);
      ("analysis", Json.Str o.o_analysis);
      ("timeout", Json.Bool o.o_timeout);
      ("time_s", Json.Float o.o_time);
      ("pre_time_s", Json.Float o.o_pre_time);
      ("main_time_s", Json.Float o.o_main_time);
      ("metrics", opt metrics_json o.o_metrics);
      ("shortcuts", Json.Int o.o_shortcuts);
      ("snapshot", opt Snapshot.to_json o.o_snapshot) ]
  in
  (* the profile member only appears on profiled runs, so unprofiled report
     shapes — and the bench --compare gate, which only reads "metrics" —
     are unchanged *)
  match o.o_profile with
  | None -> Obj base
  | Some p -> Obj (base @ [ ("profile", Csc_obs.Attr.profile_json p) ])

let profile_json (o : Run.outcome) : Json.t =
  Obj
    [ ("analysis", Json.Str o.o_analysis);
      ("timeout", Json.Bool o.o_timeout);
      ("time_s", Json.Float o.o_time);
      ("profile", opt Csc_obs.Attr.profile_json o.o_profile) ]

(** One experiment: its name plus the (program, analysis) cells it ran.
    The schema envelope lives on the experiment document, not on every
    cell, so cells drop the member {!outcome_json} adds. *)
let cell_json ~program (o : Run.outcome) : Json.t =
  match outcome_json o with
  | Obj fields ->
    Obj
      (("program", Json.Str program)
      :: List.filter (fun (k, _) -> k <> "schema") fields)
  | j -> j

let experiment_json ~name (cells : Json.t list) : Json.t =
  Json.with_schema [ ("experiment", Json.Str name); ("cells", Json.List cells) ]

let write_file path (j : Json.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true j);
      output_char oc '\n')
