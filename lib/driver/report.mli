(** Machine-readable reports: serialize driver outcomes as JSON. Shared by
    [bench --json] and the CLI so both emit the same shape: each cell carries
    the wall-clock times, the timeout flag, the four precision metrics and
    the engine's structured metric {!Csc_obs.Snapshot} — no preformatted stat
    strings. *)

module Json = Csc_obs.Json
module Metrics = Csc_clients.Metrics

val metrics_json : Metrics.t -> Json.t

(** Carries the [("schema", _)] version member ({!Csc_obs.Json.schema_version})
    as its first field so clients can detect format drift. *)
val outcome_json : Run.outcome -> Json.t

(** One profiled run, as the CLI's [profile --json] entries and the
    server's [profile] reply both render it:
    [{"analysis", "timeout", "time_s", "profile"}], with the canonical
    analysis name and a [null] profile on timeout. *)
val profile_json : Run.outcome -> Json.t

(** {!outcome_json} with a ["program"] field prepended and the schema member
    dropped (the enclosing experiment document carries it once). *)
val cell_json : program:string -> Run.outcome -> Json.t

(** [{"schema": 1, "experiment": name, "cells": [...]}] over cell objects
    ({!cell_json}, or an experiment's own cell shape). *)
val experiment_json : name:string -> Json.t list -> Json.t

(** Write pretty-printed JSON plus a trailing newline. *)
val write_file : string -> Json.t -> unit
