(** An immutable, structured view of a metrics registry.

    Snapshots replace the preformatted one-line stat strings the engines used
    to carry: every consumer (CLI, bench JSON, tests, trace args) reads typed
    metrics instead of re-parsing text. *)

type metric =
  | Counter of { name : string; labels : (string * string) list; value : int }
  | Gauge of { name : string; labels : (string * string) list; value : float }
  | Histogram of {
      name : string;
      labels : (string * string) list;
      bounds : float list;  (** upper bucket bounds, ascending *)
      counts : int list;    (** per-bucket counts + one overflow bucket *)
      sum : float;
      count : int;
    }

type t

val metric_name : metric -> string

(** Build a snapshot; metrics are ordered by (name, labels) so renderings
    and comparisons are deterministic. *)
val of_metrics : metric list -> t

val metrics : t -> metric list

(** Append a counter (used for registry-external facts, e.g. the provenance
    record count). *)
val with_counter : t -> string -> int -> t

(** Counter value; with [labels] matches exactly, otherwise the sum over all
    label sets of that name. [None] if no such counter exists. *)
val counter_value : ?labels:(string * string) list -> t -> string -> int option

val gauge_value : ?labels:(string * string) list -> t -> string -> float option

val to_json : t -> Json.t

(** Compact [name=value name{k=v}=value ...] single line — for CLI output. *)
val to_line : t -> string
