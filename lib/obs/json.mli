(** A minimal JSON tree with a printer and a parser.

    The repo deliberately carries no external JSON dependency; this module is
    the single JSON substrate shared by metric snapshots, trace files, bench
    reports and the diagnostics of [csc_checks]-style clients. The printer
    emits floats so that they re-parse to the identical IEEE value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed with a ['.'] or exponent, never as an int *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact by default; [~pretty:true] indents with two spaces. Non-finite
    floats are not representable in JSON and print as [null]. *)
val to_string : ?pretty:bool -> t -> string

(** Append the compact form. *)
val to_buffer : Buffer.t -> t -> unit

(** Escape a string body (no surrounding quotes). *)
val escape : string -> string

(** Parse one JSON document (trailing whitespace allowed). *)
val parse : string -> (t, string) result

(** Like {!parse}; raises [Failure] with a position message. *)
val parse_exn : string -> t

(** {2 Accessors} — shallow, [None] on shape mismatch. *)

val member : string -> t -> t option
val get_int : t -> int option

(** Accepts [Int] too. *)
val get_float : t -> float option

val get_string : t -> string option
val get_list : t -> t list option
val get_bool : t -> bool option

(** {2 Versioned envelopes}

    Every top-level machine-readable document this repo emits (driver
    outcomes, check/taint diagnostics, profile reports, bench experiment
    files, server replies) carries a [("schema", Int schema_version)] first
    member so clients can detect format drift. *)

(** Current wire/report schema version: [1]. *)
val schema_version : int

(** [with_schema fields] is [Obj] with [("schema", Int schema_version)]
    prepended. *)
val with_schema : (string * t) list -> t

(** The one shared error-object shape:
    [{"code": code, "message": msg}]. *)
val error : code:string -> string -> t
