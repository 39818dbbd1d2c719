(** The shared diagnostic record every checker emits, with text and JSON
    renderers. Diagnostics address statements by method + {!Ir.stmt_path},
    so they survive re-compilation as long as the source does not move. *)

module Ir = Csc_ir.Ir
module Json = Csc_obs.Json

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  d_check : string;           (** checker name, e.g. "null-deref" *)
  d_severity : severity;
  d_method : Ir.method_id;
  d_path : Ir.stmt_path;      (** [] for method-level diagnostics *)
  d_message : string;
  d_witness : string option;  (** supporting evidence, e.g. the alloc sites *)
}

(** Stable order: method, path, severity, check, message. *)
let compare (a : t) (b : t) : int =
  let c = Int.compare a.d_method b.d_method in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.d_path b.d_path in
    if c <> 0 then c
    else
      let c = Int.compare (severity_rank a.d_severity) (severity_rank b.d_severity) in
      if c <> 0 then c
      else
        let c = String.compare a.d_check b.d_check in
        if c <> 0 then c else String.compare a.d_message b.d_message

let pp_text (p : Ir.program) ppf (d : t) =
  Fmt.pf ppf "%s: [%s] %s at %s%s: %s%a"
    (severity_name d.d_severity)
    d.d_check
    (Ir.method_name p d.d_method)
    (if d.d_path = [] then "<method>" else "stmt ")
    (Ir.path_to_string d.d_path)
    d.d_message
    (Fmt.option (fun ppf w -> Fmt.pf ppf " (%s)" w))
    d.d_witness

(* ------------------------------------------------------------------ JSON *)

(** One diagnostic as a JSON object; see README.md for the schema. *)
let json (p : Ir.program) (d : t) : Json.t =
  Json.Obj
    ([ ("check", Json.Str d.d_check);
       ("severity", Json.Str (severity_name d.d_severity));
       ("method", Json.Str (Ir.method_name p d.d_method));
       ("path", Json.Str (Ir.path_to_string d.d_path));
       ("message", Json.Str d.d_message) ]
    @ match d.d_witness with None -> [] | Some w -> [ ("witness", Json.Str w) ])

(** A diagnostic list as a JSON array, deterministic: stable-sorted by
    (method, path, severity, check, message) with identical findings
    deduplicated. *)
let json_list (p : Ir.program) (ds : t list) : Json.t =
  Json.List (List.map (json p) (List.sort_uniq compare ds))

(** {!json_list} as text, one object per line. *)
let render_json (p : Ir.program) (ds : t list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  ";
      Json.to_buffer buf (json p d))
    (List.sort_uniq compare ds);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
