(** Container API classification for the container access pattern (§3.3,
    Figure 10): the input relations Entrances, Exits and Transfers, plus the
    host classes used by [ColHost]/[MapHost].

    Per Assumption 1 of the paper, the container pattern is sound only if
    this table is complete for the covered container classes; it covers the
    whole mini-JDK ({!Csc_lang.Jdk}). *)

open Csc_common
module Ir = Csc_ir.Ir

(** Element category: values of a collection, keys of a map, values of a
    map. Shortcuts only connect Sources and Targets of equal category. *)
type category = Coll_val | Map_key | Map_val

(** The category as a small int: 0, 1 and 2 in the order above. *)
val category_code : category -> int

type t = {
  entrances : (Ir.method_id, (int * category) list) Hashtbl.t;
      (** method -> (parameter index, category); index 0 is [this] *)
  exits : (Ir.method_id, category) Hashtbl.t;
  transfers : Bits.t;
  host_classes : Bits.t;  (** classes whose instances are hosts *)
}

(** Resolve the tables against a program; entries whose class or method is
    absent are skipped (e.g. when compiling without the JDK). *)
val of_program : Ir.program -> t

val is_host_class : t -> Ir.class_id -> bool
val is_transfer : t -> Ir.method_id -> bool
val is_exit : t -> Ir.method_id -> bool
val exit_category : t -> Ir.method_id -> category option
val entrance_roles : t -> Ir.method_id -> (int * category) list
