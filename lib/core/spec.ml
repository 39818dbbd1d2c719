(** Container API classification for the container access pattern (§3.3,
    Figure 10): the input relations Entrances, Exits and Transfers, plus the
    host classes (Collection / Map) used by [ColHost]/[MapHost].

    The paper specifies these for the JDK by hand ("five hours of one
    author's time"); here they cover the mini-JDK of [Csc_lang.Jdk]. Per
    Assumption 1 of the paper, soundness of the container pattern requires
    this table to be complete w.r.t. the covered container classes. *)

open Csc_common
module Ir = Csc_ir.Ir

(** Element category: values of a collection, keys of a map, values of a
    map. Shortcuts only connect Sources and Targets of the same category. *)
type category = Coll_val | Map_key | Map_val

type t = {
  entrances : (Ir.method_id, (int * category) list) Hashtbl.t;
      (** method -> (parameter index (1-based, 0 = this), category) *)
  exits : (Ir.method_id, category) Hashtbl.t;
  transfers : Bits.t;
  host_classes : Bits.t;  (** class ids whose instances are hosts *)
}

(* (class, method, spec) table for the mini-JDK *)
let entrance_names =
  [
    ("Collection", "add", 1, Coll_val);
    ("ArrayList", "add", 1, Coll_val);
    ("ArrayList", "set", 2, Coll_val);
    ("LinkedList", "add", 1, Coll_val);
    ("HashSet", "add", 1, Coll_val);
    ("Stack", "push", 1, Coll_val);
    ("ArrayDeque", "add", 1, Coll_val);
    ("ArrayDeque", "addFirst", 1, Coll_val);
    ("ArrayDeque", "addLast", 1, Coll_val);
    ("Queue", "enqueue", 1, Coll_val);
    ("Queue", "add", 1, Coll_val);
    ("StringBuilder", "append", 1, Coll_val);
    ("Map", "put", 1, Map_key);
    ("Map", "put", 2, Map_val);
    ("HashMap", "put", 1, Map_key);
    ("HashMap", "put", 2, Map_val);
  ]

let exit_names =
  [
    ("Collection", "get", Coll_val);
    ("ArrayList", "get", Coll_val);
    ("ArrayList", "removeLast", Coll_val);
    ("LinkedList", "get", Coll_val);
    ("LinkedList", "removeFirst", Coll_val);
    ("ArrayListIterator", "next", Coll_val);
    ("LinkedListIterator", "next", Coll_val);
    ("Iterator", "next", Coll_val);
    ("Stack", "pop", Coll_val);
    ("Stack", "peek", Coll_val);
    ("ArrayDeque", "removeFirst", Coll_val);
    ("ArrayDeque", "removeLast", Coll_val);
    ("ArrayDeque", "peekFirst", Coll_val);
    ("ArrayDeque", "peekLast", Coll_val);
    ("DequeIterator", "next", Coll_val);
    ("Queue", "dequeue", Coll_val);
    ("Queue", "front", Coll_val);
    ("StringBuilder", "part", Coll_val);
    ("Map", "get", Map_val);
    ("HashMap", "get", Map_val);
    ("KeyIterator", "next", Map_key);
    ("ValueIterator", "next", Map_val);
  ]

let transfer_names =
  [
    ("Collection", "iterator");
    ("ArrayList", "iterator");
    ("LinkedList", "iterator");
    ("HashSet", "iterator");
    ("Stack", "iterator");
    ("ArrayDeque", "iterator");
    ("Queue", "iterator");
    ("Map", "keySet");
    ("Map", "values");
    ("HashMap", "keySet");
    ("HashMap", "values");
    ("KeySetView", "iterator");
    ("ValuesView", "iterator");
  ]

let host_class_names = [ "Collection"; "Map"; "StringBuilder" ]

(** Resolve the by-name tables against a program. Classes or methods missing
    from the program (e.g. when compiled without the JDK) are skipped. *)
let of_program (p : Ir.program) : t =
  let class_by_name = Hashtbl.create 32 in
  Array.iter
    (fun (k : Ir.klass) -> Hashtbl.replace class_by_name k.c_name k.c_id)
    p.classes;
  let declared_method cls name : Ir.method_id option =
    match Hashtbl.find_opt class_by_name cls with
    | None -> None
    | Some cid ->
      List.find_opt
        (fun m -> (Ir.metho p m).m_name = name)
        (Ir.klass p cid).c_methods
  in
  let entrances = Hashtbl.create 16 in
  List.iter
    (fun (cls, name, k, cat) ->
      match declared_method cls name with
      | Some m ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt entrances m) in
        if not (List.mem (k, cat) cur) then
          Hashtbl.replace entrances m ((k, cat) :: cur)
      | None -> ())
    entrance_names;
  let exits = Hashtbl.create 16 in
  List.iter
    (fun (cls, name, cat) ->
      match declared_method cls name with
      | Some m -> Hashtbl.replace exits m cat
      | None -> ())
    exit_names;
  let transfers = Bits.create () in
  List.iter
    (fun (cls, name) ->
      match declared_method cls name with
      | Some m -> ignore (Bits.add transfers m)
      | None -> ())
    transfer_names;
  let host_classes = Bits.create () in
  List.iter
    (fun cls ->
      match Hashtbl.find_opt class_by_name cls with
      | Some cid ->
        (* all subclasses are hosts too *)
        Bits.iter (fun sub -> ignore (Bits.add host_classes sub)) p.subtypes.(cid)
      | None -> ())
    host_class_names;
  { entrances; exits; transfers; host_classes }

let is_host_class t (c : Ir.class_id) = Bits.mem t.host_classes c
let is_transfer t m = Bits.mem t.transfers m
let is_exit t m = Hashtbl.mem t.exits m
let exit_category t m = Hashtbl.find_opt t.exits m
let entrance_roles t m = Option.value ~default:[] (Hashtbl.find_opt t.entrances m)
