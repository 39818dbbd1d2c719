(** Context abstractions for the context-sensitive baselines, and the
    store that owns context and abstract-object identity for both engines.

    A context is a tuple of ints, most recent first: allocation sites for
    object sensitivity, class ids for type sensitivity, call-site ids for
    call-site sensitivity. Selecting the empty tuple everywhere yields
    context insensitivity — one solver implements every analysis.

    The store keeps a tuple as a hash-consed cell, an element consed onto
    the cell of the older elements, so extending and k-limiting a context
    are int-keyed lookups that build no list. Cells and contexts are
    numbered apart: the empty context is 0, and a context gets the next id
    when a selector first returns it; a cell built only on the way (a
    k-limited suffix) takes no context id. An abstract object is a
    (heap context, allocation site) pair, numbered in creation order. *)

open Csc_common
module Ir = Csc_ir.Ir

(** One solve's contexts and abstract objects, over a program. *)
type env

(** [env prog] is an empty store: only the empty context exists. *)
val env : Ir.program -> env

(** The empty context's id, [0] in every store. *)
val empty : int

(** [push env ~limit e ctx] is the context [e] followed by the most recent
    [limit - 1] elements of [ctx]: the first [limit] of [e :: ctx]. *)
val push : env -> limit:int -> int -> int -> int

(** [truncate env ~depth ctx] keeps the [depth] most recent elements. *)
val truncate : env -> depth:int -> int -> int

(** The context's elements, most recent first (for tests; the selectors
    never build the list). *)
val elems : env -> int -> int list

(** The abstract object of [site] under heap context [hctx], created on
    first request. *)
val obj : env -> hctx:int -> site:Ir.alloc_id -> int

val n_objs : env -> int
val obj_site : env -> int -> Ir.alloc_id
val obj_hctx : env -> int -> int

(** Every object's allocation site, indexed by object id (a copy). *)
val obj_sites : env -> Ir.alloc_id array

type t = {
  sel_name : string;
  sel_callee_ctx :
    env ->
    caller_ctx:int ->
    site:Ir.call_id ->
    recv:int ->
    callee:Ir.method_id ->
    int;
      (** context for a callee instance; [recv] is the dispatching abstract
          object, [-1] for static calls *)
  sel_heap_ctx : env -> mctx:int -> site:Ir.alloc_id -> int;
      (** heap context for an allocation under method context [mctx] *)
}

(** Context insensitivity: the empty context everywhere. *)
val ci : t

(** k-object sensitivity with heap depth [hk] [Milanova et al. 2005]. *)
val kobj : k:int -> hk:int -> t

(** k-type sensitivity: receiver objects abstracted to the class containing
    their allocation site [Smaragdakis et al. 2011]. *)
val ktype : k:int -> hk:int -> t

(** k-call-site sensitivity (k-CFA). *)
val kcall : k:int -> hk:int -> t

(** Apply [base] only to methods in [selected] (and heap contexts only to
    allocations inside them): the main-analysis half of Zipper^e. *)
val selective : selected:Bits.t -> base:t -> t
