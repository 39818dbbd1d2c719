(** Context abstractions for the context-sensitive baselines.

    A context is an interned tuple of ints, most-recent-first: allocation
    sites for object sensitivity, class ids for type sensitivity, call-site
    ids for call-site sensitivity. Selecting the empty tuple everywhere
    yields context insensitivity — one solver implements every analysis. *)

open Csc_common
module Ir = Csc_ir.Ir

(** What a selector may query about the running solver. *)
type env = {
  prog : Ir.program;
  empty : int;                   (** the empty context's id *)
  ctx_elems : int -> int list;   (** interned context id -> elements *)
  intern_ctx : int list -> int;
  obj_alloc : int -> Ir.alloc_id;
  obj_hctx : int -> int;         (** object id -> its heap context id *)
}

(** [env ~prog ~obj_alloc ~obj_hctx] creates the context interner (the
    empty context is interned first, so its id is 0) and the environment
    over it. [obj_alloc]/[obj_hctx] read the caller's abstract objects. *)
val env :
  prog:Ir.program ->
  obj_alloc:(int -> Ir.alloc_id) ->
  obj_hctx:(int -> int) ->
  env

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

(** [take k l] keeps the k most recent context elements. *)
val take : int -> int list -> int list

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
