(** Hash tables keyed by [int].

    The analyses key their hot tables (PFG edge dedup, pointer interning,
    reachability, call edges, CSC bookkeeping) by packed ints. The
    polymorphic [Hashtbl] hashes and compares those through the generic
    [caml_hash]/[compare] runtime calls; this instance of [Hashtbl.Make]
    hashes with one multiply, shift and xor, folding the product's high
    half into the low bits that pick the bucket, and compares with [=] on
    ints. Semantics are the stdlib's: [add] shadows, [remove] uncovers. *)

include Hashtbl.S with type key = int
