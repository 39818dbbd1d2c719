(** Build-time shim over OCaml 5 Domains: [Domain.recommended_domain_count]
    on 5.x, [1] on 4.14. The implementation is chosen by a dune rule on
    [%{ocaml_version}]. *)

(** Suggested parallelism for this machine. *)
val recommended : unit -> int
