(** Wall-clock timing and analysis budgets.

    Budgets reproduce the paper's ">2h" timeout cells: long-running analyses
    call {!check} periodically and abort with {!Out_of_budget} past the
    deadline. *)

val now : unit -> float

(** [time f] runs [f ()]; returns its result and the elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

type budget

(** Never expires. *)
val no_budget : budget

(** [budget ?max_gb s] expires [s] seconds from now ([None]: no deadline),
    or as soon as the OCaml major heap grows more than [max_gb] (default
    4.0) gigabytes past its smallest size since creation — analyses that
    exhaust memory count as unscalable, like the paper's ">2h" entries.
    The heap cap holds with or without a deadline. Measuring growth keeps
    one over-cap solve from aborting every later solve in the process (the
    heap does not shrink after it); measuring from the smallest size keeps
    garbage freed after creation from counting as headroom. *)
val budget : ?max_gb:float -> float option -> budget

exception Out_of_budget

(** Raises {!Out_of_budget} iff the deadline has passed or the heap has
    grown past the cap. O(1): it samples [Gc.quick_stat], and runs one
    [Gc.full_major] only when the major words allocated since the sample
    last moved could have filled the headroom under the cap. *)
val check : budget -> unit
