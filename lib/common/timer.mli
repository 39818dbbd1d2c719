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

(** Expires [s] seconds from now, or as soon as the OCaml major heap grows
    more than [max_gb] (default 4.0) gigabytes past its size at creation —
    analyses that exhaust memory count as unscalable, like the paper's ">2h"
    entries. Measuring growth keeps one over-cap solve from aborting every
    later solve in the process (the heap does not shrink after it). *)
val budget_of_seconds : ?max_gb:float -> float -> budget

exception Out_of_budget

(** Raises {!Out_of_budget} iff the deadline has passed or the heap has
    grown past the cap. *)
val check : budget -> unit
