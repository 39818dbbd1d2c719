(** A shim kept only so that the frozen [bench/perf] still compiles
    unmodified: it reads these fields off [Session.update_result.up_info].
    Every update is an ordinary solve, so [i_dirty_methods] and [i_reuse]
    are always 0. To be removed with the benchmark's next change. Source
    edits live in {!Csc_lang.Edit}. *)

type info = { i_dirty_methods : int; i_reuse : float }

let fresh_info = { i_dirty_methods = 0; i_reuse = 0. }

let info_json (i : info) : (string * Csc_obs.Json.t) list =
  [ ("dirty_methods", Csc_obs.Json.Int i.i_dirty_methods);
    ("reuse_pct", Csc_obs.Json.Float (100. *. i.i_reuse)) ]
