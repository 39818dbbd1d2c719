(** Wall-clock timing helpers and analysis budgets. *)

let now () = Unix.gettimeofday ()

(** [time f] runs [f ()] and returns its result with elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Budgets let long analyses abort, reproducing the paper's ">2h" cells.
    Besides the deadline, a major-heap cap guards against analyses that
    exhaust memory before they exhaust time (the paper's machine had 128 GB;
    context-sensitive analyses routinely hit whichever limit comes first).
    The cap bounds growth past the heap size at budget creation: the major
    heap does not shrink after an aborted solve is dropped (and OCaml 5.1
    does not compact), so an absolute cap would abort every later solve in
    the same process. *)
type budget = {
  deadline : float option;
  max_heap_words : int option;  (** absolute: heap at creation + cap *)
}

let no_budget = { deadline = None; max_heap_words = None }

(** [budget ?max_gb s]: expires [s] seconds from now ([None]: never) or
    when the OCaml major heap grows more than [max_gb] (default 4.0)
    gigabytes past its size now. *)
let budget ?(max_gb = 4.0) s =
  let cap = int_of_float (max_gb *. 1024. *. 1024. *. 1024. /. float (Sys.word_size / 8)) in
  {
    deadline = Option.map (fun s -> now () +. s) s;
    max_heap_words = Some ((Gc.quick_stat ()).heap_words + cap);
  }

exception Out_of_budget

let check b =
  (match b.deadline with
  | Some d when now () > d -> raise Out_of_budget
  | _ -> ());
  match b.max_heap_words with
  | Some limit when (Gc.quick_stat ()).heap_words > limit -> raise Out_of_budget
  | _ -> ()
