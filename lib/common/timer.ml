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
    The cap bounds growth past the smallest heap seen since the budget was
    created: the major heap may hold an aborted solve's garbage (and OCaml
    5.1 does not compact), so an absolute cap would abort every later solve
    in the same process, and a cap over the size at creation would count
    that garbage as headroom once a cycle frees it.

    [Gc.quick_stat] is cheap, but on OCaml 5 its [heap_words] moves only
    when a major cycle ends, so a heap can outgrow the cap by what one
    cycle allocates before the sample shows it. The budget remembers the
    major words allocated when [heap_words] last changed; once the words
    allocated since exceed the headroom left under the cap, the heap may
    be past it, and one [Gc.full_major] brings the sample up to date. A
    run far below the cap never pays for it. *)
type cap = {
  words : int;                 (** growth allowed past [floor] *)
  mutable floor : int;         (** smallest [heap_words] sampled *)
  mutable heap_seen : int;     (** [heap_words] at its last change *)
  mutable major_seen : int;    (** [major_words] then *)
}

type budget = { deadline : float option; cap : cap option }

let no_budget = { deadline = None; cap = None }

(** [budget ?max_gb s]: expires [s] seconds from now ([None]: never) or
    when the OCaml major heap grows more than [max_gb] (default 4.0)
    gigabytes past its smallest size from now on. *)
let budget ?(max_gb = 4.0) s =
  let words = int_of_float (max_gb *. 1024. *. 1024. *. 1024. /. float (Sys.word_size / 8)) in
  let st = Gc.quick_stat () in
  {
    deadline = Option.map (fun s -> now () +. s) s;
    cap =
      Some
        { words; floor = st.heap_words; heap_seen = st.heap_words;
          major_seen = int_of_float st.major_words };
  }

exception Out_of_budget

(* the heap sample, after noting a change of [heap_words] in [c] *)
let sample c =
  let st = Gc.quick_stat () in
  if st.heap_words <> c.heap_seen then begin
    c.heap_seen <- st.heap_words;
    c.major_seen <- int_of_float st.major_words;
    c.floor <- min c.floor st.heap_words
  end;
  st

let check b =
  (match b.deadline with
  | Some d when now () > d -> raise Out_of_budget
  | _ -> ());
  match b.cap with
  | None -> ()
  | Some c ->
    let st = sample c in
    let st =
      if int_of_float st.major_words - c.major_seen > c.floor + c.words - st.heap_words
      then begin
        Gc.full_major ();
        let st = sample c in
        c.major_seen <- int_of_float st.major_words;
        st
      end
      else st
    in
    if st.heap_words > c.floor + c.words then raise Out_of_budget
