(** Machine-speed reference.

    The 2-core VM this benchmark was calibrated on changes speed by up to
    1.7x within minutes (a fixed task measured 24 ms, then 42 ms a quarter
    of an hour later), far more than any regression bound. So between
    requests, outside the timed region, a run times a fixed task that uses
    the standard library only, never this repository's code. A request's
    normalized time is its measured time scaled by [nominal_ms] over the
    median of the probes taken around it: milliseconds on a machine that
    runs the probe in [nominal_ms]. *)

let nominal_ms = 5.0

(* hashing, allocation and sorting, like the analyses; about 5 ms *)
let task () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 12_000 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) (string_of_int i)
  done;
  let l = List.init 12_000 (fun i -> (i * 104729) land 0xffff) in
  Hashtbl.length h + List.length (List.sort compare l)

type t = { mutable probes : (float * float) list; mutable last : float }
(** (time taken, duration) of each probe, newest first *)

let create () = { probes = []; last = neg_infinity }

(* the probe cadence: at most one per [interval] seconds of requests *)
let interval = 0.1

let probe t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (task ()));
  let t1 = Unix.gettimeofday () in
  t.probes <- (t0, t1 -. t0) :: t.probes;
  t.last <- t1

let maybe t = if Unix.gettimeofday () -. t.last >= interval then probe t

(** Scale factor for a span of [start, stop]: nominal over the median probe
    within a second of it, or over all probes when none is that close (an
    unbounded span gives the run's factor). *)
let factor t ~start ~stop =
  match List.filter (fun (at, _) -> at >= start -. 1. && at <= stop +. 1.) t.probes with
  | [] when t.probes = [] -> 1.
  | [] -> nominal_ms /. (1000. *. Stats.median (List.map snd t.probes))
  | near -> nominal_ms /. (1000. *. Stats.median (List.map snd near))
