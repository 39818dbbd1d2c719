(** The per-layer ledger of a traced run.

    The benchmark wraps each of its calls into a layer's public functions in
    {!span}: the call becomes a Chrome trace span whose category is the layer
    (library name), and its duration is recorded under ["layer.name"].
    Counters read off results are added once per request class, so they
    repeat exactly from run to run at [jobs 1] whatever the number of passes.
    A disabled ledger records nothing and costs one branch per call, which is
    what the untimed-overhead comparison of [perf.exe trace] relies on. *)

module Trace = Csc_obs.Trace

type t = {
  on : bool;
  times : (string, float list) Hashtbl.t;  (** key -> durations (s) *)
  sums : (string, float) Hashtbl.t;  (** key -> accumulated quantity *)
  once : (string * string, unit) Hashtbl.t;  (** (class, key) already taken *)
}

let create ~on =
  {
    on;
    times = Hashtbl.create 64;
    sums = Hashtbl.create 64;
    once = Hashtbl.create 64;
  }

let off = create ~on:false
let enabled t = t.on

let sample t key dt =
  if t.on then
    Hashtbl.replace t.times key
      (dt :: Option.value ~default:[] (Hashtbl.find_opt t.times key))

let add t key v =
  if t.on then
    Hashtbl.replace t.sums key
      (v +. Option.value ~default:0. (Hashtbl.find_opt t.sums key))

(** [add_once t ~cls key v] adds [v] the first time class [cls] reports
    [key] and ignores later reports. *)
let add_once t ~cls key v =
  if t.on && not (Hashtbl.mem t.once (cls, key)) then begin
    Hashtbl.replace t.once (cls, key) ();
    add t key v
  end

(** Time [f ()] as one call into [layer]; recorded under ["layer.name"] and,
    given [cls], also under ["layer.name@cls"]. *)
let span ?cls t ~layer name f =
  if not t.on then f ()
  else
    Trace.with_span ~cat:layer name (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let dt = Unix.gettimeofday () -. t0 in
        let key = layer ^ "." ^ name in
        sample t key dt;
        Option.iter (fun c -> sample t (key ^ "@" ^ c) dt) cls;
        r)

let times t key = Option.value ~default:[] (Hashtbl.find_opt t.times key)
let total t key = Hashtbl.find_opt t.sums key

(** The classes with durations recorded under ["key@cls"]. *)
let classes t key =
  let prefix = key ^ "@" in
  let n = String.length prefix in
  Hashtbl.fold
    (fun k _ acc ->
      if String.starts_with ~prefix k then String.sub k n (String.length k - n) :: acc
      else acc)
    t.times []
  |> List.sort compare

(** Median duration of the calls recorded under [key], in ms. *)
let median_ms t key =
  match times t key with
  | [] -> None
  | ds -> Some (1000. *. Stats.median ds)
