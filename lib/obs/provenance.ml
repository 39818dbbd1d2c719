type reason = Seed of { label : string } | Flow of { src : int; via : string }

type t = {
  pts : (int * int, reason) Hashtbl.t;  (* (ptr, obj) -> first derivation *)
  max_records : int;
  mutable dropped : int;
}

let create ?(max_records = max_int) () =
  {
    pts = Hashtbl.create 4096;
    max_records = (if max_records < 0 then 0 else max_records);
    dropped = 0;
  }

let full t = Hashtbl.length t.pts >= t.max_records

let record_seed t ~ptr ~obj ~label =
  if not (Hashtbl.mem t.pts (ptr, obj)) then
    if full t then t.dropped <- t.dropped + 1
    else Hashtbl.add t.pts (ptr, obj) (Seed { label })

let record_flow t ~ptr ~obj ~src ~via =
  if not (Hashtbl.mem t.pts (ptr, obj)) then
    if full t then t.dropped <- t.dropped + 1
    else Hashtbl.add t.pts (ptr, obj) (Flow { src; via })

let reason t ~ptr ~obj = Hashtbl.find_opt t.pts (ptr, obj)

let chain ?(limit = 64) t ~ptr ~obj : (int * reason) list =
  let visited = Hashtbl.create 16 in
  let rec go acc p n =
    if n >= limit || Hashtbl.mem visited p then List.rev acc
    else begin
      Hashtbl.add visited p ();
      match Hashtbl.find_opt t.pts (p, obj) with
      | None -> List.rev acc
      | Some (Seed _ as r) -> List.rev ((p, r) :: acc)
      | Some (Flow { src; _ } as r) -> go ((p, r) :: acc) src (n + 1)
    end
  in
  go [] ptr 0

let size t = Hashtbl.length t.pts
let dropped t = t.dropped
