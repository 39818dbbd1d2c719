(** Growable union-find over dense non-negative ints (see the mli). *)

type t = {
  mutable parent : int array;  (* parent.(i) = i for roots *)
  mutable rank : int array;
  mutable n : int;             (* ids < n are materialized *)
  mutable merged : int;
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  { parent = Array.init capacity (fun i -> i); rank = Array.make capacity 0;
    n = 0; merged = 0 }

let ensure t i =
  if i >= Array.length t.parent then begin
    let cap = ref (Array.length t.parent * 2) in
    while i >= !cap do cap := !cap * 2 done;
    let parent = Array.init !cap (fun j -> j) in
    Array.blit t.parent 0 parent 0 (Array.length t.parent);
    let rank = Array.make !cap 0 in
    Array.blit t.rank 0 rank 0 (Array.length t.rank);
    t.parent <- parent;
    t.rank <- rank
  end;
  if i >= t.n then t.n <- i + 1

let find t i =
  if i >= t.n then i
  else begin
    (* path halving *)
    let p = t.parent in
    let x = ref i in
    while p.(!x) <> !x do
      let g = p.(p.(!x)) in
      p.(!x) <- g;
      x := g
    done;
    !x
  end

let union t a b =
  ensure t a;
  ensure t b;
  let ra = find t a and rb = find t b in
  if ra = rb then None
  else begin
    let rep, absorbed =
      if t.rank.(ra) > t.rank.(rb) then (ra, rb)
      else if t.rank.(ra) < t.rank.(rb) then (rb, ra)
      else begin
        t.rank.(ra) <- t.rank.(ra) + 1;
        (ra, rb)
      end
    in
    t.parent.(absorbed) <- rep;
    t.merged <- t.merged + 1;
    Some (rep, absorbed)
  end

let is_rep t i = find t i = i
let merged_count t = t.merged

let members t ~universe =
  let acc = Hashtbl.create 16 in
  for i = 0 to universe - 1 do
    let r = find t i in
    Hashtbl.replace acc r
      (i :: (match Hashtbl.find_opt acc r with Some l -> l | None -> []))
  done;
  Hashtbl.fold
    (fun r l out -> if List.length l >= 2 then (r, List.rev l) :: out else out)
    acc []
  |> List.sort compare
