(** Growable arrays ("vectors"), used for dense id-indexed tables. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) dummy =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len
let words t = 4 + Array.length t.data + 1

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data * 2) in
    while n > !cap do cap := !cap * 2 done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

(** [push_idx t x] pushes and returns the index of the new element. *)
let push_idx t x =
  push t x;
  t.len - 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

(** [get_or t i] auto-grows with the dummy up to index [i]. *)
let get_or t i =
  if i < t.len then t.data.(i) else t.dummy

let set_grow t i x =
  if i >= t.len then begin
    ensure t (i + 1);
    for j = t.len to i do t.data.(j) <- t.dummy done;
    t.len <- i + 1
  end;
  t.data.(i) <- x

let iter f t =
  for i = 0 to t.len - 1 do f t.data.(i) done

let iteri f t =
  for i = 0 to t.len - 1 do f i t.data.(i) done

let fold f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)
let to_array t = Array.sub t.data 0 t.len
let of_list dummy l =
  let t = create dummy in
  List.iter (push t) l;
  t

let clear t = t.len <- 0

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.data.(t.len)
  end
