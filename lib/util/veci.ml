type t = { mutable data : int array; mutable size : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; size = 0 }

let make n x = { data = (if n = 0 then Array.make 1 x else Array.make n x); size = n }

let size t = t.size

let get t i =
  assert (i < t.size);
  Array.unsafe_get t.data i

let set t i x =
  assert (i < t.size);
  Array.unsafe_set t.data i x

let data t = t.data
let unsafe_get t i = Array.unsafe_get t.data i
let unsafe_set t i x = Array.unsafe_set t.data i x

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) 0 in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = Array.length t.data then grow t;
  Array.unsafe_set t.data t.size x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Veci.pop: empty";
  t.size <- t.size - 1;
  Array.unsafe_get t.data t.size

let last t =
  if t.size = 0 then invalid_arg "Veci.last: empty";
  Array.unsafe_get t.data (t.size - 1)

let clear t = t.size <- 0

let shrink t n =
  assert (n <= t.size);
  t.size <- n

let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.data i)
  done

let exists p t =
  let rec go i = i < t.size && (p (Array.unsafe_get t.data i) || go (i + 1)) in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get t.data i :: acc) in
  go (t.size - 1) []

let of_list l =
  let t = create ~capacity:(max 1 (List.length l)) () in
  List.iter (push t) l;
  t

let swap_remove t i =
  assert (i < t.size);
  t.size <- t.size - 1;
  if i < t.size then Array.unsafe_set t.data i (Array.unsafe_get t.data t.size)

let sort cmp t =
  let sub = Array.sub t.data 0 t.size in
  Array.sort cmp sub;
  Array.blit sub 0 t.data 0 t.size
