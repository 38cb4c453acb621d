type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size t = t.size
let data t = t.data

let get t i =
  assert (i < t.size);
  Array.unsafe_get t.data i

let set t i x =
  assert (i < t.size);
  Array.unsafe_set t.data i x

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = Array.length t.data then grow t;
  Array.unsafe_set t.data t.size x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Vec.pop: empty";
  t.size <- t.size - 1;
  let x = Array.unsafe_get t.data t.size in
  Array.unsafe_set t.data t.size t.dummy;
  x

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.data i)
  done

let iteri f t =
  for i = 0 to t.size - 1 do
    f i (Array.unsafe_get t.data i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get t.data i :: acc) in
  go (t.size - 1) []
