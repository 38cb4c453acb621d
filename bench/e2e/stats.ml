(* Order statistics for the run loop and for [compare].  Every function
   takes a non-empty sample; an empty one gives [nan]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* A smoothed [p]-quantile, [p] in (0, 1]: the mean of the order
   statistics ranked within 5 % of the sample (at least one rank) of
   the nearest rank.  One sample's jitter, or two neighbours trading
   places where the pool changes from one cell to the next, moves it far
   less than it moves the nearest-rank value. *)
let quantile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
    let h = max 1 (n / 20) in
    let lo = max 0 (r - h) and hi = min (n - 1) (r + h) in
    let sum = ref 0.0 in
    for i = lo to hi do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int (hi - lo + 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles exactly as Python's
   [statistics.quantiles xs ~n:4] (its default, exclusive method). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
