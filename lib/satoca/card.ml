type encoding = Pairwise | Sequential

(* the empty list gives the empty clause: unsatisfiable *)
let at_least_one solver lits = Solver.add_clause_array solver (Array.of_list lits)

let pairwise solver arr =
  let n = Array.length arr in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      Solver.add_binary solver (Lit.negate arr.(i)) (Lit.negate arr.(j))
    done
  done

(* Sinz's sequential counter specialised to k = 1: a ladder of "some
   x_1..x_i is true" flags, s_i = variable [first + i]. *)
let sequential_amo solver arr =
  match arr with
  | [||] | [| _ |] -> ()
  | arr ->
      let n = Array.length arr in
      let first = Solver.new_vars solver (n - 1) in
      let s i = Lit.pos (first + i) in
      Solver.add_binary solver (Lit.negate arr.(0)) (s 0);
      for i = 1 to n - 2 do
        Solver.add_binary solver (Lit.negate arr.(i)) (s i);
        Solver.add_binary solver (Lit.negate (s (i - 1))) (s i);
        Solver.add_binary solver (Lit.negate arr.(i)) (Lit.negate (s (i - 1)))
      done;
      Solver.add_binary solver (Lit.negate arr.(n - 1)) (Lit.negate (s (n - 2)))

let at_most_one_array ?encoding solver arr =
  let n = Array.length arr in
  if n >= 2 then
    match encoding with
    | Some Pairwise -> pairwise solver arr
    | Some Sequential -> sequential_amo solver arr
    | None -> if n <= 6 then pairwise solver arr else sequential_amo solver arr

let at_most_one ?encoding solver lits = at_most_one_array ?encoding solver (Array.of_list lits)

let exactly_one ?encoding solver lits =
  at_least_one solver lits;
  at_most_one ?encoding solver lits

(* The device that clausifies [sum arr <= k] over [n] literals: one
   choice, read both by [at_most_k_array] and by [count_at_most_k]. *)
type device = No_clauses | Units | Pairwise_amo | Ladder | Counter

let device n k =
  if k = 0 then Units
  else if n <= k then No_clauses
  else if k = 1 then if n <= 6 then Pairwise_amo else Ladder
  else Counter

(* Sinz 2005: s i j == "at least j+1 of x_0..x_i are true", variable
   [first + (i * k) + j]. *)
let counter solver arr k =
  let n = Array.length arr in
  let first = Solver.new_vars solver ((n - 1) * k) in
  let s i j = Lit.pos (first + (i * k) + j) in
  Solver.add_binary solver (Lit.negate arr.(0)) (s 0 0);
  for j = 1 to k - 1 do
    Solver.add_clause_array solver [| Lit.negate (s 0 j) |]
  done;
  for i = 1 to n - 2 do
    Solver.add_binary solver (Lit.negate arr.(i)) (s i 0);
    Solver.add_binary solver (Lit.negate (s (i - 1) 0)) (s i 0);
    for j = 1 to k - 1 do
      Solver.add_ternary solver (Lit.negate arr.(i)) (Lit.negate (s (i - 1) (j - 1))) (s i j);
      Solver.add_binary solver (Lit.negate (s (i - 1) j)) (s i j)
    done;
    Solver.add_binary solver (Lit.negate arr.(i)) (Lit.negate (s (i - 1) (k - 1)))
  done;
  Solver.add_binary solver (Lit.negate arr.(n - 1)) (Lit.negate (s (n - 2) (k - 1)))

let at_most_k_array solver arr k =
  if k < 0 then invalid_arg "Card.at_most_k: negative bound";
  match device (Array.length arr) k with
  | No_clauses -> ()
  | Units -> Array.iter (fun l -> Solver.add_clause_array solver [| Lit.negate l |]) arr
  | Pairwise_amo -> pairwise solver arr
  | Ladder -> sequential_amo solver arr
  | Counter -> counter solver arr k

type size = { mutable clauses : int; mutable literals : int; mutable vars : int }

let count_clauses size ~extra count len =
  if len + extra >= 2 then begin
    size.clauses <- size.clauses + count;
    size.literals <- size.literals + (count * (len + extra))
  end

let count_at_most_k size ~extra n k =
  if k < 0 then invalid_arg "Card.count_at_most_k: negative bound";
  match device n k with
  | No_clauses -> ()
  | Units -> count_clauses size ~extra n 1
  | Pairwise_amo -> count_clauses size ~extra (n * (n - 1) / 2) 2
  | Ladder ->
      size.vars <- size.vars + n - 1;
      count_clauses size ~extra ((3 * n) - 4) 2
  | Counter ->
      size.vars <- size.vars + ((n - 1) * k);
      (* Unguarded, the k-1 units fix s.(0).(1..k-1) false at the root,
         so the solver drops the k binary and k-2 ternary clauses of
         row i = 1 that they satisfy. *)
      let dropped_2 = if extra = 0 then k else 0 and dropped_3 = if extra = 0 then k - 2 else 0 in
      count_clauses size ~extra (2 + ((n - 2) * (k + 2)) - dropped_2) 2;
      count_clauses size ~extra (((n - 2) * (k - 1)) - dropped_3) 3;
      count_clauses size ~extra (k - 1) 1

let at_most_k solver lits k = at_most_k_array solver (Array.of_list lits) k

let at_least_k solver lits k =
  if k <= 0 then ()
  else begin
    let n = List.length lits in
    if k > n then Solver.add_clause_array solver [||]
    else if k = n then List.iter (fun l -> Solver.add_clause_array solver [| l |]) lits
    else if k = 1 then at_least_one solver lits
    else at_most_k solver (List.map Lit.negate lits) (n - k)
  end

module Totalizer = struct
  type t = { outputs : Lit.t array; inputs : int }

  (* Merge two sorted-count output vectors, keeping the first [cap]
     outputs: r.(c-1) == "at least c inputs are true".  Only the upward
     implications are emitted — they are what an at-most bound needs to
     propagate.  A count past the cap needs no output: every output
     below it is forced by pairs (i, j) with i + j + 1 under the cap. *)
  let merge ~cap solver a b =
    let m = Array.length a and n = Array.length b in
    let out = min (m + n) cap in
    let first = Solver.new_vars solver out in
    let r = Array.init out (fun i -> Lit.pos (first + i)) in
    for i = 0 to min m out - 1 do
      Solver.add_binary solver (Lit.negate a.(i)) r.(i)
    done;
    for j = 0 to min n out - 1 do
      Solver.add_binary solver (Lit.negate b.(j)) r.(j)
    done;
    for i = 0 to min m (out - 1) - 1 do
      for j = 0 to min n (out - 1 - i) - 1 do
        Solver.add_ternary solver (Lit.negate a.(i)) (Lit.negate b.(j)) r.(i + j + 1)
      done
    done;
    r

  let rec tree ~cap solver = function
    | [] -> [||]
    | [ l ] -> [| l |]
    | lits ->
        let n = List.length lits in
        let rec split i acc = function
          | rest when i = 0 -> (List.rev acc, rest)
          | x :: rest -> split (i - 1) (x :: acc) rest
          | [] -> (List.rev acc, [])
        in
        let left, right = split (n / 2) [] lits in
        merge ~cap solver (tree ~cap solver left) (tree ~cap solver right)

  let build ?cap solver lits =
    let inputs = List.length lits in
    let cap =
      match cap with
      | Some c when c < 1 -> invalid_arg "Totalizer.build: cap below 1"
      | Some c -> c
      | None -> inputs
    in
    { outputs = tree ~cap solver lits; inputs }

  let outputs t = t.outputs

  let bound_lit t k =
    if k < 0 then invalid_arg "Totalizer.bound_lit: negative bound";
    if k >= t.inputs then None
    else if k < Array.length t.outputs then Some (Lit.negate t.outputs.(k))
    else invalid_arg "Totalizer.bound_lit: bound past the cap"
end
