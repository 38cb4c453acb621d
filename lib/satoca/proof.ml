module Veci = Cgra_util.Veci

type event =
  | Input of Lit.t list
  | Add of Lit.t list * int list
  | Delete of int

let kind_input = 0
let kind_lemma = 1
let kind_delete = 2

type t = {
  words : Veci.t;  (* the records, oldest first *)
  mutable n_ids : int;  (* IDs handed out so far *)
  mutable n_inputs : int;
  mutable n_steps : int;
  mutable has_empty : bool;
  mutable max_var : int;
}

let create () =
  {
    words = Veci.create ~capacity:1024 ();
    n_ids = 0;
    n_inputs = 0;
    n_steps = 0;
    has_empty = false;
    max_var = -1;
  }

let push_clause t kind lits n =
  let w = t.words in
  Veci.push w kind;
  Veci.push w n;
  for i = 0 to n - 1 do
    let l = lits.(i) in
    if Lit.var l > t.max_var then t.max_var <- Lit.var l;
    Veci.push w l
  done;
  if n = 0 then t.has_empty <- true;
  t.n_ids <- t.n_ids + 1;
  t.n_ids

let log_input t lits n =
  t.n_inputs <- t.n_inputs + 1;
  push_clause t kind_input lits n

let log_add ?(counted = true) t lits n hints m =
  if counted then t.n_steps <- t.n_steps + 1;
  let id = push_clause t kind_lemma lits n in
  Veci.push t.words m;
  for i = 0 to m - 1 do
    Veci.push t.words hints.(i)
  done;
  id

let log_delete t id =
  t.n_steps <- t.n_steps + 1;
  Veci.push t.words kind_delete;
  Veci.push t.words id

let of_events events =
  let t = create () in
  List.iter
    (function
      | Input c ->
          let a = Array.of_list c in
          ignore (log_input t a (Array.length a))
      | Add (c, hints) ->
          let a = Array.of_list c and h = Array.of_list hints in
          ignore (log_add t a (Array.length a) h (Array.length h))
      | Delete id -> log_delete t id)
    events;
  t

let n_inputs t = t.n_inputs
let n_steps t = t.n_steps
let has_empty_clause t = t.has_empty
let max_var t = t.max_var
let arena t = Veci.data t.words
let arena_size t = Veci.size t.words

(* Fold [f] over the records in order: [f acc kind pos] with [pos] the
   record's first word. *)
let fold_records f acc t =
  let w = Veci.data t.words and n = Veci.size t.words in
  let rec go acc pos =
    if pos >= n then acc
    else
      let kind = w.(pos) in
      let next =
        if kind = kind_delete then pos + 2
        else
          let after = pos + 2 + w.(pos + 1) in
          if kind = kind_input then after else after + 1 + w.(after)
      in
      go (f acc kind pos) next
  in
  go acc 0

let lits_at w pos = List.init w.(pos + 1) (fun i -> w.(pos + 2 + i))

let events t =
  let w = Veci.data t.words in
  List.rev
    (fold_records
       (fun acc kind pos ->
         if kind = kind_input then Input (lits_at w pos) :: acc
         else if kind = kind_delete then Delete w.(pos + 1) :: acc
         else
           let h = pos + 2 + w.(pos + 1) in
           Add (lits_at w pos, List.init w.(h) (fun i -> w.(h + 1 + i))) :: acc)
       [] t)

let cnf t =
  let w = Veci.data t.words in
  List.rev
    (fold_records (fun acc kind pos -> if kind = kind_input then lits_at w pos :: acc else acc) [] t)

let clause_line buf w pos =
  for i = 0 to w.(pos + 1) - 1 do
    Buffer.add_string buf (string_of_int (Lit.to_dimacs w.(pos + 2 + i)));
    Buffer.add_char buf ' '
  done;
  Buffer.add_string buf "0\n"

let to_dimacs t =
  let w = Veci.data t.words in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" (t.max_var + 1) t.n_inputs);
  fold_records (fun () kind pos -> if kind = kind_input then clause_line buf w pos) () t;
  Buffer.contents buf

let to_drat t =
  let w = Veci.data t.words in
  let buf = Buffer.create 1024 in
  (* ID -> record, to print a deletion's literals *)
  let at = Veci.create () in
  fold_records
    (fun () kind pos ->
      if kind = kind_delete then begin
        let id = w.(pos + 1) in
        if id >= 1 && id <= Veci.size at then begin
          Buffer.add_string buf "d ";
          clause_line buf w (Veci.get at (id - 1))
        end
      end
      else begin
        Veci.push at pos;
        if kind <> kind_input then clause_line buf w pos
      end)
    () t;
  Buffer.contents buf
