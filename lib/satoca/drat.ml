module Veci = Cgra_util.Veci
module Deadline = Cgra_util.Deadline

type verdict = Valid | Invalid of string
type replay = Finished of verdict | Unfinished

let poll_every = 128

let pp_lits w pos n =
  if n = 0 then "<empty>"
  else String.concat " " (List.init n (fun i -> string_of_int (Lit.to_dimacs w.(pos + i))))

(* The walk over the records of [proof]: [value.(l)] is 1 for a true
   literal, -1 for a false one and 0 for an open one; [trail] holds the
   literals a lemma's check assigned true, to undo them.  [at.(id - 1)]
   is the first word of clause [id]'s record, or -1 once deleted. *)
let replay ~deadline ~require_empty proof =
  let w = Proof.arena proof and size = Proof.arena_size proof in
  let nlits = 2 * (Proof.max_var proof + 1) in
  let value = Array.make (max 2 nlits) 0 in
  let trail = Array.make (max 1 (nlits / 2)) 0 in
  let at = Veci.create () in
  let assign n l =
    value.(l) <- 1;
    value.(l lxor 1) <- -1;
    trail.(n) <- l;
    n + 1
  in
  (* Check the lemma at [pos]; [None] when its hints derive a conflict. *)
  let lemma pos =
    let n = w.(pos + 1) in
    let h = pos + 2 + n in
    let m = w.(h) in
    let assigned = ref 0 and conflict = ref false in
    for i = pos + 2 to pos + 1 + n do
      let nl = w.(i) lxor 1 in
      match value.(nl) with
      | 0 -> assigned := assign !assigned nl
      | -1 -> conflict := true (* the lemma holds a literal and its complement *)
      | _ -> () (* a repeated literal *)
    done;
    let error = ref None and k = ref 0 in
    while (not !conflict) && Option.is_none !error && !k < m do
      let id = w.(h + 1 + !k) in
      incr k;
      let c = if id >= 1 && id <= Veci.size at then Veci.get at (id - 1) else -1 in
      if c < 0 then
        error :=
          Some
            (Printf.sprintf "hint %d names %s clause %d" !k
               (if id >= 1 && id <= Veci.size at then "deleted" else "no earlier")
               id)
      else begin
        (* the clause's one open literal, or -1 when it is falsified;
           -2 when it is satisfied or has two open literals *)
        let cn = w.(c + 1) in
        let open_lit = ref (-1) and i = ref (c + 2) in
        let stop = c + 2 + cn in
        while !i < stop do
          let l = w.(!i) in
          incr i;
          match value.(l) with
          | -1 -> ()
          | 0 when !open_lit = -1 -> open_lit := l
          | 0 when !open_lit = l -> ()
          | _ ->
              open_lit := -2;
              i := stop
        done;
        if !open_lit = -1 then conflict := true
        else if !open_lit >= 0 then assigned := assign !assigned !open_lit
        else
          error :=
            Some (Printf.sprintf "hint %d (clause %d) is neither unit nor falsified" !k id)
      end
    done;
    for i = 0 to !assigned - 1 do
      let l = trail.(i) in
      value.(l) <- 0;
      value.(l lxor 1) <- 0
    done;
    match !error with
    | Some _ as e -> e
    | None when !conflict -> None
    | None -> Some "its hints end without a falsified clause"
  in
  let rec go pos step =
    if pos >= size then
      Finished
        (if require_empty then Invalid "refutation incomplete: no contradiction was derived"
         else Valid)
    else if (step - 1) mod poll_every = 0 && Deadline.expired deadline then Unfinished
    else
      let kind = w.(pos) in
      if kind = Proof.kind_delete then begin
        let id = w.(pos + 1) in
        if id >= 1 && id <= Veci.size at && Veci.get at (id - 1) >= 0 then begin
          Veci.set at (id - 1) (-1);
          go (pos + 2) (step + 1)
        end
        else Finished (Invalid (Printf.sprintf "step %d: deletes clause %d, which is not live" step id))
      end
      else begin
        let n = w.(pos + 1) in
        let next = pos + 2 + n in
        let next = if kind = Proof.kind_input then next else next + 1 + w.(next) in
        let failure = if kind = Proof.kind_input then None else lemma pos in
        match failure with
        | Some why ->
            Finished
              (Invalid
                 (Printf.sprintf "step %d: lemma %d [%s]: %s" step (Veci.size at + 1)
                    (pp_lits w (pos + 2) n) why))
        | None ->
            Veci.push at pos;
            (* an empty clause ends the refutation: nothing after it can fail *)
            if n = 0 then Finished Valid else go next (step + 1)
      end
  in
  go 0 1

let check ?(require_empty = true) proof =
  match replay ~deadline:Deadline.none ~require_empty proof with
  | Finished v -> v
  | Unfinished -> assert false (* [Deadline.none] never expires *)

let check_until ~deadline proof = replay ~deadline ~require_empty:true proof

let errors = function Valid -> None | Invalid msg -> Some msg
