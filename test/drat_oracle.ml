(* The differential oracle for the library's hint checker: a forward
   DRAT replay that ignores the hints.  Every [Add] must be RUP —
   assuming the clause's negation and propagating over the clauses
   accepted so far yields a conflict — or, failing that, RAT on its
   first literal (every resolvent on the pivot is RUP).  A [Delete]
   drops the clause it names from the active set; deletions of unit
   clauses are ignored, following the drat-trim convention.  A log is a
   refutation once an empty clause is derived or root-level propagation
   conflicts.  It shares no code with {!Cgra_satoca.Drat}: the two
   checkers agreeing on every solver proof is the test. *)

module Veci = Cgra_util.Veci
module Lit = Cgra_satoca.Lit
module Proof = Cgra_satoca.Proof

type verdict = Cgra_satoca.Drat.verdict = Valid | Invalid of string

type clause = {
  lits : int array;        (* mutated: watched literals kept at 0 and 1 *)
  mutable deleted : bool;
}

type state = {
  mutable assigns : int array;   (* var -> 1 true / -1 false / 0 unassigned *)
  mutable watches : Veci.t array;
      (* true literal -> (watch entry, blocker) pairs of the clauses
         watching its negation; the entry is the clause index, or its
         complement [lnot ci] for a binary clause, whose blocker is
         then always the other literal *)
  mutable clauses : clause array;
  mutable n_clauses : int;
  mutable by_key : (int list, int list ref) Hashtbl.t option;
      (* sorted literals -> live clauses, for deletion matching; built
         at the first deletion, since most traces delete little *)
  trail : Veci.t;
  mutable head : int;
  mutable refuted : bool;
}

let create () =
  {
    assigns = [||];
    watches = [||];
    clauses = [||];
    n_clauses = 0;
    by_key = None;
    trail = Veci.create ();
    head = 0;
    refuted = false;
  }

let nvars st = Array.length st.assigns

let ensure_var st v =
  if v >= nvars st then begin
    let n = max (v + 1) (max 16 (2 * nvars st)) in
    let assigns = Array.make n 0 in
    Array.blit st.assigns 0 assigns 0 (nvars st);
    let watches = Array.init (2 * n) (fun l ->
        if l < Array.length st.watches then st.watches.(l) else Veci.create ())
    in
    st.assigns <- assigns;
    st.watches <- watches
  end

(* 1 = true, -1 = false, 0 = unassigned: a variable's value is its
   positive literal's, negated for the negative literal.  [value] is
   the unchecked read of the propagation loop. *)
let value assigns l =
  let v = Array.unsafe_get assigns (l lsr 1) in
  if l land 1 = 0 then v else -v

let lit_val st l =
  let v = st.assigns.(Lit.var l) in
  if Lit.sign l then v else -v

let enqueue st l =
  st.assigns.(Lit.var l) <- (if Lit.sign l then 1 else -1);
  Veci.push st.trail l

(* Two-watched-literal unit propagation from the current queue head.
   Returns [true] on conflict, leaving the trail intact so the caller
   can backtrack (assumption checks) or latch refutation (root).  The
   watch list's pairs are rewritten in place through its backing array
   ([j] is the write cursor); a true blocker skips the clause, and a
   binary clause is decided from its blocker alone. *)
let propagate st =
  let assigns = st.assigns and watches = st.watches and clauses = st.clauses in
  let conflict = ref false in
  while (not !conflict) && st.head < Veci.size st.trail do
    let p = Veci.get st.trail st.head in
    st.head <- st.head + 1;
    let false_lit = Lit.negate p in
    let wl = watches.(p) in
    let ws = Veci.data wl and n = Veci.size wl in
    let i = ref 0 and j = ref 0 in
    while !i < n && not !conflict do
      let e = Array.unsafe_get ws !i and blocker = Array.unsafe_get ws (!i + 1) in
      i := !i + 2;
      if value assigns blocker = 1 then begin
        Array.unsafe_set ws !j e;
        Array.unsafe_set ws (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let c = clauses.(if e < 0 then lnot e else e) in
        (* a deleted clause leaves its watches lazily *)
        if not c.deleted then begin
          (* the literal the clause now forces, or -1 when it is
             satisfied or has moved its watch *)
          let forced =
            if e < 0 then blocker
            else begin
              let lits = c.lits in
              if lits.(0) = false_lit then begin
                lits.(0) <- lits.(1);
                lits.(1) <- false_lit
              end;
              let first = lits.(0) in
              if value assigns first = 1 then begin
                Array.unsafe_set ws !j e;
                Array.unsafe_set ws (!j + 1) first;
                j := !j + 2;
                -1
              end
              else begin
                let len = Array.length lits in
                let k = ref 2 in
                while !k < len && value assigns lits.(!k) = -1 do incr k done;
                if !k < len then begin
                  lits.(1) <- lits.(!k);
                  lits.(!k) <- false_lit;
                  let moved = watches.(Lit.negate lits.(1)) in
                  Veci.push moved e;
                  Veci.push moved first;
                  -1
                end
                else first
              end
            end
          in
          if forced >= 0 then begin
            Array.unsafe_set ws !j e;
            Array.unsafe_set ws (!j + 1) blocker;
            j := !j + 2;
            match value assigns forced with
            | 0 -> enqueue st forced
            | _ -> conflict := true
          end
        end
      end
    done;
    (* on conflict, keep the rest of the watch list untouched *)
    while !i < n do
      Array.unsafe_set ws !j (Array.unsafe_get ws !i);
      Array.unsafe_set ws (!j + 1) (Array.unsafe_get ws (!i + 1));
      j := !j + 2;
      i := !i + 2
    done;
    Veci.shrink wl !j
  done;
  !conflict

let backtrack st mark =
  while Veci.size st.trail > mark do
    let l = Veci.pop st.trail in
    st.assigns.(Lit.var l) <- 0
  done;
  st.head <- mark

(* Assume the negation of [lits] on top of the root assignment and
   propagate.  Returns [true] when a conflict arises, i.e. the clause
   is RUP with respect to the active database. *)
let rup st lits =
  if st.refuted then true
  else begin
    let mark = Veci.size st.trail in
    let sat = ref false in
    List.iter
      (fun l ->
        if not !sat then
          match lit_val st l with
          | 1 -> sat := true (* l true at root: ~C contradicts the root *)
          | -1 -> ()
          | _ -> enqueue st (Lit.negate l))
      lits;
    let conflict = !sat || propagate st in
    backtrack st mark;
    conflict
  end

let sorted_key lits = List.sort_uniq compare lits

let register_key by_key key ci =
  match Hashtbl.find_opt by_key key with
  | Some r -> r := ci :: !r
  | None -> Hashtbl.add by_key key (ref [ ci ])

(* Index a newly installed clause, once the index exists. *)
let index st ci =
  match st.by_key with
  | None -> ()
  | Some by_key -> register_key by_key (sorted_key (Array.to_list st.clauses.(ci).lits)) ci

(* The deletion index, built on first use from the live clauses in
   installation order: the same buckets, in the same order, as
   registering every clause at install time. *)
let deletion_index st =
  match st.by_key with
  | Some by_key -> by_key
  | None ->
      let by_key = Hashtbl.create (max 64 st.n_clauses) in
      for ci = 0 to st.n_clauses - 1 do
        let c = st.clauses.(ci) in
        if not c.deleted then register_key by_key (sorted_key (Array.to_list c.lits)) ci
      done;
      st.by_key <- Some by_key;
      by_key

let push_clause st c =
  if st.n_clauses = Array.length st.clauses then begin
    let cap = max 64 (2 * Array.length st.clauses) in
    let bigger = Array.make cap c in
    Array.blit st.clauses 0 bigger 0 st.n_clauses;
    st.clauses <- bigger
  end;
  st.clauses.(st.n_clauses) <- c;
  st.n_clauses <- st.n_clauses + 1;
  st.n_clauses - 1

(* Install an accepted clause into the database. *)
let install st lits =
  if not st.refuted then begin
    List.iter (fun l -> ensure_var st (Lit.var l)) lits;
    match lits with
    | [] -> st.refuted <- true
    | _ ->
        let arr = Array.of_list lits in
        (* move up to two non-false literals to the front *)
        let len = Array.length arr in
        let slot = ref 0 in
        (try
           for i = 0 to len - 1 do
             if lit_val st arr.(i) <> -1 then begin
               let tmp = arr.(!slot) in
               arr.(!slot) <- arr.(i);
               arr.(i) <- tmp;
               incr slot;
               if !slot = 2 then raise Exit
             end
           done
         with Exit -> ());
        if !slot = 0 then begin
          (* all literals false at root: immediate contradiction *)
          index st (push_clause st { lits = arr; deleted = false });
          st.refuted <- true
        end
        else if !slot = 1 || lit_val st arr.(0) = 1 || lit_val st arr.(1) = 1 then begin
          (* unit or already satisfied: roots only grow, so no watches
             are ever needed for this clause *)
          index st (push_clause st { lits = arr; deleted = false });
          if lit_val st arr.(0) = 0 then begin
            enqueue st arr.(0);
            if propagate st then st.refuted <- true
          end
        end
        else begin
          let ci = push_clause st { lits = arr; deleted = false } in
          index st ci;
          let e = if len = 2 then lnot ci else ci in
          Veci.push st.watches.(Lit.negate arr.(0)) e;
          Veci.push st.watches.(Lit.negate arr.(0)) arr.(1);
          Veci.push st.watches.(Lit.negate arr.(1)) e;
          Veci.push st.watches.(Lit.negate arr.(1)) arr.(0)
        end
  end

let delete st lits =
  if not st.refuted then
    match lits with
    | [] | [ _ ] -> () (* drat-trim convention: ignore unit deletions *)
    | _ -> (
        match Hashtbl.find_opt (deletion_index st) (sorted_key lits) with
        | None -> () (* deleting an unknown clause is a no-op *)
        | Some r -> (
            let rec pick = function
              | [] -> ()
              | ci :: rest ->
                  let c = st.clauses.(ci) in
                  if c.deleted then pick rest
                  else begin
                    (* lazy detach: propagation skips deleted clauses *)
                    c.deleted <- true;
                    r := List.filter (fun i -> i <> ci) !r
                  end
            in
            pick !r))

let pp_clause lits =
  match lits with
  | [] -> "<empty>"
  | _ -> String.concat " " (List.map (fun l -> string_of_int (Lit.to_dimacs l)) lits)

(* RAT on the first literal: every resolvent against a clause holding
   the negated pivot must itself be RUP. *)
let rat st lits =
  match lits with
  | [] -> false
  | pivot :: _ ->
      let neg_pivot = Lit.negate pivot in
      let ok = ref true in
      (try
         for ci = 0 to st.n_clauses - 1 do
           let c = st.clauses.(ci) in
           if (not c.deleted) && Array.mem neg_pivot c.lits then begin
             let resolvent =
               lits @ List.filter (fun l -> l <> neg_pivot) (Array.to_list c.lits)
             in
             if not (rup st resolvent) then begin
               ok := false;
               raise Exit
             end
           end
         done
       with Exit -> ());
      !ok

(* Replay the events in order, stopping at the first failing step or
   once a contradiction is established (nothing after it can fail). *)
let check ?(require_empty = true) events =
  let st = create () in
  (* ID -> literals, to resolve a deletion *)
  let by_id = ref [||] and n_ids = ref 0 in
  let record lits =
    if !n_ids = Array.length !by_id then begin
      let a = Array.make (max 64 (2 * !n_ids)) [] in
      Array.blit !by_id 0 a 0 !n_ids;
      by_id := a
    end;
    !by_id.(!n_ids) <- lits;
    incr n_ids
  in
  let rec go step = function
    | _ when st.refuted -> Valid
    | [] ->
        if require_empty then Invalid "refutation incomplete: no contradiction was derived"
        else Valid
    | ev :: rest -> (
        match ev with
        | Proof.Input lits ->
            List.iter (fun l -> ensure_var st (Lit.var l)) lits;
            install st lits;
            record lits;
            go (step + 1) rest
        | Proof.Add (lits, _) ->
            List.iter (fun l -> ensure_var st (Lit.var l)) lits;
            if rup st lits || rat st lits then begin
              install st lits;
              record lits;
              go (step + 1) rest
            end
            else
              Invalid
                (Printf.sprintf "step %d: clause [%s] is neither RUP nor RAT" step
                   (pp_clause lits))
        | Proof.Delete id ->
            if id >= 1 && id <= !n_ids then delete st !by_id.(id - 1);
            go (step + 1) rest)
  in
  go 1 events
