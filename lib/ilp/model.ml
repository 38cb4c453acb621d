module Vec = Cgra_util.Vec
module Veci = Cgra_util.Veci

type var = int
type sense = Le | Ge | Eq
type term = int * var
type row = { group : string option; terms : term list; sense : sense; rhs : int }

type objective = Feasibility | Minimize of term list

(* Names are the one part of a model the solving engines never look
   at, so the hot path stores them unrendered: a [Deferred] thunk is
   forced (and cached) the first time LP export, core extraction or a
   diagnostic actually asks for the spelling. *)
type name_spec = Rendered of string | Deferred of (unit -> string)

(* Rows live in flat unboxed storage: [tbuf] holds the (coef, var)
   pairs of every row back to back, and the per-row side arrays record
   each row's pair offset/length, sense and right-hand side.  The
   [row] record the consumers see is materialised on demand by {!row}
   — the emission path itself never allocates a term list. *)
type t = {
  mname : string;
  mutable names : name_spec array;
  mutable count : int;
  by_name : (string, var) Hashtbl.t;
  mutable indexed : int;
      (* names.(v) for v < indexed are rendered and present in by_name *)
  tbuf : Veci.t;          (* coef at 2m, var at 2m+1 *)
  row_off : Veci.t;       (* index into tbuf of the row's first pair;
                             rows are contiguous, so row i ends where
                             row i+1 (or the open/pending row) begins *)
  row_sense : Veci.t;     (* 0 = Le, 1 = Ge, 2 = Eq *)
  row_rhs : Veci.t;
  row_groups : string option Vec.t;
  mutable pending : int;  (* open row's tbuf offset; -1 when closed *)
  mutable pending_sense : sense;
  mutable pending_rhs : int;
  mutable pending_group : string option;
  mutable pending_name : name_spec option;
  row_names : (int, name_spec) Hashtbl.t;
      (* explicitly named rows only; absent rows render as ["c<index>"] *)
  mutable obj : objective;
  mutable priorities : float array;  (* var -> branch priority *)
  mutable phases : Bytes.t;          (* var -> '\001' for a true phase hint *)
}

let create ?(name = "model") () =
  {
    mname = name;
    names = Array.make 16 (Rendered "");
    count = 0;
    by_name = Hashtbl.create 64;
    indexed = 0;
    tbuf = Veci.create ~capacity:256 ();
    row_off = Veci.create ~capacity:64 ();
    row_sense = Veci.create ~capacity:64 ();
    row_rhs = Veci.create ~capacity:64 ();
    row_groups = Vec.create ~capacity:64 ~dummy:None ();
    pending = -1;
    pending_sense = Le;
    pending_rhs = 0;
    pending_group = None;
    pending_name = None;
    row_names = Hashtbl.create 64;
    obj = Feasibility;
    priorities = Array.make 16 0.0;
    phases = Bytes.make 16 '\000';
  }

(* The formulations hint their placement variables, which come first,
   so the hint arrays grow only as far as the last hinted variable; a
   variable past their end reads the default. *)
let grow_hints t v =
  if v >= Array.length t.priorities then begin
    let cap = max (v + 1) (2 * Array.length t.priorities) in
    let priorities = Array.make cap 0.0 in
    Array.blit t.priorities 0 priorities 0 (Array.length t.priorities);
    t.priorities <- priorities;
    let phases = Bytes.make cap '\000' in
    Bytes.blit t.phases 0 phases 0 (Bytes.length t.phases);
    t.phases <- phases
  end

let set_branch_priority t v p =
  if v < 0 || v >= t.count then invalid_arg "Model.set_branch_priority: out of range";
  grow_hints t v;
  t.priorities.(v) <- p

let branch_priority t v = if v < Array.length t.priorities then t.priorities.(v) else 0.0

let set_branch_phase t v b =
  if v < 0 || v >= t.count then invalid_arg "Model.set_branch_phase: out of range";
  grow_hints t v;
  Bytes.set t.phases v (if b then '\001' else '\000')

let branch_phase t v = v < Bytes.length t.phases && Bytes.get t.phases v = '\001'

let name t = t.mname

let var_name t v =
  if v < 0 || v >= t.count then invalid_arg "Model.var_name: out of range";
  match t.names.(v) with
  | Rendered s -> s
  | Deferred f ->
      let s = f () in
      t.names.(v) <- Rendered s;
      s

(* Bring the name index up to date.  All-eager models keep [indexed]
   pinned to [count], so this is a no-op on their add path; models with
   deferred names pay the rendering cost only when a by-name lookup or
   an eager add actually needs the full index. *)
let index_names t =
  while t.indexed < t.count do
    let v = t.indexed in
    let s = var_name t v in
    (* on a (diagnosable-by-validate) duplicate, the first var keeps
       the name, matching eager insertion order *)
    if not (Hashtbl.mem t.by_name s) then Hashtbl.add t.by_name s v;
    t.indexed <- v + 1
  done

let ensure_capacity t =
  if t.count = Array.length t.names then begin
    let names = Array.make (2 * t.count) (Rendered "") in
    Array.blit t.names 0 names 0 t.count;
    t.names <- names
  end

let add_binary t vname =
  if String.length vname = 0 then invalid_arg "Model.add_binary: empty name";
  index_names t;
  if Hashtbl.mem t.by_name vname then
    invalid_arg (Printf.sprintf "Model.add_binary: duplicate variable %S" vname);
  ensure_capacity t;
  let v = t.count in
  t.names.(v) <- Rendered vname;
  t.count <- v + 1;
  Hashtbl.add t.by_name vname v;
  t.indexed <- t.count;
  v

let add_binary_deferred t render =
  ensure_capacity t;
  let v = t.count in
  t.names.(v) <- Deferred render;
  t.count <- v + 1;
  v

let nvars t = t.count

let find_var t vname =
  index_names t;
  Hashtbl.find_opt t.by_name vname

(* A term list is canonical when variables are strictly ascending with
   no zero coefficients — then merging is the identity and the per-row
   hashtable is skipped.  Most two-term rows of the mapping formulation
   qualify. *)
let rec is_canonical prev = function
  | [] -> true
  | (c, v) :: rest -> c <> 0 && v > prev && is_canonical v rest

(* Coalesce duplicate variables in a var-sorted list, dropping zero
   totals. *)
let rec coalesce = function
  | [] -> []
  | (c, v) :: rest ->
      let rec take acc = function
        | (c', v') :: more when v' = v -> take (acc + c') more
        | tail -> (acc, tail)
      in
      let total, tail = take c rest in
      if total = 0 then coalesce tail else (total, v) :: coalesce tail

let merge_terms terms =
  if is_canonical (-1) terms then terms
  else
    match terms with
    | [ (c1, v1); ((c2, v2) as t2) ] when v1 > v2 && c1 <> 0 && c2 <> 0 ->
        (* reversed pair — the other common shape of mapping rows *)
        [ t2; (c1, v1) ]
    | _ -> coalesce (List.sort (fun (_, a) (_, b) -> compare a b) terms)

let begin_row t ?name ?dname ?group sense rhs =
  if t.pending >= 0 then invalid_arg "Model.begin_row: a row is already open";
  (match group with
  | Some "" -> invalid_arg "Model.add_row: empty group label"
  | _ -> ());
  t.pending <- Veci.size t.tbuf;
  t.pending_sense <- sense;
  t.pending_rhs <- rhs;
  t.pending_group <- group;
  t.pending_name <-
    (match (name, dname) with
    | Some n, _ -> Some (Rendered n)
    | None, Some f -> Some (Deferred f)
    | None, None -> None)

let term t c v =
  if t.pending < 0 then invalid_arg "Model.term: no open row";
  if v < 0 || v >= t.count then
    invalid_arg (Printf.sprintf "Model.add_row: variable %d out of range" v);
  Veci.push t.tbuf c;
  Veci.push t.tbuf v

(* In-place canonicalization of the open row's tbuf segment: sort
   pairs by variable, sum duplicates, drop zero totals — the same
   normal form {!merge_terms} produces for term lists. *)
let canonicalize_segment t off =
  let buf = t.tbuf in
  let stop = Veci.size buf in
  let rec canon i prev =
    if i >= stop then true
    else
      let c = Veci.unsafe_get buf i and v = Veci.unsafe_get buf (i + 1) in
      c <> 0 && v > prev && canon (i + 2) v
  in
  if not (canon off (-1)) then begin
    let n = (stop - off) / 2 in
    (* insertion sort of (coef, var) pairs by var; rows are short *)
    for a = 1 to n - 1 do
      let c = Veci.unsafe_get buf (off + (2 * a))
      and v = Veci.unsafe_get buf (off + (2 * a) + 1) in
      let b = ref (a - 1) in
      while !b >= 0 && Veci.unsafe_get buf (off + (2 * !b) + 1) > v do
        Veci.unsafe_set buf (off + (2 * !b) + 2) (Veci.unsafe_get buf (off + (2 * !b)));
        Veci.unsafe_set buf (off + (2 * !b) + 3) (Veci.unsafe_get buf (off + (2 * !b) + 1));
        decr b
      done;
      Veci.unsafe_set buf (off + (2 * !b) + 2) c;
      Veci.unsafe_set buf (off + (2 * !b) + 3) v
    done;
    let w = ref 0 and r = ref 0 in
    while !r < n do
      let v = Veci.unsafe_get buf (off + (2 * !r) + 1) in
      let total = ref 0 in
      while !r < n && Veci.unsafe_get buf (off + (2 * !r) + 1) = v do
        total := !total + Veci.unsafe_get buf (off + (2 * !r));
        incr r
      done;
      if !total <> 0 then begin
        Veci.unsafe_set buf (off + (2 * !w)) !total;
        Veci.unsafe_set buf (off + (2 * !w) + 1) v;
        incr w
      end
    done;
    Veci.shrink buf (off + (2 * !w))
  end

let sense_code = function Le -> 0 | Ge -> 1 | Eq -> 2
let sense_of_code = function 0 -> Le | 1 -> Ge | _ -> Eq

let end_row t =
  if t.pending < 0 then invalid_arg "Model.end_row: no open row";
  let off = t.pending in
  canonicalize_segment t off;
  let i = Veci.size t.row_off in
  (match t.pending_name with
  | Some ns -> Hashtbl.replace t.row_names i ns
  | None -> ());
  Veci.push t.row_off off;
  Veci.push t.row_sense (sense_code t.pending_sense);
  Veci.push t.row_rhs t.pending_rhs;
  Vec.push t.row_groups t.pending_group;
  t.pending <- -1;
  t.pending_group <- None;
  t.pending_name <- None

(* Two-term unnamed row: the dominant row shape of mapping
   formulations, emitted without the begin/term/end state churn —
   canonical order is decided by one comparison. *)
let add_row2 t ?group c1 v1 c2 v2 sense rhs =
  if t.pending >= 0 then invalid_arg "Model.begin_row: a row is already open";
  (match group with
  | Some "" -> invalid_arg "Model.add_row: empty group label"
  | _ -> ());
  if v1 < 0 || v1 >= t.count || v2 < 0 || v2 >= t.count then
    invalid_arg "Model.add_row: variable out of range";
  let off = Veci.size t.tbuf in
  if v1 = v2 then begin
    let c = c1 + c2 in
    if c <> 0 then begin
      Veci.push t.tbuf c;
      Veci.push t.tbuf v1
    end
  end
  else begin
    let cl, vl, ch, vh = if v1 < v2 then (c1, v1, c2, v2) else (c2, v2, c1, v1) in
    if cl <> 0 then begin
      Veci.push t.tbuf cl;
      Veci.push t.tbuf vl
    end;
    if ch <> 0 then begin
      Veci.push t.tbuf ch;
      Veci.push t.tbuf vh
    end
  end;
  Veci.push t.row_off off;
  Veci.push t.row_sense (sense_code sense);
  Veci.push t.row_rhs rhs;
  Vec.push t.row_groups group

let rec check_vars count = function
  | [] -> ()
  | (_, v) :: rest ->
      if v < 0 || v >= count then
        invalid_arg (Printf.sprintf "Model.add_row: variable %d out of range" v);
      check_vars count rest

let add_row t ?name ?dname ?group terms sense rhs =
  (* check before any mutation so a bad list leaves the model intact *)
  check_vars t.count terms;
  begin_row t ?name ?dname ?group sense rhs;
  List.iter (fun (c, v) -> term t c v) terms;
  end_row t

let row_name t i =
  if i < 0 || i >= Veci.size t.row_off then invalid_arg "Model.row_name: out of range";
  match Hashtbl.find_opt t.row_names i with
  | Some (Rendered s) -> s
  | Some (Deferred f) ->
      let s = f () in
      Hashtbl.replace t.row_names i (Rendered s);
      s
  | None -> "c" ^ string_of_int i

let groups t =
  (* single pass; the physical-equality check skips the hash lookup on
     runs of rows sharing one group string, the common shape *)
  let seen = Hashtbl.create 16 in
  let last = ref None in
  let acc = ref [] in
  Vec.iter
    (fun g ->
      match g with
      | None -> ()
      | Some g -> (
          match !last with
          | Some g0 when g0 == g -> ()
          | _ ->
              last := Some g;
              if not (Hashtbl.mem seen g) then begin
                Hashtbl.add seen g ();
                acc := g :: !acc
              end))
    t.row_groups;
  List.rev !acc

let set_objective t obj =
  (match obj with
  | Feasibility -> ()
  | Minimize terms ->
      List.iter
        (fun (_, v) ->
          if v < 0 || v >= t.count then
            invalid_arg "Model.set_objective: variable out of range")
        terms);
  t.obj <- (match obj with Feasibility -> Feasibility | Minimize ts -> Minimize (merge_terms ts))

let objective t = t.obj
let nrows t = Veci.size t.row_off

(* Row [i]'s end offset in [tbuf]: rows are contiguous, so a row ends
   where the next one (or the open pending row) starts. *)
let row_stop t i =
  if i + 1 < Veci.size t.row_off then Veci.unsafe_get t.row_off (i + 1)
  else if t.pending >= 0 then t.pending
  else Veci.size t.tbuf

(* Row [i]'s pair offset and count. *)
let row_extent t i =
  let off = Veci.unsafe_get t.row_off i in
  (off, (row_stop t i - off) / 2)

let row t i =
  if i < 0 || i >= nrows t then invalid_arg "Model.row: out of range";
  let off, np = row_extent t i in
  let rec build k acc =
    if k < 0 then acc
    else
      build (k - 1)
        ((Veci.unsafe_get t.tbuf (off + (2 * k)), Veci.unsafe_get t.tbuf (off + (2 * k) + 1))
        :: acc)
  in
  {
    group = Vec.get t.row_groups i;
    terms = build (np - 1) [];
    sense = sense_of_code (Veci.get t.row_sense i);
    rhs = Veci.get t.row_rhs i;
  }

let row_len t i = (row_stop t i - Veci.get t.row_off i) / 2
let row_coef t i k = Veci.get t.tbuf (Veci.get t.row_off i + (2 * k))
let row_var t i k = Veci.get t.tbuf (Veci.get t.row_off i + (2 * k) + 1)
let row_sense t i = sense_of_code (Veci.get t.row_sense i)
let row_rhs t i = Veci.get t.row_rhs i
let row_group t i = Vec.get t.row_groups i

let rows t = List.init (nrows t) (row t)
let iter_rows t f =
  for i = 0 to nrows t - 1 do
    f i (row t i)
  done

let eval_terms terms assign =
  List.fold_left (fun acc (c, v) -> if assign v then acc + c else acc) 0 terms

let row_satisfied row assign =
  let lhs = eval_terms row.terms assign in
  match row.sense with Le -> lhs <= row.rhs | Ge -> lhs >= row.rhs | Eq -> lhs = row.rhs

let feasible t assign =
  (* walks the flat storage directly; no row materialisation *)
  let ok = ref true in
  let i = ref 0 in
  let n = nrows t in
  while !ok && !i < n do
    let off, np = row_extent t !i in
    let lhs = ref 0 in
    for m = 0 to np - 1 do
      if assign (Veci.unsafe_get t.tbuf (off + (2 * m) + 1)) then
        lhs := !lhs + Veci.unsafe_get t.tbuf (off + (2 * m))
    done;
    let rhs = Veci.unsafe_get t.row_rhs !i in
    (match sense_of_code (Veci.unsafe_get t.row_sense !i) with
    | Le -> if !lhs > rhs then ok := false
    | Ge -> if !lhs < rhs then ok := false
    | Eq -> if !lhs <> rhs then ok := false);
    incr i
  done;
  !ok

let objective_value t assign =
  match t.obj with Feasibility -> 0 | Minimize terms -> eval_terms terms assign

let validate t =
  let errs = ref [] in
  let seen = Hashtbl.create 64 in
  for v = 0 to t.count - 1 do
    let n = var_name t v in
    if Hashtbl.mem seen n then errs := Printf.sprintf "duplicate variable name %S" n :: !errs;
    Hashtbl.replace seen n ()
  done;
  match !errs with [] -> Ok () | e -> Error (List.rev e)
