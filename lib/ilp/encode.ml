module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Card = Cgra_satoca.Card
module Inprocess = Cgra_satoca.Inprocess

type t = {
  solver : Solver.t;
  objective_lits : (int * Lit.t) list;
  objective_offset : int;
}

(* The clausifier reads row [i] straight from the model's flat term
   storage; model variable [v] is solver variable [base + v].

   [encode_le ~sign rhs] encodes [sum (sign * c_k) x_k <= rhs].  Each
   term is read as a positive-weight literal — [c * x] with [c < 0]
   becomes [|c| * ~x] and lifts the bound by [|c|] — and a weight-[w]
   literal counts as [w] unit copies (weights in mapping models are a
   handful at most).  The cheapest adequate device is then chosen. *)
let encode_le solver model i ~base ~sign rhs =
  let len = Model.row_len model i in
  let bound = ref rhs and n = ref 0 in
  for k = 0 to len - 1 do
    let c = sign * Model.row_coef model i k in
    if c < 0 then bound := !bound - c;
    n := !n + abs c
  done;
  let bound = !bound and n = !n in
  if bound < 0 then Solver.add_clause solver [] (* infeasible row *)
  else if bound >= n then () (* trivially true *)
  else begin
    let units = Array.make n 0 and j = ref 0 in
    for k = 0 to len - 1 do
      let c = sign * Model.row_coef model i k in
      let l = Lit.make (base + Model.row_var model i k) (c > 0) in
      for _ = 1 to abs c do
        units.(!j) <- l;
        incr j
      done
    done;
    if bound = n - 1 then
      (* "not all true": a single clause over the complements *)
      Solver.add_clause solver (Array.to_list (Array.map Lit.negate units))
    else
      (* unit clauses at bound 0, an at-most-one ladder at 1, a
         sequential counter above *)
      Card.at_most_k_array solver units bound
  end

let encode_row solver model ~base i =
  let rhs = Model.row_rhs model i in
  match Model.row_sense model i with
  | Model.Le -> encode_le solver model i ~base ~sign:1 rhs
  | Model.Ge -> encode_le solver model i ~base ~sign:(-1) (-rhs)
  | Model.Eq ->
      let len = Model.row_len model i in
      let unit_sum = ref (len >= 1) in
      for k = 0 to len - 1 do
        if Model.row_coef model i k <> 1 then unit_sum := false
      done;
      if rhs = 1 && !unit_sum then begin
        (* exactly one: the clause over the literals, then at most one *)
        let lits = Array.init len (fun k -> Lit.pos (base + Model.row_var model i k)) in
        Solver.add_clause solver (Array.to_list lits);
        Card.at_most_k_array solver lits 1
      end
      else begin
        encode_le solver model i ~base ~sign:1 rhs;
        encode_le solver model i ~base ~sign:(-1) (-rhs)
      end

(* Shared clausification body: [base = 0] is the classic whole-solver
   layout of {!encode}; a non-zero base is how {!encode_into} stacks
   several models into one resident solver.  [keep] filters rows by
   index; the variables are always allocated in full. *)
let encode_block ?keep solver ~base model =
  for v = 0 to Model.nvars model - 1 do
    let p = Model.branch_priority model v in
    if p <> 0.0 then Solver.set_activity solver (base + v) p
  done;
  for i = 0 to Model.nrows model - 1 do
    match keep with
    | Some keep when not (keep i) -> ()
    | _ -> encode_row solver model ~base i
  done

(* Seed polarities from the model's phase hints by trial propagation,
   so auxiliary encoding variables also receive phases consistent
   with the hinted assignment (critical for warm starts). *)
let seed_block_phases solver ~base model =
  if Model.nvars model > 0 then
    Solver.seed_phases solver
      (List.init (Model.nvars model) (fun v -> Lit.make (base + v) (Model.branch_phase model v)))

let encode ?proof ?inprocess ?keep model =
  let solver = Solver.create () in
  (match proof with Some _ -> Solver.set_proof solver proof | None -> ());
  Inprocess.install ?config:inprocess solver;
  ignore (if Model.nvars model > 0 then Solver.new_vars solver (Model.nvars model) else 0);
  encode_block ?keep solver ~base:0 model;
  seed_block_phases solver ~base:0 model;
  let objective_lits, objective_offset =
    match Model.objective model with
    | Model.Feasibility -> ([], 0)
    | Model.Minimize terms ->
        List.fold_left
          (fun (lits, off) (c, v) ->
            if c > 0 then ((c, Lit.pos v) :: lits, off)
            else if c < 0 then ((-c, Lit.neg v) :: lits, off + c)
            else (lits, off))
          ([], 0) terms
  in
  { solver; objective_lits; objective_offset }

let assignment t model =
  Array.init (Model.nvars model) (fun v -> Solver.value t.solver v)

(* ---------------- embedding into a resident solver ---------------- *)

type embedded = { e_base : int; e_activate : Lit.t option }

let encode_into ?(guarded = false) solver model =
  (match Model.objective model with
  | Model.Feasibility -> ()
  | Model.Minimize _ ->
      invalid_arg "Encode.encode_into: feasibility models only (no objective descent)");
  let n = Model.nvars model in
  let base = if n > 0 then Solver.new_vars solver n else Solver.nvars solver in
  let e_activate = if guarded then Some (Lit.pos (Solver.new_var solver)) else None in
  (* Relativise every clause of this block (auxiliary definitions
     included) to the selector: the block binds the search exactly when
     its activation literal is assumed, so independent blocks coexist
     in one solver and learned clauses stay sound across all of them. *)
  (match e_activate with
  | Some l -> Solver.set_guard solver (Some (Lit.negate l))
  | None -> ());
  Fun.protect
    ~finally:(fun () -> Solver.set_guard solver None)
    (fun () -> encode_block solver ~base model);
  seed_block_phases solver ~base model;
  { e_base = base; e_activate }

let embedded_assignment solver emb model =
  Array.init (Model.nvars model) (fun v -> Solver.value solver (emb.e_base + v))

(* ---------------- grouped (selector-guarded) encoding ---------------- *)

type grouped = { g_solver : Solver.t; selectors : (string * Lit.t) list }

let encode_grouped model =
  let solver = Solver.create () in
  Inprocess.install solver;
  ignore (if Model.nvars model > 0 then Solver.new_vars solver (Model.nvars model) else 0);
  for v = 0 to Model.nvars model - 1 do
    let p = Model.branch_priority model v in
    if p <> 0.0 then Solver.set_activity solver v p
  done;
  let sel = Hashtbl.create 16 in
  let selectors =
    List.map
      (fun g ->
        let l = Lit.pos (Solver.new_var solver) in
        Hashtbl.replace sel g l;
        (g, l))
      (Model.groups model)
  in
  for i = 0 to Model.nrows model - 1 do
    (match Model.row_group model i with
    | None -> Solver.set_guard solver None
    | Some g -> Solver.set_guard solver (Some (Lit.negate (Hashtbl.find sel g))));
    encode_row solver model ~base:0 i
  done;
  Solver.set_guard solver None;
  { g_solver = solver; selectors }
