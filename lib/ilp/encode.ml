module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Card = Cgra_satoca.Card
module Inprocess = Cgra_satoca.Inprocess

type t = {
  solver : Solver.t;
  objective_lits : (int * Lit.t) list;
  objective_offset : int;
  mutable totalizer : Card.Totalizer.t option;
}

(* The clausifier reads row [i] straight from the model's flat term
   storage; model variable [v] is solver variable [v].  It runs in one
   of two modes over the same device choice: [Emit] adds a row's clauses
   to the solver, [Count] only adds what the solver will store of them
   to a running count, each clause carrying [extra] guard literals. *)
type mode = Emit | Count of Card.size * int

(* How [sum (sign * c_k) x_k <= rhs] is encoded.  Each term is read as
   a positive-weight literal — [c * x] with [c < 0] becomes [|c| * ~x]
   and lifts the bound by [|c|] — and a weight-[w] literal counts as [w]
   unit copies (weights in mapping models are a handful at most): [n]
   unit literals, at most [bound] of them true.  The cheapest adequate
   device is then chosen. *)
type device =
  | Infeasible  (* the empty clause *)
  | Trivial  (* no clause *)
  | Not_all  (* one clause over the complements *)
  | At_most  (* unit clauses at bound 0, an at-most-one ladder at 1, a
                sequential counter above *)

let le_device ~bound ~n =
  if bound < 0 then Infeasible
  else if bound >= n then Trivial
  else if bound = n - 1 then Not_all
  else At_most

(* The [n] unit literals of the row, read with [sign]. *)
let units model i ~sign n =
  let units = Array.make n 0 and j = ref 0 in
  for k = 0 to Model.row_len model i - 1 do
    let c = sign * Model.row_coef model i k in
    let l = Lit.make (Model.row_var model i k) (c > 0) in
    for _ = 1 to abs c do
      units.(!j) <- l;
      incr j
    done
  done;
  units

let encode_le mode solver model i ~sign rhs =
  let len = Model.row_len model i in
  let bound = ref rhs and n = ref 0 in
  for k = 0 to len - 1 do
    let c = sign * Model.row_coef model i k in
    if c < 0 then bound := !bound - c;
    n := !n + abs c
  done;
  let bound = !bound and n = !n in
  match (le_device ~bound ~n, mode) with
  | Trivial, _ -> ()
  | Infeasible, Emit -> Solver.add_clause_array solver [||]
  | Infeasible, Count (size, extra) -> Card.count_clauses size ~extra 1 0
  | Not_all, Emit ->
      (* the complements of the units are the units read with the
         opposite sign *)
      Solver.add_clause_array solver (units model i ~sign:(-sign) n)
  | Not_all, Count (size, extra) -> Card.count_clauses size ~extra 1 n
  | At_most, Emit -> Card.at_most_k_array solver (units model i ~sign n) bound
  | At_most, Count (size, extra) -> Card.count_at_most_k size ~extra n bound

(* A row with unit coefficients and [= 1]: exactly one of its
   variables, encoded as the clause over them, then at most one. *)
let exactly_one model i =
  Model.row_sense model i = Model.Eq
  && Model.row_rhs model i = 1
  && Model.row_len model i >= 1
  &&
  let unit = ref true in
  for k = 0 to Model.row_len model i - 1 do
    if Model.row_coef model i k <> 1 then unit := false
  done;
  !unit

let encode_row mode solver model i =
  let rhs = Model.row_rhs model i and len = Model.row_len model i in
  if exactly_one model i then
    match mode with
    | Emit ->
        let lits = Array.init len (fun k -> Lit.pos (Model.row_var model i k)) in
        Solver.add_clause_array solver lits;
        Card.at_most_k_array solver lits 1
    | Count (size, extra) ->
        Card.count_clauses size ~extra 1 len;
        Card.count_at_most_k size ~extra len 1
  else begin
    let sense = Model.row_sense model i in
    if sense <> Model.Ge then encode_le mode solver model i ~sign:1 rhs;
    if sense <> Model.Le then encode_le mode solver model i ~sign:(-1) (-rhs)
  end

(* A fresh solver holding the model's variables (solver variable [v]
   is model variable [v]), then [extra_vars] more, and the model's
   branch priorities: the setup {!encode} and {!encode_grouped} share.
   Everything clausifying the rows [keep] accepts will need is sized
   first, each row counted with the guard literal [guarded] says it
   gets, so no variable or clause memory grows while they are added. *)
let fresh_solver ?proof ?inprocess ?(keep = fun _ -> true) ?(guarded = fun _ -> false)
    ?(extra_vars = 0) model =
  let solver = Solver.create () in
  (match proof with Some _ -> Solver.set_proof solver proof | None -> ());
  Inprocess.install ?config:inprocess solver;
  let size = { Card.clauses = 0; literals = 0; vars = 0 } in
  let unguarded = Count (size, 0) and with_guard = Count (size, 1) in
  for i = 0 to Model.nrows model - 1 do
    if keep i then encode_row (if guarded i then with_guard else unguarded) solver model i
  done;
  Solver.reserve solver
    ~vars:(Model.nvars model + extra_vars + size.Card.vars)
    ~clauses:size.Card.clauses ~literals:size.Card.literals;
  ignore (if Model.nvars model > 0 then Solver.new_vars solver (Model.nvars model) else 0);
  for v = 0 to Model.nvars model - 1 do
    let p = Model.branch_priority model v in
    if p <> 0.0 then Solver.set_activity solver v p
  done;
  solver

(* Clausify every row [keep] accepts, each under the guard literal
   [guard] gives it (none by default). *)
let add_rows ?(keep = fun _ -> true) ?(guard = fun _ -> None) solver model =
  for i = 0 to Model.nrows model - 1 do
    if keep i then begin
      Solver.set_guard solver (guard i);
      encode_row Emit solver model i
    end
  done;
  Solver.set_guard solver None

let encode ?proof ?inprocess ?keep model =
  let solver = fresh_solver ?proof ?inprocess ?keep model in
  add_rows ?keep solver model;
  (* Seed polarities from the model's phase hints by trial propagation,
     so auxiliary encoding variables also receive phases consistent
     with the hinted assignment (critical for warm starts). *)
  if Model.nvars model > 0 then
    Solver.seed_phases_array solver
      (Array.init (Model.nvars model) (fun v -> Lit.make v (Model.branch_phase model v)));
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
  { solver; objective_lits; objective_offset; totalizer = None }

let assignment t model =
  Array.init (Model.nvars model) (fun v -> Solver.value t.solver v)

(* ---------------- grouped (selector-guarded) encoding ---------------- *)

type grouped = { g_solver : Solver.t; selectors : (string * Lit.t) list }

let encode_grouped ?(keep = fun _ -> true) model =
  (* the groups of the kept rows, in first-use order among them: only
     they get a selector *)
  let seen = Hashtbl.create 16 and groups = ref [] in
  for i = 0 to Model.nrows model - 1 do
    match Model.row_group model i with
    | Some g when keep i && not (Hashtbl.mem seen g) ->
        Hashtbl.replace seen g ();
        groups := g :: !groups
    | _ -> ()
  done;
  let groups = List.rev !groups in
  let solver =
    fresh_solver model ~keep
      ~guarded:(fun i -> Option.is_some (Model.row_group model i))
      ~extra_vars:(List.length groups)
  in
  let sel = Hashtbl.create 16 in
  let selectors =
    List.map
      (fun g ->
        let l = Lit.pos (Solver.new_var solver) in
        Hashtbl.replace sel g l;
        (g, l))
      groups
  in
  add_rows solver model ~keep ~guard:(fun i ->
      Option.map (fun g -> Lit.negate (Hashtbl.find sel g)) (Model.row_group model i));
  { g_solver = solver; selectors }
