(* Differential tests for the flat-row presolve and clausifier.

   Both passes read the model's flat term storage in place.  Each is
   compared here against a row-list reference kept in this file: the
   reference presolve works on materialised [Model.row] records, and
   the reference clausifier normalises each row into weighted-literal
   lists and expands them into unit multisets.  The flat passes must
   agree exactly: same fixings, same reduced LP text, and the same
   solver variables and clause arrays in the same order. *)

module Model = Cgra_ilp.Model
module Presolve = Cgra_ilp.Presolve
module Encode = Cgra_ilp.Encode
module Lp_format = Cgra_ilp.Lp_format
module Solver = Cgra_satoca.Solver
module Lit = Cgra_satoca.Lit
module Card = Cgra_satoca.Card
module Proof = Cgra_satoca.Proof

(* ---------------- reference presolve (row lists) ---------------- *)

type ref_presolve = {
  r_reduced : Model.t;
  r_infeasible : bool;
  r_fixed : (Model.var * bool) list;
  r_old_of_new : Model.var array;
  r_offset : int;
}

type wrow = {
  terms : (int * int) array;
  sense : Model.sense;
  rhs : int;
  name : unit -> string;
  group : string option;
  mutable live : bool;
}

let ref_presolve model =
  let n = Model.nvars model in
  let value = Array.make n (-1) in
  let infeasible = ref false in
  let rows =
    List.init (Model.nrows model) (fun i ->
        let (r : Model.row) = Model.row model i in
        {
          terms = Array.of_list r.terms;
          sense = r.sense;
          rhs = r.rhs;
          name = (fun () -> Model.row_name model i);
          group = r.group;
          live = true;
        })
  in
  let range row =
    Array.fold_left
      (fun (lo, hi) (c, v) ->
        match value.(v) with
        | 0 -> (lo, hi)
        | 1 -> (lo + c, hi + c)
        | _ -> if c > 0 then (lo, hi + c) else (lo + c, hi))
      (0, 0) row.terms
  in
  let fix v b changed =
    match value.(v) with
    | -1 ->
        value.(v) <- (if b then 1 else 0);
        changed := true
    | x -> if (x = 1) <> b then infeasible := true
  in
  let step changed =
    List.iter
      (fun row ->
        if row.live && not !infeasible then begin
          let lo, hi = range row in
          let dead_le = match row.sense with Model.Le | Model.Eq -> lo > row.rhs | Model.Ge -> false in
          let dead_ge = match row.sense with Model.Ge | Model.Eq -> hi < row.rhs | Model.Le -> false in
          if dead_le || dead_ge then infeasible := true
          else begin
            let slack_hi = match row.sense with Model.Le | Model.Eq -> Some (row.rhs - lo) | Model.Ge -> None in
            let slack_lo = match row.sense with Model.Ge | Model.Eq -> Some (hi - row.rhs) | Model.Le -> None in
            Array.iter
              (fun (c, v) ->
                if value.(v) = -1 then begin
                  (match slack_hi with
                  | Some s ->
                      if c > 0 && c > s then fix v false changed
                      else if c < 0 && -c > s then fix v true changed
                  | None -> ());
                  match slack_lo with
                  | Some s ->
                      if c > 0 && c > s then fix v true changed
                      else if c < 0 && -c > s then fix v false changed
                  | None -> ()
                end)
              row.terms;
            let lo, hi = range row in
            let ok =
              match row.sense with
              | Model.Le -> hi <= row.rhs
              | Model.Ge -> lo >= row.rhs
              | Model.Eq -> lo = row.rhs && hi = row.rhs
            in
            if ok then row.live <- false
          end
        end)
      rows
  in
  let continue = ref true in
  while !continue && not !infeasible do
    let changed = ref false in
    step changed;
    continue := !changed
  done;
  let reduced = Model.create ~name:(Model.name model ^ "+presolved") () in
  let new_of_old = Array.make n (-1) in
  let old_of_new = ref [] in
  for v = 0 to n - 1 do
    if value.(v) = -1 then begin
      let nv = Model.add_binary_deferred reduced (fun () -> Model.var_name model v) in
      new_of_old.(v) <- nv;
      let p = Model.branch_priority model v in
      if p <> 0.0 then Model.set_branch_priority reduced nv p;
      if Model.branch_phase model v then Model.set_branch_phase reduced nv true;
      old_of_new := v :: !old_of_new
    end
  done;
  if not !infeasible then
    List.iter
      (fun row ->
        if row.live then begin
          let const = ref 0 in
          let terms =
            Array.to_list row.terms
            |> List.filter_map (fun (c, v) ->
                   match value.(v) with
                   | 1 ->
                       const := !const + c;
                       None
                   | 0 -> None
                   | _ -> Some (c, new_of_old.(v)))
          in
          Model.add_row reduced ~dname:row.name ?group:row.group terms row.sense
            (row.rhs - !const)
        end)
      rows;
  let offset =
    match Model.objective model with
    | Model.Feasibility -> 0
    | Model.Minimize terms ->
        Model.set_objective reduced
          (Model.Minimize
             (List.filter_map
                (fun (c, v) -> if value.(v) = -1 then Some (c, new_of_old.(v)) else None)
                terms));
        List.fold_left (fun acc (c, v) -> if value.(v) = 1 then acc + c else acc) 0 terms
  in
  let fixed = ref [] in
  for v = n - 1 downto 0 do
    if value.(v) >= 0 then fixed := (v, value.(v) = 1) :: !fixed
  done;
  {
    r_reduced = reduced;
    r_infeasible = !infeasible;
    r_fixed = !fixed;
    r_old_of_new = Array.of_list (List.rev !old_of_new);
    r_offset = offset;
  }

(* ---------------- reference clausifier (row lists) ---------------- *)

let normalise_le terms rhs =
  let lits, bound =
    List.fold_left
      (fun (lits, bound) (c, v) ->
        if c > 0 then ((c, Lit.pos v) :: lits, bound)
        else if c < 0 then ((-c, Lit.neg v) :: lits, bound - c)
        else (lits, bound))
      ([], rhs) terms
  in
  (List.rev lits, bound)

let expand lits = List.concat_map (fun (w, l) -> List.init w (fun _ -> l)) lits

let ref_encode_le solver terms rhs =
  let lits, bound = normalise_le terms rhs in
  let units = expand lits in
  let n = List.length units in
  if bound < 0 then Solver.add_clause solver []
  else if bound >= n then ()
  else if bound = 0 then List.iter (fun l -> Solver.add_clause solver [ Lit.negate l ]) units
  else if bound = n - 1 then Solver.add_clause solver (List.map Lit.negate units)
  else if bound = 1 then Card.at_most_one solver units
  else Card.at_most_k solver units bound

let ref_encode_row solver ~base (row : Model.row) =
  let terms = List.map (fun (c, v) -> (c, base + v)) row.terms in
  let neg = List.map (fun (c, v) -> (-c, v)) terms in
  match row.sense with
  | Model.Le -> ref_encode_le solver terms row.rhs
  | Model.Ge -> ref_encode_le solver neg (-row.rhs)
  | Model.Eq ->
      if row.rhs = 1 && List.for_all (fun (c, _) -> c = 1) terms && terms <> [] then
        Card.exactly_one solver (List.map (fun (_, v) -> Lit.pos v) terms)
      else begin
        ref_encode_le solver terms row.rhs;
        ref_encode_le solver neg (-row.rhs)
      end

(* Phase seeding propagates, and propagation reorders the literals of
   the clauses it visits, so the reference seeds exactly as {!Encode}
   does. *)
let seed_phases s ~base model =
  if Model.nvars model > 0 then
    Solver.seed_phases s
      (List.init (Model.nvars model) (fun v -> Lit.make (base + v) (Model.branch_phase model v)))

let ref_encode ?proof model =
  let s = Solver.create () in
  Solver.set_proof s proof;
  if Model.nvars model > 0 then ignore (Solver.new_vars s (Model.nvars model));
  Model.iter_rows model (fun _ row -> ref_encode_row s ~base:0 row);
  seed_phases s ~base:0 model;
  s

(* The grouped encoding of the rows [keep] accepts, with a selector for
   each group that has one, in first-use order among them. *)
let ref_encode_grouped ?(keep = fun _ -> true) model =
  let s = Solver.create () in
  if Model.nvars model > 0 then ignore (Solver.new_vars s (Model.nvars model));
  let kept = ref [] in
  Model.iter_rows model (fun i (row : Model.row) -> if keep i then kept := row :: !kept);
  let kept = List.rev !kept in
  let sel = Hashtbl.create 16 in
  let selectors =
    List.filter_map
      (fun (row : Model.row) ->
        match row.group with
        | Some g when not (Hashtbl.mem sel g) ->
            let l = Lit.pos (Solver.new_var s) in
            Hashtbl.replace sel g l;
            Some (g, l)
        | _ -> None)
      kept
  in
  List.iter
    (fun (row : Model.row) ->
      Solver.set_guard s (Option.map (fun g -> Lit.negate (Hashtbl.find sel g)) row.group);
      ref_encode_row s ~base:0 row)
    kept;
  Solver.set_guard s None;
  (s, selectors)

(* ---------------- comparison helpers ---------------- *)

let clauses s = List.init (Solver.n_clause_slots s) (Solver.clause_view s)

let same_cnf a b =
  Solver.nvars a = Solver.nvars b && Solver.ok a = Solver.ok b && clauses a = clauses b

(* Random 0-1 models: the small-row specs of the ILP fuzzer, plus wider
   rows biased towards unit coefficients so the at-most-one ladders,
   sequential counters and exactly-one rows of the clausifier are all
   reached.  Shrinking and LP printing are the ILP fuzzer's. *)
let gen_spec =
  let open QCheck2.Gen in
  let wide =
    let* nvars = int_range 2 10 in
    let gen_coef = frequency [ (3, return 1); (2, int_range (-3) 3) ] in
    let gen_term = pair gen_coef (int_range 0 (nvars - 1)) in
    let gen_row =
      let* terms = list_size (int_range 1 10) gen_term in
      let* sense = int_range 0 2 in
      let* rhs = int_range (-2) 6 in
      return (terms, sense, rhs)
    in
    let* rows = list_size (int_range 0 8) gen_row in
    let* objective = option (list_size (int_range 1 nvars) gen_term) in
    return (nvars, rows, objective)
  in
  oneof [ Test_ilp.gen_model_spec; wide ]

(* ---------------- presolve differential ---------------- *)

let prop_presolve_matches_reference =
  QCheck2.Test.make ~name:"flat presolve matches row-list presolve" ~count:1000
    ~print:Test_ilp.print_model_spec gen_spec (fun spec ->
      let m = Test_ilp.build_model spec in
      let r = ref_presolve m in
      let p = Presolve.run m in
      p.Presolve.infeasible = r.r_infeasible
      && p.Presolve.fixed = r.r_fixed
      &&
      if r.r_fixed = [] then
        p.Presolve.reduced == m
        && p.Presolve.old_of_new = Array.init (Model.nvars m) Fun.id
        && p.Presolve.objective_offset = 0
      else
        Lp_format.to_string p.Presolve.reduced = Lp_format.to_string r.r_reduced
        && p.Presolve.old_of_new = r.r_old_of_new
        && p.Presolve.objective_offset = r.r_offset)

(* ---------------- clausifier differential ---------------- *)

let prop_encode_matches_reference =
  QCheck2.Test.make ~name:"flat encode matches row-list clausifier" ~count:1000
    ~print:Test_ilp.print_model_spec gen_spec (fun spec ->
      let m = Test_ilp.build_model spec in
      let proof = Proof.create () and ref_proof = Proof.create () in
      let e = Encode.encode ~proof m in
      let s = ref_encode ~proof:ref_proof m in
      same_cnf e.Encode.solver s && Proof.events proof = Proof.events ref_proof)

(* Both the whole model and a random subset of its rows (row [i] kept
   when the [i]-th flag is set, or past the flags). *)
let prop_encode_grouped_matches_reference =
  QCheck2.Test.make ~name:"flat encode_grouped matches reference" ~count:500
    ~print:(fun (spec, flags) ->
      Printf.sprintf "keep %s\n%s"
        (String.concat "" (List.map (fun b -> if b then "1" else "0") flags))
        (Test_ilp.print_grouped_spec spec))
    QCheck2.Gen.(pair Test_ilp.gen_grouped_spec (list_size (int_range 0 10) bool))
    (fun (spec, flags) ->
      let m = Test_ilp.build_grouped_model spec in
      let keep i = Option.value ~default:true (List.nth_opt flags i) in
      let same ?keep () =
        let g = Encode.encode_grouped ?keep m in
        let s, selectors = ref_encode_grouped ?keep m in
        g.Encode.selectors = selectors && same_cnf g.Encode.g_solver s
      in
      same () && same ~keep ())

(* ---------------- pinned clausification sizes ---------------- *)

(* Solver variables and clause slots after [Encode.encode] of the paper
   formulation on two gallery cells.  A change to either number means
   the CNF changed, and with it search, proofs and cores. *)
let test_encode_pins () =
  List.iter
    (fun (bench, arch, nvars, slots) ->
      let dfg = Option.get (Cgra_dfg.Benchmarks.by_name bench) in
      let a = Cgra_arch.Library.make (Option.get (Cgra_arch.Library.find_gallery arch)) in
      let mrrg = Cgra_mrrg.Build.elaborate a ~ii:1 in
      let f = Cgra_core.Formulation.build ~objective:Cgra_core.Formulation.Feasibility dfg mrrg in
      let e = Encode.encode f.Cgra_core.Formulation.model in
      let label = Printf.sprintf "%s@%s" bench arch in
      Alcotest.(check int) (label ^ " nvars") nvars (Solver.nvars e.Encode.solver);
      Alcotest.(check int) (label ^ " clause slots") slots (Solver.n_clause_slots e.Encode.solver))
    [ ("mac", "homo-orth-4x4", 10022, 26010); ("2x2-p", "homo-torus-8x8", 53396, 140412) ]

let suites =
  [
    ( "ilp:flat",
      Alcotest.test_case "encode pins (mac@homo-orth-4x4, 2x2-p@homo-torus-8x8)" `Quick
        test_encode_pins
      :: List.map QCheck_alcotest.to_alcotest
           [
             prop_presolve_matches_reference;
             prop_encode_matches_reference;
             prop_encode_grouped_matches_reference;
           ] );
  ]
