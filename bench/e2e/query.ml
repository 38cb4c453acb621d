(* One mapping query as `cgra_map map` runs it, the oracle that judges
   its answer, and the same query decomposed into the public calls of
   each layer for the traced phase. *)

module IM = Cgra_core.Ilp_mapper
module Check = Cgra_core.Check
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module Library = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Mrrg = Cgra_mrrg.Mrrg
module Model = Cgra_ilp.Model
module Presolve = Cgra_ilp.Presolve
module Encode = Cgra_ilp.Encode
module Unsat_core = Cgra_ilp.Unsat_core
module Solver = Cgra_satoca.Solver
module Proof = Cgra_satoca.Proof
module Drat = Cgra_satoca.Drat
module Deadline = Cgra_util.Deadline

(* Per-query deadline; a query that reaches it has failed. *)
let limit_seconds = 20.0

type outcome = (Corpus.verdict, string) result

(* Warm start is 0: the anneal slice is a wall-clock budget, not work,
   and burns its whole slice on infeasible cells. *)
let map ~certify (c : Corpus.cell) =
  let arch = Library.make c.Corpus.config in
  let mrrg = Build.elaborate arch ~ii:c.Corpus.ii in
  IM.map ~warm_start:0.0 ~deadline:(Deadline.after ~seconds:limit_seconds) ~certify
    ~explain:certify c.Corpus.dfg mrrg

let check_mapping m =
  match Check.run m with
  | Ok () -> Ok Corpus.Feasible
  | Error errs -> Error ("mapping rejected by Check: " ^ String.concat "; " errs)

let expected (c : Corpus.cell) (o : outcome) =
  match o with
  | Ok v when v <> c.Corpus.expect ->
      Error
        (Printf.sprintf "expected %s, got %s" (Corpus.verdict_name c.Corpus.expect)
           (Corpus.verdict_name v))
  | o -> o

(* The oracle: the pinned verdict, every mapping re-checked, and under
   certification a DRAT-validated refutation with a verified, minimized
   core. *)
let judge ~certify (c : Corpus.cell) result =
  expected c
    (match result with
    | IM.Mapped (m, _) -> check_mapping m
    | IM.Timeout _ -> Error "timeout"
    | IM.Infeasible info -> (
        if not certify then Ok Corpus.Infeasible
        else
          match info.IM.diagnosis with
          | Some d when info.IM.certified && d.IM.core_verified && d.IM.core_minimized ->
              Ok Corpus.Infeasible
          | _ -> Error "infeasible verdict lacks a certified, verified, minimized core"))

(* Wall seconds of one untraced query, and the oracle's judgement of
   its answer (made after the clock stops). *)
let timed ~certify c =
  let t0 = Unix.gettimeofday () in
  match map ~certify c with
  | r ->
      let seconds = Unix.gettimeofday () -. t0 in
      (seconds, judge ~certify c r)
  | exception e -> (Unix.gettimeofday () -. t0, Error (Printexc.to_string e))

(* ---------------- the decomposed pipeline ---------------- *)

let paper =
  match Formulation_intf.find Formulation_intf.default_name with
  | Some impl -> impl
  | None -> failwith "the paper formulation is not registered"

let build (c : Corpus.cell) =
  let arch = Span.record "library.make" (fun () -> Library.make c.Corpus.config) in
  let mrrg =
    Span.record "build.elaborate"
      ~counters:(fun m -> [ ("mrrg_nodes", float_of_int (Mrrg.n_nodes m)) ])
      (fun () -> Build.elaborate arch ~ii:c.Corpus.ii)
  in
  Span.record "formulation.build"
    ~counters:(fun (b : Formulation_intf.built) ->
      [ ("rows", float_of_int (Model.nrows b.Formulation_intf.model)) ])
    (fun () -> paper.Formulation_intf.build ~objective:Formulation.Feasibility c.Corpus.dfg mrrg)

let clausify ?proof model =
  Span.record "encode.clausify"
    ~counters:(fun (e : Encode.t) ->
      [ ("clauses", float_of_int (Solver.n_clause_slots e.Encode.solver)) ])
    (fun () -> Encode.encode ?proof model)

let search ~deadline solver =
  Span.record "solver.search"
    ~counters:(fun _ ->
      let s = Solver.stats solver in
      [
        ("conflicts", float_of_int s.Solver.conflicts);
        ("propagations", float_of_int s.Solver.propagations);
        ("restarts", float_of_int s.Solver.restarts);
      ]
      @ List.map (fun (k, v) -> (k, float_of_int v)) (Solver.inprocess_counters s))
    (fun () -> Solver.solve ~deadline solver)

let extract_and_check (built : Formulation_intf.built) read =
  let m = Span.record "extract.run" (fun () -> built.Formulation_intf.extract (read ())) in
  Span.record "check.run" (fun () -> check_mapping m)

(* [Ilp_mapper.map]'s default path, in the order [Solve.solve_report]
   makes the calls. *)
let traced_default c =
  let built = build c in
  let model = built.Formulation_intf.model in
  let deadline = Deadline.after ~seconds:limit_seconds in
  let p =
    Span.record "presolve.run"
      ~counters:(fun p ->
        let nvars = float_of_int (max 1 (Model.nvars model)) in
        [ ("fixed_frac", float_of_int (Presolve.n_fixed p) /. nvars) ])
      (fun () -> Presolve.run model)
  in
  if p.Presolve.infeasible then Ok Corpus.Infeasible
  else
    let enc = clausify p.Presolve.reduced in
    match search ~deadline enc.Encode.solver with
    | Solver.Unsat -> Ok Corpus.Infeasible
    | Solver.Unknown -> Error "timeout"
    | Solver.Sat ->
        extract_and_check built (fun () ->
            Presolve.lift ~original:model p (Encode.assignment enc p.Presolve.reduced))

(* The certify-and-explain path: no presolve, a proof-logged solve, the
   DRAT check, then core extraction and its independent re-check. *)
let traced_certify c =
  let built = build c in
  let model = built.Formulation_intf.model in
  let deadline = Deadline.after ~seconds:limit_seconds in
  let proof = Span.record "proof.create" Proof.create in
  let enc = clausify ~proof model in
  match search ~deadline enc.Encode.solver with
  | Solver.Unknown -> Error "timeout"
  | Solver.Sat -> extract_and_check built (fun () -> Encode.assignment enc model)
  | Solver.Unsat -> (
      let drat =
        Span.record "drat.check"
          ~counters:(fun _ -> [ ("proof_steps", float_of_int (Proof.n_steps proof)) ])
          (fun () -> if Proof.has_empty_clause proof then Some (Drat.check proof) else None)
      in
      match drat with
      | None -> Error "refutation has no empty clause"
      | Some (Drat.Invalid msg) -> Error ("DRAT certificate rejected: " ^ msg)
      | Some Drat.Valid -> (
          let core =
            Span.record "unsat_core.extract"
              ~counters:(function
                | Unsat_core.Core k ->
                    [
                      ("sat_calls", float_of_int k.Unsat_core.sat_calls);
                      ("core_groups", float_of_int (List.length k.Unsat_core.groups));
                    ]
                | Unsat_core.Satisfiable | Unsat_core.Unknown -> [])
              (fun () -> Unsat_core.extract ~deadline ~minimize:true model)
          in
          match core with
          | Unsat_core.Satisfiable -> Error "core extraction found the model satisfiable"
          | Unsat_core.Unknown -> Error "timeout during core extraction"
          | Unsat_core.Core k -> (
              match
                Span.record "unsat_core.check" (fun () ->
                    Unsat_core.check ~deadline model k.Unsat_core.groups)
              with
              | Some true when k.Unsat_core.minimized -> Ok Corpus.Infeasible
              | _ -> Error "unsat core is not minimized and verified")))

let traced ~certify c =
  let q, o =
    Span.query (Corpus.label c) (fun () ->
        try (if certify then traced_certify else traced_default) c
        with e -> Error (Printexc.to_string e))
  in
  (q, expected c o)
