module Job = Cgra_sweep.Job
module Record = Cgra_sweep.Record
module Jsonl = Cgra_sweep.Jsonl
module Store = Cgra_sweep.Store
module Runner = Cgra_sweep.Runner
module Portfolio = Cgra_sweep.Portfolio
module Scheduler = Cgra_sweep.Scheduler
module Pool = Cgra_sweep.Pool
module Grid = Cgra_sweep.Grid
module Deadline = Cgra_util.Deadline

let solver name =
  match Cgra_core.Solver_spec.of_name name with
  | Ok s -> s
  | Error e -> Alcotest.failf "solver %s: %s" name e

(* Tiny jobs (2x2 array) that decide in well under a second each:
   mac is infeasible at both context counts, 2x2-f becomes feasible
   with a second context. *)
let job ?(bench = "mac") ?(contexts = 1) ?(limit = 10.0) () =
  { Job.benchmark = bench; arch = "homo-orth"; size = 2; contexts; limit }

let fast_jobs =
  [
    job ();
    job ~bench:"2x2-f" ();
    job ~contexts:2 ();
    job ~bench:"2x2-f" ~contexts:2 ();
  ]

let statuses records = List.map (fun (r : Record.t) -> Record.status_to_string r.Record.status) records

let temp_journal () = Filename.temp_file "cgra_sweep_test" ".jsonl"

(* ---------------- Jsonl ---------------- *)

let test_jsonl_roundtrip () =
  let v =
    Jsonl.Obj
      [
        ("s", Jsonl.Str "a \"quoted\"\nline\t\\");
        ("i", Jsonl.Num 42.0);
        ("f", Jsonl.Num 0.125);
        ("neg", Jsonl.Num (-3.0));
        ("b", Jsonl.Bool true);
        ("n", Jsonl.Null);
        ("l", Jsonl.List [ Jsonl.Num 1.0; Jsonl.Str "x"; Jsonl.Obj [] ]);
      ]
  in
  let line = Jsonl.to_string v in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match Jsonl.of_string line with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "roundtrip equal" true (v = v')

let test_jsonl_errors () =
  let bad = [ "{"; "{\"a\" 1}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing" ] in
  List.iter
    (fun s ->
      match Jsonl.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s
      | Error _ -> ())
    bad;
  Alcotest.(check (option string))
    "escapes decode"
    (Some "a/b\n")
    (Option.bind (Result.to_option (Jsonl.of_string "\"a\\/b\\n\"")) Jsonl.to_str)

let test_record_roundtrip () =
  let r =
    {
      Record.job = job ~bench:"exp_4" ~contexts:2 ~limit:300.0 ();
      status = Record.Infeasible;
      engine = "sat-cold";
      total_seconds = 12.5;
      solve_seconds = 11.25;
      build_seconds = 1.25;
      sat_calls = 3;
      certified = true;
      objective = None;
      core = [];
      evidence = Some "drat";
      cross = None;
    }
  in
  match Record.of_line (Record.to_line r) with
  | Error e -> Alcotest.failf "record reparse failed: %s" e
  | Ok r' -> Alcotest.(check bool) "record roundtrip" true (r = r')

let test_record_core_roundtrip () =
  (* an explained 0-cell journals its unsat core; the labels must
     survive the JSONL trip byte-for-byte and in order *)
  let r =
    {
      Record.job = job ~bench:"mac" ~contexts:1 ~limit:60.0 ();
      status = Record.Infeasible;
      engine = "sat";
      total_seconds = 2.0;
      solve_seconds = 1.5;
      build_seconds = 0.5;
      sat_calls = 9;
      certified = false;
      objective = None;
      core = [ "place:mul0"; "excl:pe_0_0.fu"; "route:val2" ];
      evidence = Some "hall";
      cross = None;
    }
  in
  let line = Record.to_line r in
  Alcotest.(check bool) "core journaled" true
    (match Jsonl.of_string line with
    | Ok j -> Jsonl.member "core" j <> None
    | Error _ -> false);
  (match Record.of_line line with
  | Error e -> Alcotest.failf "core record reparse failed: %s" e
  | Ok r' -> Alcotest.(check bool) "core record roundtrip" true (r = r'));
  (* a coreless record must not grow a "core" key (compact plain sweeps) *)
  let plain = { r with Record.core = [] } in
  match Jsonl.of_string (Record.to_line plain) with
  | Ok j -> Alcotest.(check bool) "no core key when empty" true (Jsonl.member "core" j = None)
  | Error e -> Alcotest.failf "plain record line unparsable: %s" e

let test_record_certified_default () =
  (* journals written before certification existed have no "certified"
     key; they must load as uncertified, not fail *)
  let line =
    {|{"benchmark":"mac","arch":"homo-orth","size":2,"contexts":1,"limit":10,"status":"infeasible","engine":"sat","total_seconds":1,"solve_seconds":1,"build_seconds":0,"sat_calls":1,"presolve_fixed":0}|}
  in
  match Record.of_line line with
  | Error e -> Alcotest.failf "legacy line rejected: %s" e
  | Ok r ->
      Alcotest.(check bool) "legacy record is uncertified" false r.Record.certified;
      Alcotest.(check (option string)) "legacy record names no evidence" None r.Record.evidence

let test_record_error_roundtrip () =
  let r = Record.error (job ()) "boom: \"quoted\" reason" in
  match Record.of_line (Record.to_line r) with
  | Error e -> Alcotest.failf "error-record reparse failed: %s" e
  | Ok r' -> Alcotest.(check bool) "error record roundtrip" true (r = r')

(* ---------------- Store ---------------- *)

let test_store_roundtrip () =
  let path = temp_journal () in
  let store = Store.append_to path in
  let records = List.map (fun j -> Record.error j "placeholder") fast_jobs in
  List.iter (Store.append store) records;
  Store.close store;
  let loaded = Store.load path in
  Alcotest.(check int) "all lines load" (List.length records) (List.length loaded);
  Alcotest.(check bool) "contents preserved" true (records = loaded);
  (* a torn line (killed mid-write) must not poison the journal *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"benchmark\":\"torn";
  close_out oc;
  Alcotest.(check int) "torn line skipped" (List.length records) (List.length (Store.load path));
  Sys.remove path

let test_store_missing_file () =
  Alcotest.(check int) "missing journal is empty" 0
    (List.length (Store.load "/nonexistent/journal.jsonl"))

(* Multi-writer safety: each record goes down in a single O_APPEND
   write, so several store handles — domains here, but equally separate
   processes — can append to one journal without tearing lines. *)
let test_store_concurrent_writers () =
  let path = temp_journal () in
  let writers = 4 and per_writer = 50 in
  let write_batch w () =
    (* Each writer opens its own handle, as separate processes would. *)
    let store = Store.append_to path in
    for i = 1 to per_writer do
      Store.append store (Record.error (job ()) (Printf.sprintf "w%d-%d" w i))
    done;
    Store.close store
  in
  let domains = List.init writers (fun w -> Domain.spawn (write_batch w)) in
  List.iter Domain.join domains;
  let loaded = Store.load path in
  Alcotest.(check int) "every line intact" (writers * per_writer) (List.length loaded);
  (* No interleaving corrupted a message: every (writer, i) pair is
     present exactly once. *)
  let messages =
    List.filter_map
      (fun (r : Record.t) ->
        match r.Record.status with Record.Error m -> Some m | _ -> None)
      loaded
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all messages distinct and complete" (writers * per_writer)
    (List.length messages);
  Sys.remove path

(* ---------------- Pool ---------------- *)

let test_pool_bounded_queue () =
  let pool = Pool.create ~queue_capacity:2 ~workers:1 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  (* Block the single worker, then fill the queue. *)
  let accepted_blocking = Pool.submit pool (fun () -> Mutex.lock gate; Mutex.unlock gate) in
  Alcotest.(check bool) "worker task accepted" true accepted_blocking;
  (* Give the worker a moment to claim the blocking task. *)
  let rec await tries =
    if tries > 0 && Pool.active pool = 0 then begin Unix.sleepf 0.01; await (tries - 1) end
  in
  await 100;
  let a = Pool.submit pool (fun () -> ()) in
  let b = Pool.submit pool (fun () -> ()) in
  let overflow = Pool.submit pool (fun () -> ()) in
  Alcotest.(check bool) "queue accepts up to capacity" true (a && b);
  Alcotest.(check bool) "overflow refused" false overflow;
  Mutex.unlock gate;
  Pool.shutdown pool;
  Alcotest.(check bool) "submit after shutdown refused" false (Pool.submit pool (fun () -> ()))

(* ---------------- Scheduler ---------------- *)

let test_scheduler_deterministic () =
  let run n =
    let records, stats = Scheduler.run ~jobs:n ~execute:Runner.run fast_jobs in
    Alcotest.(check int) "all jobs ran" (List.length fast_jobs) stats.Scheduler.ran;
    records
  in
  let seq = run 1 and par = run 3 in
  Alcotest.(check (list string)) "statuses independent of worker count" (statuses seq) (statuses par);
  List.iter2
    (fun (a : Record.t) (b : Record.t) ->
      Alcotest.(check string) "result order is input order" (Job.key a.Record.job)
        (Job.key b.Record.job))
    seq par;
  Alcotest.(check (list string))
    "expected Table-2 slice"
    [ "infeasible"; "infeasible"; "infeasible"; "feasible" ]
    (statuses seq)

let test_scheduler_error_capture () =
  let jobs = [ job (); job ~bench:"no-such-benchmark" (); job ~bench:"2x2-f" ~contexts:2 () ] in
  let records, stats = Scheduler.run ~jobs:2 ~execute:Runner.run jobs in
  Alcotest.(check int) "sweep completed" 3 stats.Scheduler.ran;
  Alcotest.(check (list string))
    "bad job is an error, neighbours unaffected"
    [ "infeasible"; "error"; "feasible" ]
    (statuses records);
  match (List.nth records 1).Record.status with
  | Record.Error msg ->
      Alcotest.(check bool) "error names the benchmark" true
        (Astring.String.is_infix ~affix:"no-such-benchmark" msg)
  | _ -> Alcotest.fail "expected an error record"

(* A job function that raises: the scheduler turns the exception into
   that job's [Error] record, journals it, and runs the other jobs. *)
exception Job_blew_up

let test_scheduler_execute_raises () =
  let path = temp_journal () in
  let bad = job ~bench:"2x2-f" () in
  let execute j = if Job.key j = Job.key bad then raise Job_blew_up else Runner.run j in
  let records, stats =
    Scheduler.run ~jobs:2 ~journal:path ~execute [ job (); bad; job ~bench:"2x2-f" ~contexts:2 () ]
  in
  Alcotest.(check int) "every job ran" 3 stats.Scheduler.ran;
  Alcotest.(check (list string))
    "the raising job is an error, the others answer"
    [ "infeasible"; "error"; "feasible" ]
    (statuses records);
  (match (List.nth records 1).Record.status with
  | Record.Error msg ->
      Alcotest.(check bool) "error names the exception" true
        (Astring.String.is_infix ~affix:"Job_blew_up" msg)
  | _ -> Alcotest.fail "expected an error record");
  let journaled =
    List.filter (fun (r : Record.t) -> Job.key r.Record.job = Job.key bad) (Store.load path)
  in
  (match journaled with
  | [ r ] ->
      Alcotest.(check string) "its line reaches the journal" "error"
        (Record.status_to_string r.Record.status)
  | rs -> Alcotest.failf "expected 1 journaled record for the job, got %d" (List.length rs));
  Sys.remove path

let test_degenerate_job_is_error () =
  (* A size-0 fabric or a zero II names no cell: [Runner.run] promises
     that no exception escapes, so each is an error record. *)
  List.iter
    (fun (what, j) ->
      match (Runner.run j).Record.status with
      | Record.Error msg ->
          Alcotest.(check bool) (what ^ " named in the error") true
            (Astring.String.is_infix ~affix:what msg)
      | _ -> Alcotest.failf "%s: expected an error record" what)
    [ ("size", { (job ()) with Job.size = 0 }); ("contexts", job ~contexts:0 ()) ]

let line_count path = List.length (In_channel.with_open_text path In_channel.input_lines)

let test_scheduler_resume () =
  let path = temp_journal () in
  (* first run: only the two single-context jobs *)
  let first = [ List.nth fast_jobs 0; List.nth fast_jobs 1 ] in
  let _, s1 = Scheduler.run ~jobs:1 ~journal:path ~resume:true ~execute:Runner.run first in
  Alcotest.(check int) "fresh journal: every job ran" 2 s1.Scheduler.ran;
  (* resumed run over the full list skips what the journal records *)
  let r2, stats = Scheduler.run ~jobs:2 ~journal:path ~resume:true ~execute:Runner.run fast_jobs in
  Alcotest.(check int) "only unfinished jobs ran" 2 stats.Scheduler.ran;
  Alcotest.(check int) "finished jobs skipped" 2 stats.Scheduler.skipped;
  Alcotest.(check (list string)) "second run computed the ii2 cells"
    [ "infeasible"; "feasible" ] (statuses r2);
  let merged = Grid.latest_by_key (Store.load path) in
  Alcotest.(check int) "journal now covers the whole grid" 4 (Hashtbl.length merged);
  (* a complete journal: nothing runs and nothing is appended *)
  let lines = line_count path in
  let r3, s3 = Scheduler.run ~jobs:2 ~journal:path ~resume:true ~execute:Runner.run fast_jobs in
  Alcotest.(check int) "complete journal: 0 ran" 0 s3.Scheduler.ran;
  Alcotest.(check int) "complete journal: no record" 0 (List.length r3);
  Alcotest.(check int) "complete journal: no line appended" lines (line_count path);
  Sys.remove path

(* ---------------- Portfolio ---------------- *)

let test_portfolio_definitive () =
  List.iter
    (fun j ->
      let raced =
        Portfolio.race ~variants:(Runner.default_racers (Domain.recommended_domain_count ())) j
      in
      let single = Runner.run j in
      Alcotest.(check bool) "portfolio answer is definitive" true (Record.definitive raced);
      Alcotest.(check string) "portfolio agrees with single-engine Sat_backed"
        (Record.status_to_string single.Record.status)
        (Record.status_to_string raced.Record.status);
      Alcotest.(check bool) "winner is a pool variant" true
        (List.mem raced.Record.engine
           (List.map (fun (v : Runner.variant) -> v.Runner.name) Runner.racer_pool)))
    [ job (); job ~bench:"2x2-f" ~contexts:2 () ]

let test_portfolio_cancellation () =
  (* A raised flag makes a mapping call wind down promptly as Timeout.
     The job must genuinely need search (the 2x2 cells decide in fewer
     conflicts than the solver's first deadline poll): add_16 on the
     paper's 4x4 orthogonal array is an infeasibility proof that
     normally takes minutes. *)
  let cancel = Deadline.new_cancellation () in
  Deadline.cancel cancel;
  let hard = { (job ~bench:"add_16" ~limit:60.0 ()) with Job.size = 4 } in
  let r = Runner.run_variant ~cancel Runner.default_variant hard in
  Alcotest.(check string) "pre-cancelled run times out" "timeout"
    (Record.status_to_string r.Record.status);
  Alcotest.(check bool) "and returns immediately, not at the limit" true
    (r.Record.total_seconds < 30.0)

(* The flag reaches the warm start too: its anneal runs under the
   job's deadline, so a cancelled racer skips the 5 s it would spend
   annealing before the search. *)
let test_cancellation_stops_warm_start () =
  let cancel = Deadline.new_cancellation () in
  Deadline.cancel cancel;
  let hard = { (job ~bench:"add_16" ~limit:60.0 ()) with Job.size = 4 } in
  let warm = { Runner.default_variant with Runner.name = "sat-warm5"; warm_start = 5.0 } in
  let r = Runner.run_variant ~cancel warm hard in
  Alcotest.(check string) "pre-cancelled warm run times out" "timeout"
    (Record.status_to_string r.Record.status);
  Alcotest.(check bool) "well before the warm start's budget" true
    (r.Record.total_seconds < 2.5)

(* ---------------- cross-checking ---------------- *)

let test_verdicts_agree () =
  let agree ?o1 ?o2 s1 s2 =
    Record.verdicts_agree ~status:s1 ~objective:o1 ~status2:s2 ~objective2:o2
  in
  Alcotest.(check bool) "feasible vs infeasible clashes" false
    (agree Record.Feasible Record.Infeasible);
  Alcotest.(check bool) "infeasible vs feasible clashes" false
    (agree Record.Infeasible Record.Feasible);
  Alcotest.(check bool) "timeout is inconclusive" true (agree Record.Feasible Record.Timeout);
  Alcotest.(check bool) "error is inconclusive" true
    (agree Record.Infeasible (Record.Error "crash"));
  Alcotest.(check bool) "matching proofs agree" true (agree Record.Infeasible Record.Infeasible);
  Alcotest.(check bool) "equal objectives agree" true
    (agree ~o1:3 ~o2:3 Record.Feasible Record.Feasible);
  Alcotest.(check bool) "different objectives clash" false
    (agree ~o1:3 ~o2:4 Record.Feasible Record.Feasible);
  Alcotest.(check bool) "missing objective is not a clash" true
    (agree ~o1:3 Record.Feasible Record.Feasible)

let test_cross_record_roundtrip () =
  let r =
    {
      (Record.error (job ()) "unused") with
      Record.status = Record.Feasible;
      engine = "sat";
      cross =
        Some
          {
            Record.backend = "highs";
            status = Record.Infeasible;
            objective = Some 5;
            agreed = false;
          };
    }
  in
  let line = Record.to_line r in
  Alcotest.(check bool) "disagreement flag journaled" true
    (Astring.String.is_infix ~affix:{|"disagreement":true|} line);
  (match Record.of_line line with
  | Error e -> Alcotest.failf "cross record reparse failed: %s" e
  | Ok r' ->
      Alcotest.(check bool) "cross survives the trip" true (r'.Record.cross = r.Record.cross);
      Alcotest.(check bool) "detected as disagreement" true (Record.disagreement r'));
  (* an agreed cross-check must not carry the disagreement flag *)
  let ok =
    { r with Record.cross = Some { Record.backend = "highs"; status = Record.Feasible; objective = None; agreed = true } }
  in
  Alcotest.(check bool) "no flag when agreed" false
    (Astring.String.is_infix ~affix:"disagreement" (Record.to_line ok))

let test_scheduler_cross_check_agrees () =
  (* conn-sat re-proves what native-sat decided on the other
     formulation; a complete second engine can only confirm (or time
     out — inconclusive) *)
  let records, stats =
    Scheduler.run
      ~execute:(Runner.cross_checked (solver "conn-sat") Runner.run)
      [ job (); job ~bench:"2x2-f" ~contexts:2 () ]
  in
  Alcotest.(check int) "no disagreements" 0 stats.Scheduler.disagreements;
  List.iter
    (fun (r : Record.t) ->
      match r.Record.cross with
      | None -> Alcotest.failf "definitive cell %s not cross-checked" (Job.key r.Record.job)
      | Some c ->
          Alcotest.(check string) "checker recorded" "conn-sat" c.Record.backend;
          Alcotest.(check bool) "no contradiction" true c.Record.agreed)
    records

let test_reprove_bypasses_hall () =
  (* mac@homo-orth-2x2/ii1 has five ALU operations for four ALUs: the
     primary answers it by the Hall step, and the cross-check's
     [reprove] must have the engine refute the model itself *)
  let j = job () in
  let primary = Runner.run j in
  Alcotest.(check (option string)) "primary decided by Hall" (Some "hall") primary.Record.evidence;
  Alcotest.(check int) "no SAT call for the primary" 0 primary.Record.sat_calls;
  let second = Runner.reprove (solver "native-sat") j in
  Alcotest.(check string) "the engine agrees" "infeasible"
    (Record.status_to_string second.Record.status);
  Alcotest.(check (option string)) "the engine's refutation" (Some "drat") second.Record.evidence;
  Alcotest.(check bool) "a SAT search ran" true (second.Record.sat_calls > 0)

(* claims every model infeasible — the adversarial cross-checker the
   sweep must catch on a feasible cell; a spec record, as any solver
   outside the fixed table is *)
let liar =
  let module Backend = Cgra_backend.Backend in
  let name = "test-liar" in
  {
    Cgra_core.Solver_spec.name;
    formulation = Cgra_core.Formulation_intf.paper;
    engine =
      Cgra_core.Solver_spec.External
        {
          Backend.name;
          doc = "always claims infeasible (test double)";
          available = (fun () -> Backend.Available { version = Some "liar 1.0" });
          solve = (fun ?deadline:_ _model -> Cgra_ilp.Solve.Infeasible);
        };
  }

let test_scheduler_cross_check_disagreement () =
  let feasible = job ~bench:"2x2-f" ~contexts:2 () in
  let records, stats =
    Scheduler.run ~execute:(Runner.cross_checked liar Runner.run) [ feasible ]
  in
  Alcotest.(check int) "the lie is caught" 1 stats.Scheduler.disagreements;
  match records with
  | [ r ] ->
      Alcotest.(check string) "primary verdict stands" "feasible"
        (Record.status_to_string r.Record.status);
      Alcotest.(check bool) "record flagged" true (Record.disagreement r);
      Alcotest.(check bool) "flag survives the journal line" true
        (Astring.String.is_infix ~affix:{|"disagreement":true|} (Record.to_line r))
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let test_scheduler_cross_check_skips_indefinitive () =
  (* a cell the primary cannot decide is never cross-checked: there is
     no verdict to contradict *)
  let records, stats =
    Scheduler.run ~execute:(Runner.cross_checked liar Runner.run)
      [ job ~bench:"no-such-benchmark" () ]
  in
  Alcotest.(check int) "no disagreement on an error cell" 0 stats.Scheduler.disagreements;
  match records with
  | [ r ] -> Alcotest.(check bool) "no cross on error record" true (r.Record.cross = None)
  | _ -> Alcotest.fail "expected 1 record"

(* ---------------- annealing baseline (fig8) ---------------- *)

let test_run_anneal () =
  let r = Runner.run_anneal ~seeds:2 (job ~bench:"2x2-f" ~contexts:2 ~limit:20.0 ()) in
  Alcotest.(check string) "SA maps the feasible cell" "feasible"
    (Record.status_to_string r.Record.status);
  Alcotest.(check string) "engine is sa" "sa" r.Record.engine;
  Alcotest.(check bool) "heuristic mappings are never certified" false r.Record.certified;
  (* annealing cannot prove absence: an infeasible cell times out *)
  let r = Runner.run_anneal ~seeds:2 (job ~bench:"mac" ~limit:4.0 ()) in
  Alcotest.(check string) "SA cannot decide the infeasible cell" "timeout"
    (Record.status_to_string r.Record.status)

(* ---------------- certification ---------------- *)

let test_certified_sweep () =
  (* Every definitive verdict of a certified sweep must carry validated
     evidence: Check-accepted mappings for feasible cells, checked DRAT
     refutations for infeasible ones. *)
  let records, _ = Scheduler.run ~jobs:2 ~execute:(Runner.run ~certify:true) fast_jobs in
  Alcotest.(check (list string))
    "statuses unchanged by certification"
    [ "infeasible"; "infeasible"; "infeasible"; "feasible" ]
    (statuses records);
  List.iter
    (fun (r : Record.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is certified" (Job.key r.Record.job))
        true r.Record.certified)
    records

let test_uncertified_by_default () =
  let r = Runner.run (job ()) in
  Alcotest.(check string) "still infeasible" "infeasible"
    (Record.status_to_string r.Record.status);
  Alcotest.(check bool) "no certificate without --certify" false r.Record.certified

(* ---------------- Grid ---------------- *)

let test_grid_render () =
  let records, _ = Scheduler.run ~jobs:2 ~execute:Runner.run fast_jobs in
  let table = Grid.render records in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "table contains %S" needle) true
        (Astring.String.is_infix ~affix:needle table))
    [ "Benchmark"; "homo-orth/ii1"; "homo-orth/ii2"; "mac"; "2x2-f"; "Total" ];
  (* the latest record for a key wins *)
  let override =
    { (List.hd records) with Record.status = Record.Timeout; engine = "override" }
  in
  let table' = Grid.render (records @ [ override ]) in
  Alcotest.(check bool) "rerun overrides earlier line" true
    (Astring.String.is_infix ~affix:"T" table')

(* ---------------- the committed Table-2 journal ---------------- *)

(* The paper's Table 2 (EXPERIMENTS.md): one row per benchmark, one
   character per column in the paper's order, hetero-orth, hetero-diag,
   homo-orth and homo-diag at II 1, then the same four at II 2. *)
let paper_table2 =
  [
    ("accum", "11111111"); ("mac", "11111111"); ("add_10", "11111111");
    ("add_14", "01011111"); ("add_16", "01011111"); ("mult_10", "00111111");
    ("mult_14", "00011111"); ("mult_16", "00011111"); ("2x2-f", "11111111");
    ("2x2-p", "11111111"); ("cos_4", "00001111"); ("cosh_4", "00001111");
    ("exp_4", "01011111"); ("exp_5", "00011111"); ("exp_6", "0000T1T1");
    ("sinh_4", "00011111"); ("tay_4", "01011111"); ("extreme", "00001111");
    ("weighted_sum", "00011111");
  ]

(* The cells the journal maps where the paper prints 0 or T: the
   deviation list of EXPERIMENTS.md's measured Table 2. *)
let table2_deviations =
  [
    "cos_4@homo-diag/4x4/ii1"; "cosh_4@homo-diag/4x4/ii1"; "exp_4@homo-orth/4x4/ii1";
    "exp_6@homo-orth/4x4/ii2"; "mult_14@homo-orth/4x4/ii1"; "mult_16@homo-orth/4x4/ii1";
    "tay_4@homo-orth/4x4/ii1";
  ]

(* The journal was written before the DRAT replay polled the query's
   deadline.  Regenerated at 60 s with `sweep --certify`, the checks of
   cosh_4@homo-orth/4x4/ii1 and weighted_sum@hetero-orth/4x4/ii1 are cut
   at the deadline, so those two refutations come out uncertified and
   the "certified" check below fails on the new file: a faster proof
   check, not a looser test, is what gives them back. *)
let test_committed_journal () =
  let records = Store.load (Test_data.path "../journals/table2-4x4.jsonl") in
  let latest = Grid.latest_by_key records in
  let grid = Job.paper_grid ~size:4 ~limit:60.0 () in
  Alcotest.(check int) "152 records" 152 (List.length records);
  Alcotest.(check int) "one record per grid key" 152 (Hashtbl.length latest);
  let columns =
    List.concat_map
      (fun ii -> List.map (fun (arch, _) -> (arch, ii)) (Cgra_arch.Library.paper_configs ~size:4))
      [ 1; 2 ]
  in
  let deviations = ref [] in
  List.iter
    (fun (j : Job.t) ->
      let cell = Job.to_string j in
      let r =
        match Hashtbl.find_opt latest (Job.key j) with
        | Some r -> r
        | None -> Alcotest.failf "%s: not in the journal" cell
      in
      Alcotest.(check (float 0.0)) (cell ^ ": 60 s limit") 60.0 r.Record.job.Job.limit;
      if Record.definitive r then
        Alcotest.(check bool) (cell ^ ": certified") true r.Record.certified;
      let paper =
        let rec index i = function
          | [] -> Alcotest.failf "%s: no paper column" cell
          | c :: rest -> if c = (j.Job.arch, j.Job.contexts) then i else index (i + 1) rest
        in
        (List.assoc j.Job.benchmark paper_table2).[index 0 columns]
      in
      match (r.Record.status, paper) with
      | Record.Infeasible, '1' -> Alcotest.failf "%s: measured 0, the paper maps it" cell
      | Record.Feasible, ('0' | 'T') -> deviations := cell :: !deviations
      | _ -> ())
    grid;
  Alcotest.(check (list string)) "cells mapped where the paper prints 0 or T" table2_deviations
    (List.sort compare !deviations)

let suites =
  [
    ( "sweep",
      [
        Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "jsonl rejects malformed" `Quick test_jsonl_errors;
        Alcotest.test_case "record line roundtrip" `Quick test_record_roundtrip;
        Alcotest.test_case "record with unsat core roundtrip" `Quick test_record_core_roundtrip;
        Alcotest.test_case "legacy record defaults to uncertified" `Quick
          test_record_certified_default;
        Alcotest.test_case "error record roundtrip" `Quick test_record_error_roundtrip;
        Alcotest.test_case "store append/load" `Quick test_store_roundtrip;
        Alcotest.test_case "store missing file" `Quick test_store_missing_file;
        Alcotest.test_case "store concurrent writers" `Quick test_store_concurrent_writers;
        Alcotest.test_case "pool bounds its queue" `Quick test_pool_bounded_queue;
        Alcotest.test_case "scheduler deterministic across --jobs" `Slow test_scheduler_deterministic;
        Alcotest.test_case "scheduler records errors, sweep survives" `Slow test_scheduler_error_capture;
        Alcotest.test_case "scheduler turns a raising job into its error record" `Quick
          test_scheduler_execute_raises;
        Alcotest.test_case "degenerate size or contexts is an error record" `Quick
          test_degenerate_job_is_error;
        Alcotest.test_case "resume skips journaled jobs" `Slow test_scheduler_resume;
        Alcotest.test_case "portfolio first-definitive agreement" `Slow test_portfolio_definitive;
        Alcotest.test_case "cancellation stops a run" `Slow test_portfolio_cancellation;
        Alcotest.test_case "cancellation stops a warm start" `Slow
          test_cancellation_stops_warm_start;
        Alcotest.test_case "verdict compatibility" `Quick test_verdicts_agree;
        Alcotest.test_case "cross-check record roundtrip" `Quick test_cross_record_roundtrip;
        Alcotest.test_case "cross-check re-proves a Hall cell by search" `Quick
          test_reprove_bypasses_hall;
        Alcotest.test_case "cross-check: second engine confirms" `Slow
          test_scheduler_cross_check_agrees;
        Alcotest.test_case "cross-check: lying backend caught" `Slow
          test_scheduler_cross_check_disagreement;
        Alcotest.test_case "cross-check: undecided cells skipped" `Quick
          test_scheduler_cross_check_skips_indefinitive;
        Alcotest.test_case "annealing baseline records" `Slow test_run_anneal;
        Alcotest.test_case "certified sweep validates every verdict" `Slow test_certified_sweep;
        Alcotest.test_case "certification is off by default" `Slow test_uncertified_by_default;
        Alcotest.test_case "table renders from journal" `Slow test_grid_render;
        Alcotest.test_case "committed Table-2 journal against the paper" `Quick
          test_committed_journal;
      ] );
  ]
