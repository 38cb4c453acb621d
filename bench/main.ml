(* Experiment harness: regenerates every table and figure of the paper.

   Subcommands:
     table1            benchmark characteristics (paper Table 1)
     table2            feasibility grid, ILP mapper (paper Table 2)
     fig8              SA mapper vs ILP mapper (paper Figure 8); journaled,
                       resumable, exits 1 if SA ever beats the exact mapper
     sizes             formulation sizes per cell (diagnostics)
     sweep             parallel sweep engine scaling (--jobs 1/2/4); appends
                       a run record to BENCH_sweep.json
     certify           DRAT certification overhead (proof logging on vs off);
                       appends a run record to BENCH_certify.json
     inprocess         SAT inprocessing A/B on hard Table 2 cells (all passes
                       on vs all off); appends a run record to
                       BENCH_inprocess.json and exits 1 if the geomean
                       speedup falls below 1.3x
     explain           unsat-core extraction overhead on infeasible cells
     conn              formulation A/B: the paper's per-edge model vs the
                       connectivity model on shared cells — encode size,
                       encode/solve time per formulation; appends a run
                       record to BENCH_conn.json, exits 3 on any verdict
                       flip and 1 if conn's row count blows past its gate
     crosscheck        native engine vs an external MILP backend on a small
                       grid (skipped with a message when the solver binary
                       is not installed); exits 5 on verdict disagreement
     serve             daemon serving latency: cold vs warm requests over
                       one socket, cache hit rate; appends a run record to
                       BENCH_serve.json and exits 1 if the warm path is not
                       at least 1.5x faster than the cold one
     archscale         elaboration/encode/solve cost vs array size (2x2 to
                       16x16, mesh vs torus); appends a run record to
                       BENCH_archscale.json and exits 1 if 8x8 mesh
                       elaboration regresses >2x over the journaled baseline
     all               table1 + table2 + fig8 (default)

   Common options:
     --limit SECS      per-cell time limit (default 120)
     --size N          array size NxN (default 4, the paper's)
     --benchmark NAME  restrict to one benchmark (repeatable)
     --seeds N         annealing attempts per cell in fig8 (default 3)
     --jobs N          parallel workers for fig8 (default 1)
     --journal BASE    fig8 journal base path (default "fig8"; writes
                       BASE.ilp.jsonl and BASE.sa.jsonl, resumable)
     --backend NAME    external backend for crosscheck (default "highs") *)

module Dfg = Cgra_dfg.Dfg
module Benchmarks = Cgra_dfg.Benchmarks
module Lib = Cgra_arch.Library
module Build = Cgra_mrrg.Build
module Mrrg = Cgra_mrrg.Mrrg
module IM = Cgra_core.Ilp_mapper
module Anneal = Cgra_core.Anneal
module Formulation = Cgra_core.Formulation
module Deadline = Cgra_util.Deadline

module Jsonl = Cgra_sweep.Jsonl

(* Append a run record to BENCH_<name>.json, preserving earlier runs so
   each journal accumulates a history across commits — the same schema
   for every journaled subcommand: {"bench": name, "runs": [...]}. *)
let previous_bench_runs ~name =
  let path = Printf.sprintf "BENCH_%s.json" name in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Jsonl.of_string text with
    | Ok json -> (
        match Jsonl.member "runs" json with Some (Jsonl.List runs) -> runs | _ -> [])
    | Error _ -> []
  end
  else []

let record_bench_run ~name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let previous = previous_bench_runs ~name in
  let doc =
    Jsonl.Obj [ ("bench", Jsonl.Str name); ("runs", Jsonl.List (previous @ [ fields ])) ]
  in
  let oc = open_out path in
  output_string oc (Jsonl.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  recorded run %d in %s\n" (List.length previous + 1) path

type options = {
  limit : float;
  size : int;
  benchmarks : string list; (* empty = all *)
  seeds : int;
  jobs : int;
  journal : string;
  backend : string;
}

let default_options =
  { limit = 120.0; size = 4; benchmarks = []; seeds = 3; jobs = 1; journal = "fig8";
    backend = "highs" }

let selected_benchmarks opts =
  match opts.benchmarks with
  | [] -> Benchmarks.all
  | names -> List.filter (fun (n, _) -> List.mem n names) Benchmarks.all

(* The eight architectures of Table 2: four structures x two context
   counts, single-context columns first, exactly as the paper prints
   them. *)
let table2_columns opts =
  List.concat_map
    (fun ii ->
      List.map (fun (name, config) -> (name, config, ii)) (Lib.paper_configs ~size:opts.size))
    [ 1; 2 ]

let column_header (name, _, ii) = Printf.sprintf "%s/ii%d" name ii

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let run_table1 opts =
  print_endline "== Table 1: benchmark characteristics ==";
  Printf.printf "%-14s %6s %12s %12s\n" "Benchmark" "I/Os" "Operations" "#Multiplies";
  List.iter
    (fun (name, mk) ->
      let s = Dfg.stats (mk ()) in
      Printf.printf "%-14s %6d %12d %12d\n" name s.Dfg.ios s.Dfg.operations s.Dfg.multiplies)
    (selected_benchmarks opts);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

type cell = Feasible | Infeasible | TimedOut

let cell_char = function Feasible -> "1" | Infeasible -> "0" | TimedOut -> "T"

let mrrg_cache : (string * int * int, Mrrg.t) Hashtbl.t = Hashtbl.create 16

let mrrg_for opts (name, config, ii) =
  match Hashtbl.find_opt mrrg_cache (name, opts.size, ii) with
  | Some m -> m
  | None ->
      let m = Build.elaborate (Lib.make config) ~ii in
      Hashtbl.replace mrrg_cache (name, opts.size, ii) m;
      m

(* Two-phase exact query: a cold attempt first (fast on easy cells and
   on infeasibility proofs), then a warm-started attempt seeded by a
   thorough annealing run for the cells where search alone stalls. *)
let ilp_cell opts column dfg =
  let mrrg = mrrg_for opts column in
  let t0 = Deadline.now () in
  let slice = Float.min (opts.limit /. 3.0) 30.0 in
  let classify = function
    | IM.Mapped _ -> Feasible
    | IM.Infeasible _ -> Infeasible
    | IM.Timeout _ -> TimedOut
  in
  let cold =
    IM.map ~objective:Formulation.Feasibility ~warm_start:0.0
      ~deadline:(Deadline.after ~seconds:slice) dfg mrrg
  in
  let cell =
    match classify cold with
    | (Feasible | Infeasible) as c -> c
    | TimedOut ->
        let remaining = opts.limit -. Deadline.elapsed_of ~start:t0 in
        if remaining <= 1.0 then TimedOut
        else
          classify
            (IM.map ~objective:Formulation.Feasibility
               ~warm_start:(Float.min 60.0 (remaining /. 2.0))
               ~deadline:(Deadline.after ~seconds:remaining) dfg mrrg)
  in
  (cell, Deadline.elapsed_of ~start:t0)

let run_table2 opts =
  Printf.printf "== Table 2: mapping feasibility (ILP mapper, %dx%d, limit %.0fs) ==\n" opts.size
    opts.size opts.limit;
  let columns = table2_columns opts in
  Printf.printf "%-14s" "Benchmark";
  List.iter (fun c -> Printf.printf " %20s" (column_header c)) columns;
  print_newline ();
  let totals = Array.make (List.length columns) 0 in
  let times = ref [] in
  List.iter
    (fun (bname, mk) ->
      let dfg = mk () in
      Printf.printf "%-14s%!" bname;
      List.iteri
        (fun idx column ->
          let cell, dt = ilp_cell opts column dfg in
          times := dt :: !times;
          if cell = Feasible then totals.(idx) <- totals.(idx) + 1;
          Printf.printf " %14s %4.0fs%!" (cell_char cell) dt)
        columns;
      print_newline ())
    (selected_benchmarks opts);
  Printf.printf "%-14s" "Total Feasible";
  Array.iter (fun n -> Printf.printf " %20d" n) totals;
  print_newline ();
  (* the paper's runtime remark (>80% of runs within an hour) *)
  let all = List.length !times in
  if all > 0 then begin
    let within limit = List.length (List.filter (fun t -> t < limit) !times) in
    let sorted = List.sort compare !times in
    Printf.printf
      "runtimes: %d/%d cells within 60s, %d/%d within the %.0fs limit, median %.2fs\n"
      (within 60.0) all
      (within opts.limit)
      all opts.limit
      (List.nth sorted (all / 2))
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

module Sweep_job = Cgra_sweep.Job
module Sweep_store = Cgra_sweep.Store
module Sweep_sched = Cgra_sweep.Scheduler
module Sweep_record = Cgra_sweep.Record
module Sweep_runner = Cgra_sweep.Runner
module Sweep_grid = Cgra_sweep.Grid

(* Both mappers sweep the full grid through the scheduler, each side
   journaling to its own resumable JSONL file: BASE.ilp.jsonl for the
   exact mapper, BASE.sa.jsonl for the annealing baseline.  A killed
   run re-entered with the same --journal base redoes only the missing
   cells. *)
let fig8_side opts ~label ~path ?executor jobs =
  let done_keys = Sweep_store.completed_keys (Sweep_store.load path) in
  let skip j = Hashtbl.mem done_keys (Sweep_job.key j) in
  let store = Sweep_store.append_to path in
  let on_event = function
    | Sweep_sched.Job_started _ -> ()
    | Sweep_sched.Job_finished { index; total; record; _ } ->
        Sweep_store.append store record;
        Printf.eprintf "  [%s %d/%d] %-10s %s (%.1fs)\n%!" label (index + 1) total
          (Sweep_record.status_to_string record.Sweep_record.status)
          (Sweep_job.to_string record.Sweep_record.job)
          record.Sweep_record.total_seconds
  in
  let _, stats = Sweep_sched.run ~jobs:opts.jobs ?executor ~skip ~on_event jobs in
  Sweep_store.close store;
  if stats.Sweep_sched.skipped > 0 then
    Printf.eprintf "  [%s] resumed: %d cell(s) from %s\n%!" label stats.Sweep_sched.skipped path;
  Sweep_grid.latest_by_key (Sweep_store.load path)

let run_fig8 opts =
  Printf.printf "== Figure 8: benchmarks mapped, SA mapper vs ILP mapper (%dx%d) ==\n" opts.size
    opts.size;
  let benchmarks = List.map fst (selected_benchmarks opts) in
  let jobs =
    Sweep_job.paper_grid ~size:opts.size ~contexts:[ 1; 2 ] ~limit:opts.limit ~benchmarks ()
  in
  let ilp = fig8_side opts ~label:"ilp" ~path:(opts.journal ^ ".ilp.jsonl") jobs in
  let sa =
    fig8_side opts ~label:"sa" ~path:(opts.journal ^ ".sa.jsonl")
      ~executor:(fun j -> Sweep_runner.run_anneal ~seeds:opts.seeds j)
      jobs
  in
  let feasible_count tbl arch ii =
    List.length
      (List.filter
         (fun benchmark ->
           let key =
             Sweep_job.key
               { Sweep_job.benchmark; arch; size = opts.size; contexts = ii; limit = opts.limit }
           in
           match Hashtbl.find_opt tbl key with
           | Some (r : Sweep_record.t) -> r.Sweep_record.status = Sweep_record.Feasible
           | None -> false)
         benchmarks)
  in
  Printf.printf "%-18s %12s %12s\n" "Architecture" "SA mapper" "ILP mapper";
  let violations = ref [] in
  List.iter
    (fun ii ->
      List.iter
        (fun (arch, _) ->
          let sa_n = feasible_count sa arch ii and ilp_n = feasible_count ilp arch ii in
          (* The exact mapper is complete: any cell SA can map is
             feasible, so ILP losing a column means a mapper bug (or a
             too-small --limit starving the exact side). *)
          if ilp_n < sa_n then
            violations := Printf.sprintf "%s/ii%d (SA %d > ILP %d)" arch ii sa_n ilp_n :: !violations;
          Printf.printf "%-18s %12d %12d%s\n%!"
            (Printf.sprintf "%s/ii%d" arch ii)
            sa_n ilp_n
            (if ilp_n < sa_n then "   ** SA BEATS EXACT MAPPER **" else ""))
        (Lib.paper_configs ~size:opts.size))
    [ 1; 2 ];
  print_newline ();
  match List.rev !violations with
  | [] -> ()
  | vs ->
      Printf.eprintf "fig8: SA beat the complete mapper on %d architecture column(s): %s\n%!"
        (List.length vs) (String.concat ", " vs);
      exit 1

(* ------------------------------------------------------------------ *)
(* Diagnostics: formulation sizes                                      *)
(* ------------------------------------------------------------------ *)

let run_sizes opts =
  Printf.printf "== Formulation sizes (%dx%d) ==\n" opts.size opts.size;
  let columns = table2_columns opts in
  List.iter
    (fun (bname, mk) ->
      let dfg = mk () in
      List.iter
        (fun ((cname, _, ii) as column) ->
          let mrrg = mrrg_for opts column in
          let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
          Printf.printf "%-14s %s/ii%d: %s\n%!" bname cname ii
            (Format.asprintf "%a" Formulation.pp_size (Formulation.size f)))
        columns)
    (selected_benchmarks opts);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation: formulation refinements (DESIGN.md §7)                    *)
(* ------------------------------------------------------------------ *)

let run_ablation opts =
  Printf.printf
    "== Ablation: exact-solve time under formulation variants (limit %.0fs) ==\n" opts.limit;
  let variants =
    [
      ("full", true, true, true);
      ("no-prune", false, true, true);
      ("no-anchor", true, false, true);
      ("no-backward", true, true, false);
      ("paper-literal", false, false, false);
    ]
  in
  let cases =
    [ ("mac", "homo-orth", 1); ("2x2-f", "hetero-orth", 1); ("accum", "homo-orth", 1);
      ("exp_4", "homo-diag", 1); ("mac", "homo-orth", 2) ]
  in
  Printf.printf "%-24s" "case";
  List.iter (fun (n, _, _, _) -> Printf.printf " %14s" n) variants;
  print_newline ();
  List.iter
    (fun (bench, arch, ii) ->
      match (Benchmarks.by_name bench, Lib.find_config ~size:opts.size arch) with
      | Some dfg, Some config ->
          let mrrg = mrrg_for opts (arch, config, ii) in
          Printf.printf "%-24s%!" (Printf.sprintf "%s/%s/ii%d" bench arch ii);
          List.iter
            (fun (_, prune, anchor_sinks, backward_continuity) ->
              let t0 = Deadline.now () in
              let f =
                Formulation.build ~objective:Formulation.Feasibility ~prune ~anchor_sinks
                  ~backward_continuity dfg mrrg
              in
              let outcome =
                Cgra_ilp.Solve.solve
                  ~deadline:(Deadline.after ~seconds:opts.limit)
                  f.Formulation.model
              in
              let dt = Deadline.elapsed_of ~start:t0 in
              let tag =
                match outcome with
                | Cgra_ilp.Solve.Optimal _ | Cgra_ilp.Solve.Feasible _ -> "sat"
                | Cgra_ilp.Solve.Infeasible -> "uns"
                | Cgra_ilp.Solve.Timeout -> "TO"
              in
              Printf.printf " %9.2fs %3s%!" dt tag)
            variants;
          print_newline ()
      | _ -> Printf.printf "unknown case %s/%s\n" bench arch)
    cases;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sweep engine throughput: worker-count scaling                       *)
(* ------------------------------------------------------------------ *)

let run_sweep_scaling opts =
  Printf.printf "== Sweep scaling: wall clock vs worker count (limit %.0fs/job) ==\n" opts.limit;
  let module Job = Cgra_sweep.Job in
  let module Scheduler = Cgra_sweep.Scheduler in
  let benchmarks =
    match opts.benchmarks with [] -> [ "accum"; "mac"; "add_10"; "2x2-f" ] | bs -> bs
  in
  let jobs =
    Job.paper_grid ~size:opts.size ~contexts:[ 1 ] ~limit:opts.limit ~benchmarks
      ~archs:[ "homo-orth"; "homo-diag" ] ()
  in
  Printf.printf "%d jobs; host has %d cores\n%!" (List.length jobs)
    (Domain.recommended_domain_count ());
  let baseline = ref 0.0 in
  let rows =
    List.map
      (fun n ->
        let records, stats = Scheduler.run ~jobs:n jobs in
        let undecided =
          List.length (List.filter (fun r -> not (Cgra_sweep.Record.definitive r)) records)
        in
        if n = 1 then baseline := stats.Scheduler.wall_seconds;
        let speedup = !baseline /. stats.Scheduler.wall_seconds in
        Printf.printf "  --jobs %d: %6.1fs wall  (speedup %.2fx, %d undecided)\n%!" n
          stats.Scheduler.wall_seconds speedup undecided;
        Jsonl.Obj
          [
            ("workers", Jsonl.Num (float_of_int n));
            ("wall_seconds", Jsonl.Num stats.Scheduler.wall_seconds);
            ("speedup", Jsonl.Num speedup);
            ("undecided", Jsonl.Num (float_of_int undecided));
          ])
      [ 1; 2; 4 ]
  in
  record_bench_run ~name:"sweep"
    (Jsonl.Obj
       [
         ("unix_time", Jsonl.Num (Unix.gettimeofday ()));
         ("size", Jsonl.Num (float_of_int opts.size));
         ("limit", Jsonl.Num opts.limit);
         ("n_jobs", Jsonl.Num (float_of_int (List.length jobs)));
         ("scaling", Jsonl.List rows);
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Certification overhead: proof logging + checking vs plain solving   *)
(* ------------------------------------------------------------------ *)

(* Small 2x2 cells whose verdicts need real CDCL search, so the proof
   trace is non-trivial: mac is infeasible at both context counts,
   2x2-f flips to feasible at ii2.  The [plain] column is the
   defaults path — proof logging disabled costs one [option] test per
   solver event — and [certified] includes both logging and the
   independent DRAT re-check of infeasible answers. *)
let run_certify opts =
  Printf.printf "== Certification overhead (2x2 cells, %d reps) ==\n" 3;
  let reps = 3 in
  let arch =
    match Lib.find_config ~size:2 "homo-orth" with
    | Some c -> Lib.make c
    | None -> failwith "bench certify: homo-orth config missing"
  in
  Printf.printf "  %-10s %-4s %10s %10s %9s %12s\n" "benchmark" "ii" "plain" "certified"
    "overhead" "proof steps";
  let rows =
    List.filter_map
      (fun (bench, ii) ->
        match Benchmarks.by_name bench with
        | None ->
            Printf.printf "  %-10s unknown benchmark\n" bench;
            None
        | Some dfg ->
            let mrrg = Build.elaborate arch ~ii in
            let once certify =
              IM.map ~deadline:(Deadline.after ~seconds:opts.limit) ~warm_start:0.0 ~certify dfg
                mrrg
            in
            let time certify =
              let t0 = Deadline.now () in
              for _ = 1 to reps do
                ignore (once certify)
              done;
              Deadline.elapsed_of ~start:t0 /. float_of_int reps
            in
            let plain = time false in
            let certified = time true in
            let steps =
              match once true with
              | IM.Infeasible info | IM.Timeout info -> info.IM.proof_steps
              | IM.Mapped (_, info) -> info.IM.proof_steps
            in
            let overhead = if plain > 0.0 then certified /. plain else 0.0 in
            Printf.printf "  %-10s ii%-3d %9.3fs %9.3fs %8.2fx %12d\n%!" bench ii plain
              certified overhead steps;
            Some
              (Jsonl.Obj
                 [
                   ("benchmark", Jsonl.Str bench);
                   ("contexts", Jsonl.Num (float_of_int ii));
                   ("plain_seconds", Jsonl.Num plain);
                   ("certified_seconds", Jsonl.Num certified);
                   ("overhead", Jsonl.Num overhead);
                   ("proof_steps", Jsonl.Num (float_of_int steps));
                 ]))
      [ ("mac", 1); ("2x2-f", 1); ("mac", 2); ("2x2-f", 2) ]
  in
  record_bench_run ~name:"certify"
    (Jsonl.Obj
       [
         ("unix_time", Jsonl.Num (Unix.gettimeofday ()));
         ("size", Jsonl.Num 2.0);
         ("reps", Jsonl.Num (float_of_int reps));
         ("cells", Jsonl.List rows);
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Inprocessing A/B: failed-literal probing on vs off                  *)
(* ------------------------------------------------------------------ *)

(* Hard Table 2 cells — the ones whose verdicts need real CDCL search
   rather than a lucky first descent — solved twice through
   the exact engine: once with the default inprocessing schedule
   (failed-literal probing, the only pass) and once with the hook
   disabled.  Both sides share the formulation; each rep re-encodes, so
   the comparison covers the whole SAT path.  The gate asserts the
   geomean speedup: inprocessing must pay for itself on the hot path,
   not merely break even. *)
let inprocess_gate = 1.3

let run_inprocess opts =
  let module Solve = Cgra_ilp.Solve in
  let module Inprocess = Cgra_satoca.Inprocess in
  let reps = 3 in
  Printf.printf "== Inprocessing A/B: probing on vs off (%d reps, limit %.0fs) ==\n" reps
    opts.limit;
  let cells =
    [
      ("mult_10", "homo-orth", 2, 1); ("mult_10", "homo-diag", 2, 1);
      ("mult_14", "homo-orth", 2, 1); ("cos_4", "homo-orth", 2, 2);
      ("tay_4", "homo-orth", 2, 2); ("weighted_sum", "homo-orth", 2, 2);
    ]
  in
  Printf.printf "  %-26s %-6s %10s %10s %9s\n" "cell" "status" "off" "on" "speedup";
  let ratios = ref [] in
  let rows =
    List.filter_map
      (fun (bench, arch_name, size, ii) ->
        match (Benchmarks.by_name bench, Lib.find_config ~size arch_name) with
        | None, _ | _, None ->
            Printf.printf "  %-26s unknown cell — skipped\n" bench;
            None
        | Some dfg, Some config ->
            let mrrg = Build.elaborate (Lib.make config) ~ii in
            let f = Formulation.build ~objective:Formulation.Feasibility dfg mrrg in
            let solve_once inprocess =
              Solve.solve_report
                ~deadline:(Deadline.after ~seconds:opts.limit)
                ~inprocess f.Formulation.model
            in
            let time inprocess =
              let t0 = Deadline.now () in
              let last = ref None in
              for _ = 1 to reps do
                last := Some (solve_once inprocess)
              done;
              (Deadline.elapsed_of ~start:t0 /. float_of_int reps, Option.get !last)
            in
            let off_seconds, off_report = time Inprocess.all_off in
            let on_seconds, on_report = time Inprocess.all_on in
            let status = function
              | Solve.Optimal _ | Solve.Feasible _ -> "sat"
              | Solve.Infeasible -> "unsat"
              | Solve.Timeout -> "TO"
            in
            if status off_report.Solve.outcome <> status on_report.Solve.outcome then begin
              Printf.eprintf
                "inprocess: %s/%s/ii%d verdict flipped with inprocessing (%s vs %s)\n%!" bench
                arch_name ii
                (status off_report.Solve.outcome)
                (status on_report.Solve.outcome);
              exit 3
            end;
            let speedup = if on_seconds > 0.0 then off_seconds /. on_seconds else 1.0 in
            ratios := speedup :: !ratios;
            Printf.printf "  %-26s %-6s %9.3fs %9.3fs %8.2fx\n%!"
              (Printf.sprintf "%s/%s/ii%d" bench arch_name ii)
              (status on_report.Solve.outcome)
              off_seconds on_seconds speedup;
            Some
              (Jsonl.Obj
                 ([
                    ("benchmark", Jsonl.Str bench);
                    ("arch", Jsonl.Str arch_name);
                    ("size", Jsonl.Num (float_of_int size));
                    ("contexts", Jsonl.Num (float_of_int ii));
                    ("status", Jsonl.Str (status on_report.Solve.outcome));
                    ("off_seconds", Jsonl.Num off_seconds);
                    ("on_seconds", Jsonl.Num on_seconds);
                    ("speedup", Jsonl.Num speedup);
                  ]
                 @ List.map
                     (fun (k, n) -> (k, Jsonl.Num (float_of_int n)))
                     on_report.Solve.inprocess)))
      cells
  in
  let geomean =
    match !ratios with
    | [] -> 1.0
    | rs ->
        exp (List.fold_left (fun acc r -> acc +. log r) 0.0 rs /. float_of_int (List.length rs))
  in
  Printf.printf "  geomean speedup: %.2fx (gate %.1fx)\n%!" geomean inprocess_gate;
  record_bench_run ~name:"inprocess"
    (Jsonl.Obj
       [
         ("unix_time", Jsonl.Num (Unix.gettimeofday ()));
         ("reps", Jsonl.Num (float_of_int reps));
         ("gate", Jsonl.Num inprocess_gate);
         ("geomean_speedup", Jsonl.Num geomean);
         ("cells", Jsonl.List rows);
       ]);
  if geomean < inprocess_gate then begin
    Printf.eprintf "inprocess: geomean speedup %.2fx below the %.1fx gate\n%!" geomean
      inprocess_gate;
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Explanation overhead: unsat-core extraction on infeasible cells     *)
(* ------------------------------------------------------------------ *)

(* 2x2 cells proven infeasible by real search.  The [plain] column is
   the bare infeasibility proof; [explain] adds grouped re-encoding,
   assumption solving, deletion-based core minimization and the
   DRAT-checked refutation of the core's rows alone. *)
let run_explain opts =
  let reps = 3 in
  Printf.printf "== Explanation overhead (2x2 infeasible cells, %d reps) ==\n" reps;
  let arch =
    match Lib.find_config ~size:2 "homo-orth" with
    | Some c -> Lib.make c
    | None -> failwith "bench explain: homo-orth config missing"
  in
  Printf.printf "  %-10s %-4s %10s %10s %9s %6s %10s %9s\n" "benchmark" "ii" "plain" "explain"
    "overhead" "core" "minimized" "SATcalls";
  List.iter
    (fun (bench, ii) ->
      match Benchmarks.by_name bench with
      | None -> Printf.printf "  %-10s unknown benchmark\n" bench
      | Some dfg ->
          let mrrg = Build.elaborate arch ~ii in
          let once explain =
            IM.map ~deadline:(Deadline.after ~seconds:opts.limit) ~warm_start:0.0 ~explain dfg
              mrrg
          in
          let time explain =
            let t0 = Deadline.now () in
            for _ = 1 to reps do
              ignore (once explain)
            done;
            Deadline.elapsed_of ~start:t0 /. float_of_int reps
          in
          let plain = time false in
          let explained = time true in
          (match once true with
          | IM.Infeasible { IM.diagnosis = Some d; _ } ->
              Printf.printf "  %-10s ii%-3d %9.3fs %9.3fs %8.2fx %6d %10b %9d\n%!" bench ii
                plain explained
                (if plain > 0.0 then explained /. plain else 0.0)
                (List.length d.IM.core) d.IM.core_minimized d.IM.core_sat_calls
          | IM.Infeasible { IM.diagnosis = None; _ } ->
              Printf.printf "  %-10s ii%-3d core extraction hit the deadline\n%!" bench ii
          | IM.Mapped _ | IM.Timeout _ ->
              Printf.printf "  %-10s ii%-3d not an infeasible cell — skipped\n%!" bench ii))
    [ ("mac", 1); ("exp_4", 1); ("mac", 2) ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Cross-check: native exact engine vs an external MILP backend        *)
(* ------------------------------------------------------------------ *)

(* A restricted grid — one architecture, a handful of benchmarks, both
   context counts — solved twice: once natively, once through an
   external backend's LP-file round trip.  Prints both verdicts and
   wall clocks side by side; any contradiction exits 5.  When the
   solver binary is simply not installed the whole section degrades to
   a logged skip, because a benchmark must run everywhere. *)
let run_crosscheck opts =
  let module Backend = Cgra_backend.Backend in
  let module Solver_spec = Cgra_core.Solver_spec in
  Printf.printf "== Cross-check: native-sat vs %s (%dx%d, limit %.0fs) ==\n" opts.backend
    opts.size opts.size opts.limit;
  match Solver_spec.of_name opts.backend with
  | Error msg ->
      Printf.eprintf "crosscheck: %s\n%!" msg;
      exit 2
  | Ok solver -> (
      let available =
        match solver.Solver_spec.engine with
        | Solver_spec.External b -> b.Backend.available ()
        | Solver_spec.Native _ -> Backend.Available { version = None }
      in
      match available with
      | Backend.Unavailable reason ->
          Printf.printf "crosscheck: skipped — backend %s unavailable (%s)\n\n%!" opts.backend
            reason
      | Backend.Available { version } ->
          Printf.printf "backend %s: %s\n" opts.backend
            (Option.value ~default:"version unknown" version);
          let benchmarks =
            match opts.benchmarks with [] -> [ "accum"; "mac"; "2x2-f"; "exp_4" ] | bs -> bs
          in
          let jobs =
            Sweep_job.paper_grid ~size:opts.size ~contexts:[ 1; 2 ] ~limit:opts.limit
              ~benchmarks ~archs:[ "homo-orth" ] ()
          in
          Printf.printf "  %-28s %-12s %8s   %-12s %8s\n" "cell" "native" "sec" opts.backend
            "sec";
          let disagreements = ref 0 in
          List.iter
            (fun job ->
              let native = Sweep_runner.run job in
              let ext =
                Sweep_runner.run_variant (Sweep_runner.variant solver) job
              in
              let agreed =
                Sweep_record.verdicts_agree ~status:native.Sweep_record.status
                  ~objective:native.Sweep_record.objective ~status2:ext.Sweep_record.status
                  ~objective2:ext.Sweep_record.objective
              in
              if not agreed then incr disagreements;
              Printf.printf "  %-28s %-12s %7.2fs   %-12s %7.2fs%s\n%!"
                (Sweep_job.to_string job)
                (Sweep_record.status_to_string native.Sweep_record.status)
                native.Sweep_record.total_seconds
                (Sweep_record.status_to_string ext.Sweep_record.status)
                ext.Sweep_record.total_seconds
                (if agreed then "" else "   ** DISAGREEMENT **"))
            jobs;
          print_newline ();
          if !disagreements > 0 then begin
            Printf.eprintf "crosscheck: %d disagreement(s) between native-sat and %s\n%!"
              !disagreements opts.backend;
            exit 5
          end)

(* ------------------------------------------------------------------ *)
(* serve: daemon latency, cold vs warm                                 *)
(* ------------------------------------------------------------------ *)

module Serve_protocol = Cgra_serve.Protocol
module Serve_server = Cgra_serve.Server
module Serve_client = Cgra_serve.Client

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (Float.of_int (n - 1) *. p) in
      sorted.(max 0 (min (n - 1) idx))

let run_serve opts =
  Printf.printf "== serve: daemon latency, cold vs warm (size %d) ==\n%!" opts.size;
  let socket = Printf.sprintf "/tmp/cgra-bench-serve-%d.sock" (Unix.getpid ()) in
  let config =
    { Serve_server.default_config with Serve_server.socket_path = socket; pool_size = 2 }
  in
  let server = Domain.spawn (fun () -> Serve_server.run config) in
  let rec await tries =
    if tries = 0 then failwith "daemon socket never appeared"
    else if not (Sys.file_exists socket) then begin
      Unix.sleepf 0.05;
      await (tries - 1)
    end
  in
  await 100;
  let request =
    {
      Serve_protocol.id = None;
      payload =
        Serve_protocol.Map
          {
            Serve_protocol.benchmark = "mac";
            dfg_text = None;
            arch = "homo-orth";
            adl_text = None;
            size = opts.size;
            contexts = 1;
            limit = opts.limit;
            optimize = false;
            certify = false;
            explain = false;
            backend = None;
          };
    }
  in
  let client =
    match Serve_client.connect ~socket with Ok c -> c | Error e -> failwith e
  in
  let roundtrip () =
    let t0 = Deadline.now () in
    match Serve_client.roundtrip client request with
    | Ok { Serve_protocol.reply = Serve_protocol.Verdict v; _ } ->
        (Deadline.elapsed_of ~start:t0, v)
    | Ok _ -> failwith "unexpected daemon reply"
    | Error e -> failwith e
  in
  let cold_seconds, cold_verdict = roundtrip () in
  if cold_verdict.Serve_protocol.provenance.Serve_protocol.cache_hit then
    failwith "first request reported a cache hit";
  let repeats = 20 in
  let warm = Array.init repeats (fun _ -> roundtrip ()) in
  Array.iter
    (fun (_, (v : Serve_protocol.verdict)) ->
      if v.Serve_protocol.status <> cold_verdict.Serve_protocol.status then
        failwith "warm verdict disagrees with cold verdict";
      if not v.Serve_protocol.provenance.Serve_protocol.cache_hit then
        failwith "warm request missed the encoding cache")
    warm;
  let latencies = Array.map fst warm in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.50 and p95 = percentile latencies 0.95 in
  let speedup = if p50 > 0.0 then cold_seconds /. p50 else infinity in
  let stats =
    match
      Serve_client.roundtrip client { Serve_protocol.id = None; payload = Serve_protocol.Stats }
    with
    | Ok { Serve_protocol.reply = Serve_protocol.Stats_reply s; _ } -> s
    | Ok _ | Error _ -> failwith "stats request failed"
  in
  let hit_rate =
    let hits = float_of_int stats.Serve_protocol.session_hits in
    let total = hits +. float_of_int stats.Serve_protocol.session_misses in
    if total > 0.0 then hits /. total else 0.0
  in
  ignore
    (Serve_client.roundtrip client { Serve_protocol.id = None; payload = Serve_protocol.Shutdown });
  Serve_client.close client;
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> failwith ("daemon failed: " ^ e));
  Printf.printf "  cold request:        %8.4fs (status %s)\n" cold_seconds
    cold_verdict.Serve_protocol.status;
  Printf.printf "  warm p50 / p95:      %8.5fs / %.5fs over %d repeats\n" p50 p95 repeats;
  Printf.printf "  cold/warm speedup:   %8.1fx\n" speedup;
  Printf.printf "  session cache hits:  %d/%d (rate %.2f)\n" stats.Serve_protocol.session_hits
    (stats.Serve_protocol.session_hits + stats.Serve_protocol.session_misses)
    hit_rate;
  record_bench_run ~name:"serve"
    (Jsonl.Obj
       [
         ("unix_time", Jsonl.Num (Unix.gettimeofday ()));
         ("benchmark", Jsonl.Str "mac");
         ("arch", Jsonl.Str "homo-orth");
         ("size", Jsonl.Num (float_of_int opts.size));
         ("contexts", Jsonl.Num 1.0);
         ("repeats", Jsonl.Num (float_of_int repeats));
         ("cold_seconds", Jsonl.Num cold_seconds);
         ("warm_p50_seconds", Jsonl.Num p50);
         ("warm_p95_seconds", Jsonl.Num p95);
         ("speedup", Jsonl.Num speedup);
         ("cache_hit_rate", Jsonl.Num hit_rate);
         ("warm_starts", Jsonl.Num (float_of_int stats.Serve_protocol.warm_starts));
       ]);
  if speedup < 1.5 then begin
    Printf.eprintf
      "serve: warm path only %.2fx faster than cold — resident caching is not paying off\n"
      speedup;
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* arch-scale: pipeline cost vs array size                             *)
(* ------------------------------------------------------------------ *)

module Topology = Cgra_arch.Topology

(* Elaboration, encoding and solving cost as the array grows from the
   paper's 4x4 to 16x16, mesh vs torus.  Elaboration and encoding are
   measured at every size (best of 3 — elaboration via the profiled
   hook, encoding via [Formulation.build_profiled]); solving runs up to
   4x4 — beyond that the point is the scaling curve, not the verdict.
   Two gates compare 8x8 mesh against the previous journaled run: a
   >2x regression of either elaboration or encode time fails the
   build. *)
let archscale_gate = 2.0

let archscale_baseline ~field () =
  (* last journaled run's 8x8 mesh value of [field] (in seconds) *)
  match List.rev (previous_bench_runs ~name:"archscale") with
  | [] -> None
  | last :: _ -> (
      match Jsonl.member "rows" last with
      | Some (Jsonl.List rows) ->
          List.find_map
            (fun row ->
              match
                (Jsonl.member "size" row, Jsonl.member "topology" row,
                 Jsonl.member field row)
              with
              | Some (Jsonl.Num 8.0), Some (Jsonl.Str "mesh"), Some (Jsonl.Num s) -> Some s
              | _ -> None)
            rows
      | _ -> None)

let run_archscale opts =
  Printf.printf "== arch-scale: elaborate/encode/solve cost vs array size ==\n";
  let dfg =
    match Benchmarks.by_name "mac" with
    | Some d -> d
    | None -> failwith "bench archscale: mac benchmark missing"
  in
  let best_of n f =
    let best = ref infinity and keep = ref None in
    for _ = 1 to n do
      let dt, v = f () in
      if dt < !best then begin
        best := dt;
        keep := Some v
      end
    done;
    (!best, Option.get !keep)
  in
  Printf.printf "  %-8s %-6s %12s %10s %10s %12s %10s\n" "topology" "size" "elaborate"
    "nodes" "edges" "encode" "solve";
  let gate_current = ref None in
  let encode_current = ref None in
  let rows =
    List.concat_map
      (fun topology ->
        List.map
          (fun size ->
            let config =
              { Lib.rows = size; cols = size; topology; fu_mix = Lib.Homogeneous;
                route = Lib.Direct }
            in
            let arch = Lib.make config in
            let elab_seconds, (profile : Build.profile) =
              best_of 3 (fun () ->
                  let _, p = Build.elaborate_profiled arch ~ii:1 in
                  (p.Build.total_seconds, p))
            in
            if size = 8 && topology = Topology.Mesh then gate_current := Some elab_seconds;
            let mrrg = Build.elaborate arch ~ii:1 in
            (* best of 3, like elaboration: the encode gate compares
               journaled runs across commits, so the number must
               measure the builder, not the machine's load spikes.
               One untimed warmup build extends the major heap to this
               size's footprint (first touch of fresh pages is an OS
               cost, not a builder cost), then the heap is stabilized —
               by this point the run has built models at every smaller
               size, and paying their collection debt inside the timed
               region would charge this builder for that garbage. *)
            ignore (Formulation.build ~objective:Formulation.Feasibility dfg mrrg);
            Gc.full_major ();
            let encode_seconds, (f, (encode_profile : Formulation.profile)) =
              best_of 3 (fun () ->
                  let f, p =
                    Formulation.build_profiled ~objective:Formulation.Feasibility dfg mrrg
                  in
                  (p.Formulation.total_seconds, (f, p)))
            in
            let model_rows = (Formulation.size f).Formulation.n_rows in
            if size = 8 && topology = Topology.Mesh then encode_current := Some encode_seconds;
            let solve =
              if size <= 4 then begin
                let t0 = Deadline.now () in
                let result =
                  IM.map ~warm_start:0.0
                    ~deadline:(Deadline.after ~seconds:opts.limit)
                    dfg mrrg
                in
                let dt = Deadline.elapsed_of ~start:t0 in
                let status =
                  match result with
                  | IM.Mapped _ -> "feasible"
                  | IM.Infeasible _ -> "infeasible"
                  | IM.Timeout _ -> "timeout"
                in
                Some (dt, status)
              end
              else None
            in
            Printf.printf "  %-8s %-6s %11.1fms %10d %10d %11.1fms %10s\n%!"
              (Topology.to_string topology)
              (Printf.sprintf "%dx%d" size size)
              (1000.0 *. elab_seconds) profile.Build.n_nodes profile.Build.n_edges
              (1000.0 *. encode_seconds)
              (match solve with
              | Some (dt, status) -> Printf.sprintf "%s %.1fs" status dt
              | None -> "-");
            Jsonl.Obj
              (List.concat
                 [
                   [
                     ("size", Jsonl.Num (float_of_int size));
                     ("topology", Jsonl.Str (Topology.to_string topology));
                     ("elaborate_seconds", Jsonl.Num elab_seconds);
                     ("instance_seconds", Jsonl.Num profile.Build.instance_seconds);
                     ("wire_seconds", Jsonl.Num profile.Build.wire_seconds);
                     ("nodes", Jsonl.Num (float_of_int profile.Build.n_nodes));
                     ("edges", Jsonl.Num (float_of_int profile.Build.n_edges));
                     ("encode_seconds", Jsonl.Num encode_seconds);
                     ("model_rows", Jsonl.Num (float_of_int model_rows));
                     ( "encode_phases",
                       Jsonl.Obj
                         (List.map
                            (fun (k, s) -> (k, Jsonl.Num s))
                            (Formulation.profile_fields encode_profile)) );
                   ];
                   (match solve with
                   | Some (dt, status) ->
                       [
                         ("solve_seconds", Jsonl.Num dt);
                         ("solve_status", Jsonl.Str status);
                         ("solve_budget_seconds", Jsonl.Num opts.limit);
                       ]
                   | None -> []);
                 ]))
          [ 2; 4; 8; 16 ])
      [ Topology.Mesh; Topology.Torus ]
  in
  let elab_baseline = archscale_baseline ~field:"elaborate_seconds" () in
  let encode_baseline = archscale_baseline ~field:"encode_seconds" () in
  record_bench_run ~name:"archscale"
    (Jsonl.Obj
       [
         ("unix_time", Jsonl.Num (Unix.gettimeofday ()));
         ("benchmark", Jsonl.Str "mac");
         ("gate", Jsonl.Num archscale_gate);
         ("rows", Jsonl.List rows);
       ]);
  let gate what baseline current =
    match (baseline, current) with
    | Some base, Some current ->
        Printf.printf "  gate: 8x8 mesh %s %.1fms vs journaled %.1fms (limit %.1fx)\n%!" what
          (1000.0 *. current) (1000.0 *. base) archscale_gate;
        if current > archscale_gate *. base then begin
          Printf.eprintf
            "archscale: 8x8 %s regressed %.2fx over the journaled baseline (%.1fms -> %.1fms, \
             gate %.1fx)\n%!"
            what (current /. base) (1000.0 *. base) (1000.0 *. current) archscale_gate;
          exit 1
        end
    | None, _ ->
        Printf.printf
          "  gate: no journaled %s baseline yet — this run seeds BENCH_archscale.json\n%!" what
    | _, None -> ()
  in
  gate "elaboration" elab_baseline !gate_current;
  gate "encode" encode_baseline !encode_current;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Formulation A/B: paper per-edge model vs connectivity model         *)
(* ------------------------------------------------------------------ *)

(* The two formulations answer the same feasibility question from
   different constraint structures, so every cell both decide must get
   the same verdict (exit 3 on a flip — that is a soundness bug, not a
   performance regression).  The gate bounds conn's encode blowup
   instead of its solve time: the row count must stay within
   [conn_gate]x the paper formulation's on every cell, a deterministic
   tripwire for corridor-pruning regressions that CI timing noise
   cannot trip. *)
let conn_gate = 8.0

let run_conn opts =
  let module Solve = Cgra_ilp.Solve in
  let module FI = Cgra_core.Formulation_intf in
  Cgra_conn.Conn.ensure_registered ();
  Printf.printf "== Formulation A/B: paper vs conn (limit %.0fs) ==\n" opts.limit;
  let impl name =
    match FI.find name with
    | Some impl -> impl
    | None -> failwith (Printf.sprintf "bench conn: formulation %S not registered" name)
  in
  let paper = impl FI.default_name and conn = impl Cgra_conn.Conn.formulation_name in
  (* feasible and infeasible cells, both context counts; the 2x2 mac
     cell keeps an unsat verdict in the agreement check *)
  let cells =
    [
      ("mac", "homo-orth", 2, 1); ("mac", "homo-orth", 4, 1);
      ("mac", "hetero-orth", 4, 1); ("2x2-f", "homo-diag", 4, 1);
      ("accum", "homo-orth", 4, 1); ("2x2-f", "homo-orth", 2, 2);
    ]
  in
  let status = function
    | Solve.Optimal _ | Solve.Feasible _ -> "sat"
    | Solve.Infeasible -> "unsat"
    | Solve.Timeout -> "TO"
  in
  let measure (impl : FI.impl) dfg mrrg =
    let t0 = Deadline.now () in
    let f = impl.FI.build ~objective:Formulation.Feasibility dfg mrrg in
    let encode_seconds = Deadline.elapsed_of ~start:t0 in
    let report =
      Solve.solve_report ~deadline:(Deadline.after ~seconds:opts.limit) f.FI.model
    in
    (f.FI.size, encode_seconds, report)
  in
  Printf.printf "  %-24s %-6s %16s %16s %18s\n" "cell" "status" "rows paper/conn"
    "enc paper/conn" "solve paper/conn";
  let gate_failed = ref false in
  let rows =
    List.filter_map
      (fun (bench, arch_name, size, ii) ->
        match (Benchmarks.by_name bench, Lib.find_config ~size arch_name) with
        | None, _ | _, None ->
            Printf.printf "  %-24s unknown cell — skipped\n" bench;
            None
        | Some dfg, Some config ->
            let mrrg = Build.elaborate (Lib.make config) ~ii in
            let p_size, p_encode, p_report = measure paper dfg mrrg in
            let c_size, c_encode, c_report = measure conn dfg mrrg in
            let p_status = status p_report.Solve.outcome
            and c_status = status c_report.Solve.outcome in
            let cell = Printf.sprintf "%s/%s/ii%d" bench arch_name ii in
            if p_status <> "TO" && c_status <> "TO" && p_status <> c_status then begin
              Printf.eprintf "conn: %s verdict flipped across formulations (%s vs %s)\n%!"
                cell p_status c_status;
              exit 3
            end;
            let blowup =
              float_of_int c_size.Formulation.n_rows
              /. float_of_int (max 1 p_size.Formulation.n_rows)
            in
            if blowup > conn_gate then gate_failed := true;
            Printf.printf "  %-24s %-6s %7d/%8d %7.0f/%5.0fms %8.0f/%7.0fms\n%!" cell
              c_status p_size.Formulation.n_rows c_size.Formulation.n_rows
              (1000.0 *. p_encode) (1000.0 *. c_encode)
              (1000.0 *. p_report.Solve.solve_seconds)
              (1000.0 *. c_report.Solve.solve_seconds);
            let vars (s : Formulation.size) = s.Formulation.n_f + s.Formulation.n_r + s.Formulation.n_rk in
            Some
              (Jsonl.Obj
                 [
                   ("benchmark", Jsonl.Str bench);
                   ("arch", Jsonl.Str arch_name);
                   ("size", Jsonl.Num (float_of_int size));
                   ("contexts", Jsonl.Num (float_of_int ii));
                   ("status", Jsonl.Str c_status);
                   ("paper_rows", Jsonl.Num (float_of_int p_size.Formulation.n_rows));
                   ("paper_vars", Jsonl.Num (float_of_int (vars p_size)));
                   ("paper_encode_seconds", Jsonl.Num p_encode);
                   ("paper_solve_seconds", Jsonl.Num p_report.Solve.solve_seconds);
                   ("conn_rows", Jsonl.Num (float_of_int c_size.Formulation.n_rows));
                   ("conn_vars", Jsonl.Num (float_of_int (vars c_size)));
                   ("conn_encode_seconds", Jsonl.Num c_encode);
                   ("conn_solve_seconds", Jsonl.Num c_report.Solve.solve_seconds);
                   ("row_blowup", Jsonl.Num blowup);
                 ]))
      cells
  in
  record_bench_run ~name:"conn"
    (Jsonl.Obj
       [
         ("unix_time", Jsonl.Num (Unix.gettimeofday ()));
         ("gate", Jsonl.Num conn_gate);
         ("cells", Jsonl.List rows);
       ]);
  if !gate_failed then begin
    Printf.eprintf "conn: a cell's row count blew past %.1fx the paper formulation's\n%!"
      conn_gate;
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let parse_args () =
  let opts = ref default_options in
  let cmds = ref [] in
  let rec go = function
    | [] -> ()
    | "--limit" :: v :: rest ->
        opts := { !opts with limit = float_of_string v };
        go rest
    | "--size" :: v :: rest ->
        opts := { !opts with size = int_of_string v };
        go rest
    | "--benchmark" :: v :: rest ->
        opts := { !opts with benchmarks = v :: !opts.benchmarks };
        go rest
    | "--seeds" :: v :: rest ->
        opts := { !opts with seeds = int_of_string v };
        go rest
    | "--jobs" :: v :: rest ->
        opts := { !opts with jobs = int_of_string v };
        go rest
    | "--journal" :: v :: rest ->
        opts := { !opts with journal = v };
        go rest
    | "--backend" :: v :: rest ->
        opts := { !opts with backend = v };
        go rest
    | cmd :: rest ->
        cmds := cmd :: !cmds;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (!opts, List.rev !cmds)

let () =
  let opts, cmds = parse_args () in
  let cmds = if cmds = [] then [ "all" ] else cmds in
  List.iter
    (function
      | "table1" -> run_table1 opts
      | "table2" -> run_table2 opts
      | "fig8" -> run_fig8 opts
      | "sizes" -> run_sizes opts
      | "ablation" -> run_ablation opts
      | "sweep" -> run_sweep_scaling opts
      | "certify" -> run_certify opts
      | "inprocess" -> run_inprocess opts
      | "explain" -> run_explain opts
      | "conn" -> run_conn opts
      | "crosscheck" -> run_crosscheck opts
      | "serve" -> run_serve opts
      | "archscale" | "arch-scale" -> run_archscale opts
      | "all" ->
          run_table1 opts;
          run_table2 opts;
          run_fig8 opts
      | other ->
          Printf.eprintf "unknown subcommand %S\n" other;
          exit 2)
    cmds
