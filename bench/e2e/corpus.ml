(* The benchmark's fixed cell pools, one per workload, and the verdict
   pinned for every cell.  The pins come from cross-checked sweeps (the
   Table-2 agreement grid of test/test_conn.ml and its 2x2 slice) and
   are re-derived by every run: a cell whose verdict differs from its
   pin is a failed query. *)

module Library = Cgra_arch.Library
module Benchmarks = Cgra_dfg.Benchmarks

type verdict = Feasible | Infeasible

let verdict_name = function Feasible -> "feasible" | Infeasible -> "infeasible"

type cell = {
  bench : string;
  arch : string;  (** paper architecture name (sized by [size]) or gallery preset *)
  size : int;
  ii : int;
  expect : verdict;
  dfg : Cgra_dfg.Dfg.t;
  config : Library.config;
}

let label c = Printf.sprintf "%s@%s/ii%d" c.bench (Library.name_of_config c.config) c.ii

let cell (bench, arch, size, ii, expect) =
  let dfg =
    match Benchmarks.by_name bench with
    | Some d -> d
    | None -> invalid_arg ("Corpus: unknown benchmark " ^ bench)
  in
  let config =
    match Library.find_config ~size arch with
    | Some c -> c
    | None -> (
        match Library.find_gallery arch with
        | Some c -> c
        | None -> invalid_arg ("Corpus: unknown architecture " ^ arch))
  in
  { bench; arch; size; ii; expect; dfg; config }

type kind =
  | One_shot  (** plain feasibility queries through [Ilp_mapper.map] *)
  | Certify_explain  (** the same with [~certify:true ~explain:true] *)
  | Serve  (** requests to an in-process daemon from one closed-loop client *)

(* BENCHMARK.json and README.md record why each workload was chosen.
   A one-shot pool has an odd number of cells: a run is whole passes,
   so the median then falls inside one cell's block of the sorted
   times rather than on the step between two cells.  The pools are
   sized so that a run of BENCHMARK.json's run_seconds holds at least
   100 timed queries on a quiet host, except on big-fabric, whose
   cheapest query takes 0.3 s.  big-fabric holds no 16x16 cell: when
   the host slowed an earlier reference kernel (yardstick.ml) twofold,
   the 2x2-f@hetero-dtorus-16x16 query slowed only by a third, so its
   cost in kernel runs moved against the host's speed. *)
type workload = {
  name : string;
  kind : kind;
  cells : cell list;  (** the pool one pass visits, a cheap cell of each verdict first *)
}

let workloads =
  [
    {
      name = "table2-mixed";
      kind = One_shot;
      cells =
        List.map cell
          [
            ("mac", "homo-orth", 4, 1, Feasible);
            ("accum", "homo-orth", 4, 1, Feasible);
            ("mult_10", "homo-orth", 4, 1, Feasible);
            ("exp_4", "homo-orth", 4, 1, Feasible);
            ("add_10", "hetero-diag", 4, 2, Feasible);
            ("mac", "hetero-orth", 4, 2, Feasible);
            ("accum", "hetero-orth", 4, 1, Feasible);
            ("mult_10", "homo-orth", 2, 1, Infeasible);
            ("cos_4", "homo-orth", 2, 2, Infeasible);
            ("tay_4", "homo-orth", 2, 2, Infeasible);
            ("weighted_sum", "homo-orth", 2, 2, Infeasible);
            ("mac", "homo-orth", 2, 2, Infeasible);
            ("weighted_sum", "hetero-orth", 2, 2, Infeasible);
          ];
    };
    {
      name = "big-fabric";
      kind = One_shot;
      cells =
        List.map cell
          [
            ("2x2-f", "homo-dtorus-8x8", 8, 1, Feasible);
            ("2x2-f", "homo-torus-8x8", 8, 1, Feasible);
            ("2x2-f", "homo-diag-8x8", 8, 1, Feasible);
            ("2x2-f", "homo-orth-8x8", 8, 1, Feasible);
            ("2x2-f", "hetero-torus-8x8", 8, 1, Feasible);
            ("2x2-p", "homo-dtorus-8x8", 8, 1, Feasible);
            ("2x2-p", "homo-torus-8x8", 8, 1, Feasible);
          ];
    };
    {
      name = "certify-explain";
      kind = Certify_explain;
      cells =
        List.map cell
          [
            ("2x2-f", "homo-orth", 2, 1, Infeasible);
            ("mac", "homo-orth", 2, 1, Infeasible);
            ("tay_4", "homo-orth", 2, 1, Infeasible);
            ("cos_4", "homo-orth", 2, 1, Infeasible);
            ("add_10", "homo-orth", 2, 1, Infeasible);
            ("extreme", "hetero-orth", 2, 1, Infeasible);
            ("exp_4", "hetero-diag", 2, 2, Infeasible);
            ("cos_4", "hetero-orth", 2, 2, Infeasible);
            ("mult_10", "hetero-orth", 2, 2, Infeasible);
            ("weighted_sum", "hetero-orth", 2, 2, Infeasible);
            ("accum", "hetero-orth", 2, 2, Infeasible);
            ("2x2-p", "homo-diag", 2, 2, Feasible);
            ("2x2-f", "homo-orth", 2, 2, Feasible);
          ];
    };
    {
      name = "serve-mixed";
      kind = Serve;
      cells =
        List.map cell
          ([
             ("2x2-f", "homo-orth", 2, 1, Infeasible);
             ("2x2-f", "homo-orth", 2, 2, Feasible);
             ("2x2-p", "homo-diag", 2, 1, Infeasible);
             ("2x2-p", "homo-diag", 2, 2, Feasible);
             ("cos_4", "homo-orth", 2, 2, Infeasible);
             ("weighted_sum", "homo-orth", 4, 2, Feasible);
             ("mac", "homo-orth", 4, 1, Feasible);
             ("accum", "homo-orth", 4, 1, Feasible);
             ("mult_10", "homo-orth", 4, 1, Feasible);
             ("mac", "hetero-orth", 4, 2, Feasible);
           ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
