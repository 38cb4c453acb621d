(* One workload, run in its own process: either the timed loop
   (an untraced warm-up pass, then end-to-end metrics with tracing off
   and set-up probes between queries) or the traced phase (per-layer
   metrics).  Inputs
   depend only on the seed: it orders each pass and the serve request
   stream. *)

module Rng = Cgra_util.Rng

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

type config = {
  workload : Corpus.workload;
  seed : int;
  seconds : float;  (** measured time, rounded to whole passes *)
  smoke : bool;
      (** the first cell of each verdict only, one pass, no warm-up, one set-up probe *)
}

type report = {
  metrics : metric list;
  attempted : int;
  failures : string list;  (** ["<cell>: <reason>"], one per failed query *)
  traces : Span.query list;
}

(* Every judged query, warm-up included, lands here. *)
type tally = { mutable judged : int; mutable failed : string list }

let judge tally label (o : Query.outcome) =
  tally.judged <- tally.judged + 1;
  match o with Ok _ -> () | Error e -> tally.failed <- (label ^ ": " ^ e) :: tally.failed

let cells cfg =
  let cells = cfg.workload.Corpus.cells in
  if not cfg.smoke then cells
  else
    List.filter_map
      (fun v -> List.find_opt (fun c -> c.Corpus.expect = v) cells)
      [ Corpus.Infeasible; Corpus.Feasible ]

let certify cfg = cfg.workload.Corpus.kind = Corpus.Certify_explain

let shuffled rng cells =
  let a = Array.of_list cells in
  Rng.shuffle rng a;
  Array.to_list a

(* Run [pass] until [seconds] are spent, to the nearest half pass, and
   at least [min] times. *)
let repeat ~seconds ~min pass =
  let t0 = Unix.gettimeofday () in
  let rec go n =
    pass ();
    let n = n + 1 in
    let elapsed = Unix.gettimeofday () -. t0 in
    if n < min || elapsed +. (elapsed /. float_of_int n /. 2.0) <= seconds then go n
  in
  go 0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %f kB" Fun.id with
            | Some kb -> kb /. 1024.0
            | None -> find ())
      in
      find ())

let mib bytes = bytes /. 1048576.0

(* ---------------- set-up ---------------- *)

(* What a fresh process does before its first query: build the corpus
   (module initialisation) and, for serve-mixed, start the daemon and
   wait for it to answer [ping].  The probe prints "ready" at that
   point; a daemon is then shut down before the probe exits. *)
let setup_probe (w : Corpus.workload) =
  let ready () = print_endline "ready" in
  match w.Corpus.kind with
  | Corpus.Serve -> Daemon.with_daemon (fun _ -> ready ())
  | Corpus.One_shot | Corpus.Certify_explain -> ready ()

(* Seconds from spawning a probe process to its "ready". *)
let setup_seconds (w : Corpus.workload) =
  let exe = Sys.executable_name in
  let r, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process exe [| exe; "--setup-probe"; w.Corpus.name |] Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let seconds = Unix.gettimeofday () -. t0 in
  close_in ic;
  match (line, snd (Unix.waitpid [] pid)) with
  | Some "ready", Unix.WEXITED 0 -> seconds
  | _ -> failwith "set-up probe failed"

(* ---------------- untraced passes ---------------- *)

(* [ok]: the query passed the oracle.  Only those are timed. *)
type sample = { label : string; start : float; seconds : float; ok : bool }

(* One pass of one-shot queries in seeded order.  Each query starts
   after a full major collection, as a [cgra_map map] process starts
   with an empty heap, so the seeded order cannot shift GC work from
   one query to the next.  [between], in the timed loop, runs before
   each query. *)
let one_shot_pass ?between cfg tally rng =
  List.map
    (fun c ->
      let label = Corpus.label c in
      Option.iter (fun f -> f ()) between;
      Gc.full_major ();
      let start = Unix.gettimeofday () in
      let seconds, o = Query.timed ~certify:(certify cfg) c in
      judge tally label o;
      { label; start; seconds; ok = Result.is_ok o })
    (shuffled rng (cells cfg))

let serve_pass ?between cfg tally rng =
  Gc.full_major ();
  let p = Daemon.pass ?between (Daemon.sequence rng (cells cfg)) in
  List.iter
    (fun (s : Daemon.served) -> judge tally (Corpus.label s.Daemon.cell) s.Daemon.outcome)
    p.Daemon.served;
  p

let rate num den = if den > 0.0 then num /. den else 0.0

(* serve.* metrics: client latency of cold and warm answers, the
   client-side share of each round trip, and the cache tiers' hit
   rates. *)
let serve_metrics (passes : Daemon.pass list) =
  let served = List.concat_map (fun p -> p.Daemon.served) passes in
  let ok = List.filter (fun (s : Daemon.served) -> Result.is_ok s.Daemon.outcome) served in
  let p50 warm =
    match List.filter (fun (s : Daemon.served) -> s.Daemon.warm = warm) ok with
    | [] -> []
    | xs -> [ Stats.quantile 0.5 (List.map (fun (s : Daemon.served) -> s.Daemon.seconds) xs) ]
  in
  let stats = List.filter_map (fun p -> p.Daemon.stats) passes in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let module P = Cgra_serve.Protocol in
  List.concat
    [
      List.map (fun v -> metric "serve.cold_p50_s" v "s") (p50 false);
      List.map (fun v -> metric "serve.warm_p50_s" v "s") (p50 true);
      (match ok with
      | [] -> []
      | _ ->
          [
            metric "serve.transport_s"
              (Stats.median (List.map (fun (s : Daemon.served) -> s.Daemon.transport) ok))
              "s";
          ]);
      [
        metric "serve.session_hit_rate"
          (rate (sum (fun s -> s.P.session_hits))
             (sum (fun s -> s.P.session_hits + s.P.session_misses)))
          "ratio";
        metric "serve.mrrg_hit_rate"
          (rate (sum (fun s -> s.P.mrrg_hits)) (sum (fun s -> s.P.mrrg_hits + s.P.mrrg_misses)))
          "ratio";
      ];
    ]

(* ---------------- end-to-end: the timed loop ---------------- *)

(* The untimed warm-up pass visits the pool in one fixed order and runs
   no reference kernel, whose runs depend on the clock.  The process
   then does the same work on every run, so its peak resident memory,
   read right after this pass, depends neither on the seed nor on the
   host. *)
let warm_up cfg tally =
  let fixed = Rng.create ~seed:0 in
  match cfg.workload.Corpus.kind with
  | Corpus.One_shot | Corpus.Certify_explain -> ignore (one_shot_pass cfg tally fixed)
  | Corpus.Serve -> ignore (serve_pass cfg tally fixed)

(* Set-up probes run in the timed loop, at most one a second, so that
   their median samples the host across the whole run: within one
   second, back-to-back probes read a single moment of a host whose
   speed swings by half within seconds. *)
let probe_interval = 1.0

let end_to_end cfg =
  let tally = { judged = 0; failed = [] } in
  warm_up cfg tally;
  let peak = peak_rss_mb () in
  let rng = Rng.create ~seed:cfg.seed in
  let meter = Yardstick.create () in
  let probes = ref [] and last_probe = ref neg_infinity in
  let between () =
    if Unix.gettimeofday () -. !last_probe >= probe_interval then begin
      probes := setup_seconds cfg.workload :: !probes;
      last_probe := Unix.gettimeofday ()
    end;
    Yardstick.tick meter
  in
  let samples = ref [] and passes = ref 0 and extra = ref [] in
  (match cfg.workload.Corpus.kind with
  | Corpus.One_shot | Corpus.Certify_explain ->
      repeat ~seconds:cfg.seconds ~min:1 (fun () ->
          incr passes;
          samples := one_shot_pass ~between cfg tally rng @ !samples)
  | Corpus.Serve ->
      let served = ref [] in
      repeat ~seconds:cfg.seconds ~min:1 (fun () ->
          incr passes;
          let p = serve_pass ~between cfg tally rng in
          served := p :: !served;
          samples :=
            List.map
              (fun (s : Daemon.served) ->
                {
                  label = Corpus.label s.Daemon.cell;
                  start = s.Daemon.start;
                  seconds = s.Daemon.seconds;
                  ok = Result.is_ok s.Daemon.outcome;
                })
              p.Daemon.served
            @ !samples);
      extra := serve_metrics !served);
  Yardstick.mark meter;
  (* Each timed query as (sample, its cost in kernel runs).  Latencies
     count the queries that passed the oracle; throughput divides them
     by the time of all timed queries, failed ones included. *)
  let costs =
    List.map
      (fun s -> (s, s.seconds /. Yardstick.around meter ~start:s.start ~stop:(s.start +. s.seconds)))
      !samples
  in
  let passed f = List.filter_map (fun (s, r) -> if s.ok then Some (f s r) else None) costs in
  let total f = List.fold_left (fun a (s, r) -> a +. f s r) 0.0 costs in
  let refs = passed (fun _ r -> r) and secs = passed (fun s _ -> s.seconds) in
  let n = float_of_int (List.length refs) in
  {
    metrics =
      [
        metric "query_p50_ref" (Stats.quantile 0.5 refs) "ref";
        metric "query_p90_ref" (Stats.quantile 0.9 refs) "ref";
        metric "queries_per_kref" (1000.0 *. rate n (total (fun _ r -> r))) "1/kref";
        metric "query_p50_s" (Stats.quantile 0.5 secs) "s";
        metric "query_p90_s" (Stats.quantile 0.9 secs) "s";
        metric "queries_per_s" (rate n (total (fun s _ -> s.seconds))) "1/s";
        metric "ref_kernel_s" (Yardstick.median_seconds meter) "s";
        metric "failed_frac"
          (rate (float_of_int (List.length tally.failed)) (float_of_int tally.judged))
          "ratio";
        metric "setup_s" (Stats.median !probes) "s";
        metric "setup_probes" (float_of_int (List.length !probes)) "count";
        metric "peak_rss_mb" peak "MB";
        metric "timed_queries" n "count";
        metric "timed_passes" (float_of_int !passes) "count";
      ]
      @ !extra;
    attempted = tally.judged;
    failures = List.rev tally.failed;
    traces = [];
  }

(* ---------------- per-layer: the traced phase ---------------- *)

let spans =
  [
    "library.make";
    "build.elaborate";
    "formulation.build";
    "presolve.run";
    "proof.create";
    "encode.clausify";
    "solver.search";
    "extract.run";
    "check.run";
    "drat.check";
    "unsat_core.extract";
    "unsat_core.check";
  ]

let layers =
  List.fold_left
    (fun acc n ->
      let l = Span.layer_of n in
      if List.mem l acc then acc else acc @ [ l ])
    [] spans

(* (span, counter, unit); the metric is "<layer>.<counter>". *)
let counters =
  [
    ("build.elaborate", "mrrg_nodes", "count");
    ("formulation.build", "rows", "count");
    ("presolve.run", "fixed_frac", "ratio");
    ("encode.clausify", "clauses", "count");
    ("solver.search", "conflicts", "count");
    ("solver.search", "restarts", "count");
    ("solver.search", "probed_failed", "count");
    ("solver.search", "subsumed", "count");
    ("solver.search", "eliminated", "count");
    ("solver.search", "substituted", "count");
    ("solver.search", "strengthened", "count");
    ("drat.check", "proof_steps", "count");
    ("unsat_core.extract", "sat_calls", "count");
    ("unsat_core.extract", "core_groups", "count");
  ]

(* For each query that ran a matching span, [f] summed over those spans. *)
let per_query keep f (qs : Span.query list) =
  List.filter_map
    (fun q ->
      match List.filter keep q.Span.spans with
      | [] -> None
      | ss -> Some (List.fold_left (fun a s -> a +. f s) 0.0 ss))
    qs

let named n (s : Span.t) = s.Span.name = n
let in_layer l s = Span.layer s = l

(* Traced over untraced query time, minus one: the median over cells of
   the ratio of each cell's median times.  Per cell, because a pooled
   median of a bimodal pool jumps between its modes. *)
let overhead traced (untraced : sample list) =
  let median_of label xs =
    Stats.median (List.filter_map (fun (l, v) -> if l = label then Some v else None) xs)
  in
  let untraced = List.filter_map (fun s -> if s.ok then Some (s.label, s.seconds) else None) untraced in
  let labels = List.sort_uniq compare (List.map fst traced) in
  Stats.median
    (List.map (fun l -> rate (median_of l traced) (median_of l untraced)) labels)
  -. 1.0

(* Times and allocation are medians per query over the queries that ran
   the span or layer; a layer that never ran reports no time and zero
   counts and share. *)
let layer_metrics (qs : Span.query list) ~untraced =
  let counter key (s : Span.t) = Option.value (List.assoc_opt key s.Span.counters) ~default:0.0 in
  let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs in
  let wall = List.fold_left (fun a q -> a +. q.Span.wall) 0.0 qs in
  let total keep = List.fold_left ( +. ) 0.0 (per_query keep (fun s -> s.Span.seconds) qs) in
  List.concat
    [
      List.concat_map
        (fun n ->
          match per_query (named n) (fun s -> s.Span.seconds) qs with
          | [] -> []
          | xs -> [ metric (n ^ "_s") (Stats.median xs) "s" ])
        spans;
      List.map
        (fun (n, key, unit_) ->
          metric
            (Span.layer_of n ^ "." ^ key)
            (median_or_zero (per_query (named n) (counter key) qs))
            unit_)
        counters;
      (let searches =
         List.filter_map
           (fun q ->
             match List.find_opt (named "solver.search") q.Span.spans with
             | Some s when s.Span.seconds > 0.0 -> Some (counter "propagations" s /. s.Span.seconds)
             | _ -> None)
           qs
       in
       [ metric "solver.propagations_per_s" (median_or_zero searches) "1/s" ]);
      List.concat_map
        (fun l ->
          match per_query (in_layer l) (fun s -> s.Span.alloc_bytes) qs with
          | [] -> []
          | xs -> [ metric (l ^ ".alloc_mb") (mib (Stats.median xs)) "MB" ])
        layers;
      List.map (fun l -> metric (l ^ ".share") (rate (total (in_layer l)) wall) "ratio") layers;
      [
        metric "gc.alloc_mb"
          (mib (median_or_zero (List.map (fun q -> q.Span.q_alloc_bytes) qs)))
          "MB";
        metric "gc.major_collections"
          (Stats.mean (List.map (fun q -> float_of_int q.Span.q_majors) qs))
          "count";
        metric "trace.coverage" (rate (total (fun _ -> true)) wall) "ratio";
        metric "trace.overhead_frac"
          (overhead (List.map (fun q -> (q.Span.cell, q.Span.wall)) qs) untraced)
          "ratio";
      ];
    ]

(* Session cold path vs one-shot, on every cell serve-mixed sends. *)
let session_metrics cfg tally =
  let rows =
    List.map
      (fun c ->
        let session, oneshot, o = Daemon.cold_vs_oneshot c in
        judge tally (Corpus.label c) o;
        (session, oneshot))
      (cells cfg)
  in
  [
    metric "session.cold_solve_s" (Stats.median (List.map fst rows)) "s";
    metric "session.cold_over_oneshot"
      (Stats.median (List.map (fun (s, o) -> rate s o) rows))
      "ratio";
  ]

let traced cfg =
  let tally = { judged = 0; failed = [] } in
  let rng = Rng.create ~seed:cfg.seed in
  let certify = certify cfg in
  let t0 = Unix.gettimeofday () in
  let extra =
    match cfg.workload.Corpus.kind with
    | Corpus.Serve -> session_metrics cfg tally
    | Corpus.One_shot | Corpus.Certify_explain -> []
  in
  (* Each round is an untraced pass, which also warms the traced one up,
     then a traced pass over the same cells. *)
  let untraced = ref [] and traces = ref [] in
  let remaining = cfg.seconds -. (Unix.gettimeofday () -. t0) in
  repeat ~seconds:remaining ~min:(if cfg.smoke then 1 else 2) (fun () ->
      untraced := one_shot_pass cfg tally rng @ !untraced;
      List.iter
        (fun c ->
          Gc.full_major ();
          let q, o = Query.traced ~certify c in
          judge tally q.Span.cell o;
          traces := q :: !traces)
        (shuffled rng (cells cfg)));
  let traces = List.rev !traces in
  {
    metrics = layer_metrics traces ~untraced:!untraced @ extra;
    attempted = tally.judged;
    failures = List.rev tally.failed;
    traces;
  }
