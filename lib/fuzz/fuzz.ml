module Rng = Cgra_util.Rng
module Deadline = Cgra_util.Deadline
module Dfg = Cgra_dfg.Dfg
module Benchmarks = Cgra_dfg.Benchmarks
module Generator = Cgra_dfg.Generator
module Arch = Cgra_arch.Arch
module Primitive = Cgra_arch.Primitive
module Library = Cgra_arch.Library
module Topology = Cgra_arch.Topology
module Adl = Cgra_arch.Adl
module Mrrg = Cgra_mrrg.Mrrg
module Build = Cgra_mrrg.Build
module IM = Cgra_core.Ilp_mapper
module Check = Cgra_core.Check
module Formulation = Cgra_core.Formulation
module Lp_format = Cgra_ilp.Lp_format
module Job = Cgra_sweep.Job
module Record = Cgra_sweep.Record
module Runner = Cgra_sweep.Runner
module Conn = Cgra_conn.Conn

(* the conn formulation registers itself at module init; force the
   link so the differential invariant below can find it by name *)
let () = Conn.ensure_registered ()

type kernel = Benchmark of string | Random of int

type sample = { seed : int; config : Library.config; ii : int; kernel : kernel }

type violation = { invariant : string; sample : sample; detail : string }

type report = { samples : int; checks : int; violations : violation list }

let kernel_to_string = function
  | Benchmark name -> name
  | Random seed -> Printf.sprintf "random:%d" seed

let sample_to_string s =
  Printf.sprintf "seed=%d ii=%d kernel=%s %s" s.seed s.ii (kernel_to_string s.kernel)
    (String.trim (Adl.config_to_string s.config))

(* ---------------- sampling ---------------- *)

let topologies = [| Topology.Mesh; Topology.Torus; Topology.King_mesh; Topology.Diagonal_torus |]

let gen_config_rng rng ~max_dim =
  let rows = Rng.int_in rng 1 max_dim and cols = Rng.int_in rng 1 max_dim in
  let topology = Rng.choose rng topologies in
  let fu_mix = if Rng.bool rng then Library.Homogeneous else Library.Heterogeneous in
  let route =
    if Rng.int rng 4 = 0 then Library.Switchbox (Rng.int_in rng 1 3) else Library.Direct
  in
  { Library.rows; cols; topology; fu_mix; route }

(* Tiny kernels keep the solver-backed invariants tractable: the point
   of the fuzzer is architecture coverage, not benchmark coverage. *)
let small_benchmarks = [| "accum"; "mac" |]

let random_dfg_config =
  {
    Generator.n_inputs = 2;
    n_outputs = 1;
    n_internal = 4;
    mul_fraction = 0.25;
    mem_fraction = 0.1;
    allow_self_loop = true;
  }

let dfg_of_kernel = function
  | Benchmark name -> (
      match Benchmarks.by_name name with
      | Some dfg -> dfg
      | None -> invalid_arg (Printf.sprintf "Fuzz: unknown benchmark %S" name))
  | Random seed -> Generator.generate (Rng.create ~seed) random_dfg_config

let sample_of_seed ?(max_dim = 3) ~seed () =
  let rng = Rng.create ~seed in
  let config = gen_config_rng rng ~max_dim in
  let ii = Rng.int_in rng 1 2 in
  let kernel =
    if Rng.bool rng then Benchmark (Rng.choose rng small_benchmarks)
    else Random (Rng.int rng 1_000_000)
  in
  { seed; config; ii; kernel }

(* ---------------- QCheck generators ---------------- *)

let config_gen ?(max_dim = 3) () st =
  (* Drive our deterministic sampler from QCheck's random state so the
     same generator backs both the CLI fuzzer and QCheck properties. *)
  let seed = QCheck.Gen.int_bound 0x3FFFFFFF st in
  gen_config_rng (Rng.create ~seed) ~max_dim

let config_shrink_candidates (c : Library.config) =
  List.concat
    [
      (if c.Library.rows > 1 then [ { c with Library.rows = c.Library.rows - 1 } ] else []);
      (if c.Library.cols > 1 then [ { c with Library.cols = c.Library.cols - 1 } ] else []);
      (match c.Library.route with
      | Library.Direct -> []
      | Library.Switchbox 1 -> [ { c with Library.route = Library.Direct } ]
      | Library.Switchbox n ->
          [ { c with Library.route = Library.Switchbox (n - 1) };
            { c with Library.route = Library.Direct } ]);
      (match c.Library.fu_mix with
      | Library.Homogeneous -> []
      | Library.Heterogeneous -> [ { c with Library.fu_mix = Library.Homogeneous } ]);
      (match c.Library.topology with
      | Topology.Mesh -> []
      | Topology.Torus -> [ { c with Library.topology = Topology.Mesh } ]
      | Topology.King_mesh -> [ { c with Library.topology = Topology.Mesh } ]
      | Topology.Diagonal_torus ->
          [ { c with Library.topology = Topology.King_mesh };
            { c with Library.topology = Topology.Torus } ]);
    ]

let arbitrary_config ?(max_dim = 3) () =
  QCheck.make
    ~print:(fun c -> String.trim (Adl.config_to_string c))
    ~shrink:(fun c -> QCheck.Iter.of_list (config_shrink_candidates c))
    (config_gen ~max_dim ())

(* ---------------- structural invariants ---------------- *)

(* A declarative mirror of the elaboration rules (Build's Figs. 1-3
   translation): expected node/edge totals and the (inst, port, ctx)
   existence map, computed without running the elaborator's wiring
   machinery.  Divergence means one of the two is wrong. *)
let expected_stats arch ~ii =
  let exists = Hashtbl.create 1024 in
  let add inst port ctx = Hashtbl.replace exists (inst, port, ctx) () in
  let nodes = ref 0 and edges = ref 0 in
  List.iter
    (fun (inst, prim) ->
      match (prim : Primitive.t) with
      | Primitive.Multiplexer n ->
          nodes := !nodes + ((n + 2) * ii);
          edges := !edges + ((n + 1) * ii);
          for ctx = 0 to ii - 1 do
            add inst "out" ctx;
            for i = 0 to n - 1 do
              add inst (Printf.sprintf "in%d" i) ctx
            done
          done
      | Primitive.Register ->
          nodes := !nodes + (2 * ii);
          edges := !edges + ii;
          for ctx = 0 to ii - 1 do
            add inst "in" ctx;
            add inst "out" ctx
          done
      | Primitive.Func_unit spec ->
          for ctx = 0 to ii - 1 do
            if ctx mod spec.Primitive.initiation_interval = 0 then begin
              nodes := !nodes + spec.Primitive.n_inputs + 2;
              edges := !edges + spec.Primitive.n_inputs + 1;
              for i = 0 to spec.Primitive.n_inputs - 1 do
                add inst (Printf.sprintf "in%d" i) ctx
              done;
              add inst "out" ((ctx + spec.Primitive.latency) mod ii)
            end
          done)
    (Arch.instances arch);
  List.iter
    (fun { Arch.src; dst } ->
      for ctx = 0 to ii - 1 do
        if
          Hashtbl.mem exists (src.Arch.inst, src.Arch.port, ctx)
          && Hashtbl.mem exists (dst.Arch.inst, dst.Arch.port, ctx)
        then incr edges
      done)
    (Arch.connections arch);
  (!nodes, !edges)

let check_structure sample =
  let failures = ref [] in
  let fail invariant detail = failures := (invariant, detail) :: !failures in
  let arch = Library.make sample.config in
  (match Arch.validate arch with
  | Ok () -> ()
  | Error errs -> fail "arch-valid" (String.concat "; " errs));
  (* netlist ADL round-trip *)
  (match Adl.of_string (Adl.to_string arch) with
  | Error e -> fail "adl-roundtrip" ("netlist reparse failed: " ^ e)
  | Ok arch' ->
      if Arch.name arch' <> Arch.name arch then fail "adl-roundtrip" "name changed";
      if Arch.instances arch' <> Arch.instances arch then
        fail "adl-roundtrip" "instances changed";
      if Arch.connections arch' <> Arch.connections arch then
        fail "adl-roundtrip" "connections changed");
  (* compact generator-form round-trip *)
  (match Adl.config_of_string (Adl.config_to_string sample.config) with
  | Error e -> fail "adl-roundtrip" ("arch-gen reparse failed: " ^ e)
  | Ok c ->
      if c <> sample.config then fail "adl-roundtrip" "arch-gen config changed");
  let mrrg = Build.elaborate arch ~ii:sample.ii in
  (match Mrrg.validate mrrg with
  | Ok () -> ()
  | Error errs -> fail "mrrg-valid" (String.concat "; " errs));
  let exp_nodes, exp_edges = expected_stats arch ~ii:sample.ii in
  if Mrrg.n_nodes mrrg <> exp_nodes then
    fail "mrrg-counts"
      (Printf.sprintf "nodes: expected %d, elaborated %d" exp_nodes (Mrrg.n_nodes mrrg));
  if Mrrg.n_edges mrrg <> exp_edges then
    fail "mrrg-counts"
      (Printf.sprintf "edges: expected %d, elaborated %d" exp_edges (Mrrg.n_edges mrrg));
  (* fanin/fanout adjacency symmetry and edge accounting *)
  let n = Mrrg.n_nodes mrrg in
  let total_out = ref 0 and total_in = ref 0 in
  let sym_ok = ref true in
  for i = 0 to n - 1 do
    let outs = Mrrg.fanouts mrrg i in
    total_out := !total_out + List.length outs;
    total_in := !total_in + List.length (Mrrg.fanins mrrg i);
    List.iter (fun j -> if not (List.mem i (Mrrg.fanins mrrg j)) then sym_ok := false) outs
  done;
  if not !sym_ok then fail "mrrg-symmetry" "a fanout edge is missing from its target's fanins";
  if !total_out <> Mrrg.n_edges mrrg || !total_in <> Mrrg.n_edges mrrg then
    fail "mrrg-symmetry"
      (Printf.sprintf "edge totals: %d fanouts, %d fanins, %d edges" !total_out !total_in
         (Mrrg.n_edges mrrg));
  for i = 0 to n - 1 do
    if Mrrg.fanouts mrrg i = [] && Mrrg.fanins mrrg i = [] then
      fail "mrrg-connected" (Printf.sprintf "isolated node %s" (Mrrg.node mrrg i).Mrrg.name)
  done;
  List.rev !failures

(* ---------------- solver-backed invariants ---------------- *)

let check_solve sample ~limit =
  let failures = ref [] in
  let fail invariant detail = failures := (invariant, detail) :: !failures in
  let dfg = dfg_of_kernel sample.kernel in
  let map ?solver config =
    let mrrg = Build.elaborate (Library.make config) ~ii:sample.ii in
    IM.map ?solver ~deadline:(Deadline.after ~seconds:limit) ~warm_start:0.0 dfg mrrg
  in
  (* differential: the corridor-sparse builder and the retained dense
     reference scan must produce byte-identical LP renderings — same
     variables, same rows, same order (see Formulation.build_reference) *)
  (let mrrg = Build.elaborate (Library.make sample.config) ~ii:sample.ii in
   let render (f : Formulation.t) = Lp_format.to_string f.Formulation.model in
   let optimized = render (Formulation.build ~objective:Formulation.Min_routing dfg mrrg) in
   let reference =
     render (Formulation.build_reference ~objective:Formulation.Min_routing dfg mrrg)
   in
   if optimized <> reference then
     fail "formulation-differential"
       (Printf.sprintf "optimized and reference builders disagree on %s"
          (Library.name_of_config sample.config)));
  let result = map sample.config in
  (match result with
  | IM.Mapped (m, _) -> (
      match Check.run m with
      | Ok () -> ()
      | Error errs ->
          fail "mapped-check" ("independent checker rejects mapping: " ^ String.concat "; " errs))
  | IM.Infeasible _ | IM.Timeout _ -> ());
  (* differential: the connectivity formulation decides the same
     feasibility question from a different constraint structure, so on
     any sample where both formulations finish, the verdicts must
     coincide (a conn Mapped answer is Check-validated inside map) *)
  let conn = Result.get_ok (Cgra_core.Solver_spec.of_name (Conn.formulation_name ^ "-sat")) in
  (match (result, map ~solver:conn sample.config) with
  | IM.Mapped _, IM.Infeasible _ ->
      fail "formulation-vs-conn"
        (Printf.sprintf "paper formulation maps %s but conn proves it infeasible"
           (Library.name_of_config sample.config))
  | IM.Infeasible _, IM.Mapped _ ->
      fail "formulation-vs-conn"
        (Printf.sprintf "paper formulation proves %s infeasible but conn maps it"
           (Library.name_of_config sample.config))
  | _ -> () (* agreement, or a timeout on either side proves nothing *));
  (* monotonicity: wrap-around links only ever add routing options *)
  (match result with
  | IM.Mapped _ when not (Topology.wraps sample.config.Library.topology) -> (
      let wrapped =
        { sample.config with Library.topology = Topology.wrapped sample.config.Library.topology }
      in
      match map wrapped with
      | IM.Infeasible _ ->
          fail "wrap-monotone"
            (Printf.sprintf "%s maps but %s is infeasible"
               (Library.name_of_config sample.config)
               (Library.name_of_config wrapped))
      | IM.Mapped _ | IM.Timeout _ -> ())
  | _ -> ());
  (* the outcome must survive the sweep journal *)
  let record =
    let job =
      {
        Job.benchmark = kernel_to_string sample.kernel;
        arch = Library.name_of_config sample.config;
        size = sample.config.Library.rows;
        contexts = sample.ii;
        limit;
      }
    in
    let info = match result with IM.Mapped (_, i) | IM.Infeasible i | IM.Timeout i -> i in
    Runner.record_of_result job ~engine:"sat"
      ~total_seconds:(info.IM.build_seconds +. info.IM.solve_seconds)
      result
  in
  let line = Record.to_line record in
  (match Record.of_line line with
  | Error e -> fail "journal-roundtrip" ("journal line does not parse back: " ^ e)
  | Ok record' ->
      if Record.to_line record' <> line then
        fail "journal-roundtrip" "journal line is not a round-trip fixpoint";
      if record'.Record.status <> record.Record.status then
        fail "journal-roundtrip" "status changed across the journal");
  List.rev !failures

let check ?(solve = true) ?(limit = 5.0) sample =
  match check_structure sample with
  | _ :: _ as failures -> failures (* solving on a malformed MRRG proves nothing *)
  | [] -> if solve then check_solve sample ~limit else []
  | exception Invalid_argument msg ->
      (* a config the generator refuses outright (empty grid, zero-lane
         switchbox) is an arch-validity failure, not a fuzzer crash *)
      [ ("arch-valid", "generator rejected config: " ^ msg) ]

(* ---------------- shrinking ---------------- *)

let sample_shrink_candidates s =
  let with_config config = { s with config } in
  List.concat
    [
      List.map with_config (config_shrink_candidates s.config);
      (if s.ii > 1 then [ { s with ii = s.ii - 1 } ] else []);
      (match s.kernel with
      | Benchmark "accum" -> []
      | Benchmark _ | Random _ -> [ { s with kernel = Benchmark "accum" } ]);
    ]

let rec shrink ~still_failing s =
  match List.find_opt still_failing (sample_shrink_candidates s) with
  | Some smaller -> shrink ~still_failing smaller
  | None -> s

(* ---------------- the driver ---------------- *)

(* Per sample: 6 structural invariants, plus 5 solver-backed ones. *)
let checks_per_sample ~solve = if solve then 11 else 6

let run ?(solve = true) ?(limit = 5.0) ?(max_dim = 3) ?progress ~seed ~count () =
  let violations = ref [] in
  for i = 0 to count - 1 do
    let sample = sample_of_seed ~max_dim ~seed:(seed + i) () in
    (match progress with Some f -> f i sample | None -> ());
    List.iter
      (fun (invariant, detail) ->
        let still_failing s =
          List.exists (fun (inv, _) -> inv = invariant) (check ~solve ~limit s)
        in
        let shrunk = shrink ~still_failing sample in
        violations := { invariant; sample = shrunk; detail } :: !violations)
      (check ~solve ~limit sample)
  done;
  {
    samples = count;
    checks = count * checks_per_sample ~solve;
    violations = List.rev !violations;
  }
