(* cgra_map: command-line front end to the mapping framework.

   Subcommands mirror the paper's flow (Fig. 7): describe architectures
   and benchmarks, elaborate MRRGs, map with the exact ILP mapper or
   the simulated-annealing heuristic, and export artefacts (DOT, ADL,
   LP files). *)

module Dfg = Cgra_dfg.Dfg
module Benchmarks = Cgra_dfg.Benchmarks
module Arch = Cgra_arch.Arch
module Lib = Cgra_arch.Library
module Adl = Cgra_arch.Adl
module Mrrg = Cgra_mrrg.Mrrg
module Build = Cgra_mrrg.Build
module Formulation = Cgra_core.Formulation
module Formulation_intf = Cgra_core.Formulation_intf
module IM = Cgra_core.Ilp_mapper
module Anneal = Cgra_core.Anneal
module Mapping = Cgra_core.Mapping
module Lp_format = Cgra_ilp.Lp_format
module Deadline = Cgra_util.Deadline
module Backend = Cgra_backend.Backend
module Solver_spec = Cgra_core.Solver_spec
module Jsonl = Cgra_sweep.Jsonl
module Runner = Cgra_sweep.Runner
module Portfolio = Cgra_sweep.Portfolio
module Serve_protocol = Cgra_serve.Protocol
module Serve_server = Cgra_serve.Server
module Serve_client = Cgra_serve.Client
open Cmdliner

(* Exit codes: 0 ok, 1 error, 3 undecided (timeout / incomplete
   evidence), 4 uncertified, 5 cross-check disagreement, 6 protocol
   error (daemon/client version or framing mismatch). *)
let protocol_exit = 6

(* ---------------- shared argument definitions ---------------- *)

let arch_names = List.map fst (Lib.paper_configs ~size:4)

let arch_arg =
  let doc =
    Printf.sprintf
      "Architecture: one of %s, a gallery name (see $(b,arch gallery)), the path of an .adl \
       file, or $(b,-) to read ADL text from stdin."
      (String.concat ", " arch_names)
  in
  Arg.(value & opt string "homo-orth" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

(* Sizes and context counts below 1 name no fabric and no II. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let size_arg =
  let doc = "Array size (NxN) for the built-in architectures." in
  Arg.(value & opt positive_int 4 & info [ "s"; "size" ] ~docv:"N" ~doc)

let contexts_arg =
  let doc = "Number of contexts (the initiation interval II)." in
  Arg.(value & opt positive_int 1 & info [ "c"; "contexts" ] ~docv:"II" ~doc)

let benchmark_arg =
  let doc = "Benchmark name (see $(b,benchmarks)) or the path of a .dfg file." in
  Arg.(value & pos 0 string "mac" & info [] ~docv:"BENCHMARK" ~doc)

let limit_arg =
  let doc = "Time limit in seconds (0 = none)." in
  Arg.(value & opt float 120.0 & info [ "t"; "limit" ] ~docv:"SECS" ~doc)

let optimize_arg =
  let doc = "Minimise routing-resource usage (paper objective (10)) instead of feasibility only." in
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc)

let seed_arg =
  let doc = "Random seed for the annealing mapper." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Name resolution is the sweep runner's, which the daemon shares; only
   the CLI may read stdin. *)
let load_arch name size =
  if name = "-" then Adl.of_string (In_channel.input_all stdin)
  else Runner.load_arch ~size name

let deadline_of limit = if limit <= 0.0 then Deadline.none else Deadline.after ~seconds:limit

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

(* ---------------- subcommands ---------------- *)

let benchmarks_cmd =
  let run () =
    Printf.printf "%-14s %6s %12s %12s\n" "Benchmark" "I/Os" "Operations" "#Multiplies";
    List.iter
      (fun (name, mk) ->
        let s = Dfg.stats (mk ()) in
        Printf.printf "%-14s %6d %12d %12d\n" name s.Dfg.ios s.Dfg.operations s.Dfg.multiplies)
      Benchmarks.all
  in
  Cmd.v (Cmd.info "benchmarks" ~doc:"List the built-in benchmark DFGs (paper Table 1).")
    Term.(const run $ const ())

let archs_cmd =
  let run size contexts =
    List.iter
      (fun (name, config) ->
        let arch = Lib.make config in
        let mrrg = Build.elaborate arch ~ii:contexts in
        let s = Mrrg.stats mrrg in
        Printf.printf "%-14s %s; MRRG(ii=%d): %d route + %d func nodes, %d edges\n" name
          (Format.asprintf "%a" Arch.pp_summary (Arch.summary arch))
          contexts s.Mrrg.n_route s.Mrrg.n_func s.Mrrg.n_edges)
      (Lib.paper_configs ~size)
  in
  Cmd.v
    (Cmd.info "archs" ~doc:"List the built-in architectures with netlist and MRRG sizes.")
    Term.(const run $ size_arg $ contexts_arg)

let certify_arg =
  let doc =
    "Certify the verdict: an infeasible answer must carry evidence an independent in-repo \
     checker validates: a Hall witness (too few capable functional units for a set of \
     operations) or a DRAT refutation (feasible answers are always validated by the mapping \
     checker)."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

(* Solver names are parsed here, once; everything below takes the spec. *)
let solver_conv =
  let parse name = Result.map_error (fun e -> `Msg e) (Solver_spec.of_name name) in
  Arg.conv (parse, fun fmt (s : Solver_spec.t) -> Format.pp_print_string fmt s.Solver_spec.name)

let backend_arg =
  let doc =
    "Solver (see $(b,backends)): the built-in SAT engine on a formulation (native-sat, \
     conn-sat) or an external MILP solver (highs, cbc, scip) run as a subprocess over the LP \
     export, with its answer replayed through the independent checkers."
  in
  Arg.(value & opt (some solver_conv) None & info [ "backend" ] ~docv:"NAME" ~doc)

let json_arg =
  let doc =
    "Print the verdict as one JSON object — the same record the $(b,serve) daemon returns, \
     so one-shot and served answers diff cleanly."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* The one-shot CLI and the daemon share the wire record; a one-shot
   answer reports cold provenance. *)
let print_verdict_json ~engine ~t0 result =
  let v =
    Serve_protocol.verdict_of_result ~engine ~wall_seconds:(Deadline.elapsed_of ~start:t0) result
  in
  print_endline (Jsonl.to_string (Serve_protocol.verdict_to_json v))

(* An explained infeasible answer is complete with a verified core. *)
let core_verified (info : IM.info) =
  match info.IM.diagnosis with Some d -> d.IM.core_verified | None -> false

let map_cmd =
  let explain_arg =
    let doc =
      "Explain an infeasible answer: extract a minimal constraint-group unsat core (which \
       placements, routings and resource exclusivities conflict), verify it with a \
       DRAT-checked refutation of its rows alone (or, when some operations outnumber the \
       functional units able to run them, by counting on those rows), and print it in \
       DFG/MRRG terms (a $(b,core) array with $(b,--json)).  With $(b,--certify) the core's \
       own refutation is the certificate.  Exits 3 when an infeasible answer has no \
       diagnosis or an unverified core (the deadline hit first)."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run bench arch size contexts limit optimize certify explain solver json =
    let dfg = or_die (Runner.load_benchmark bench) in
    let a = or_die (load_arch arch size) in
    let mrrg = Build.elaborate a ~ii:contexts in
    let objective = if optimize then Formulation.Min_routing else Formulation.Feasibility in
    let t0 = Deadline.now () in
    let result =
      try
        IM.map ~objective ?solver ~deadline:(deadline_of limit) ~certify ~explain dfg mrrg
      with Backend.Error msg ->
        prerr_endline ("backend error: " ^ msg);
        exit 1
    in
    if json then begin
      let engine = match solver with Some s -> s.Solver_spec.name | None -> "sat" in
      print_verdict_json ~engine ~t0 result;
      match result with
      | IM.Mapped _ -> ()
      | IM.Infeasible info ->
          if (certify && not info.IM.certified) || (explain && not (core_verified info)) then
            exit 3
      | IM.Timeout _ -> exit 3
    end
    else
      match result with
      | IM.Mapped (m, info) ->
          Printf.printf "feasible: %s\n" (Format.asprintf "%a" IM.pp_result result);
          Printf.printf "model: %s (built in %.2fs)\n"
            (Format.asprintf "%a" Formulation.pp_size info.IM.size)
            info.IM.build_seconds;
          if certify then print_endline "certified: mapping accepted by the independent checker";
          print_endline (Mapping.to_string m)
      | IM.Infeasible info ->
          Printf.printf "infeasible (proven in %.2fs)\n" info.IM.solve_seconds;
          Option.iter
            (fun d -> print_string (Format.asprintf "%a" IM.pp_diagnosis d))
            info.IM.diagnosis;
          if explain && not (core_verified info) then begin
            print_endline
              (if info.IM.diagnosis = None then "core extraction incomplete (deadline hit)"
               else "core verification incomplete (deadline hit during its refutation)");
            exit 3
          end;
          if certify then
            if not info.IM.certified then begin
              print_endline "certification incomplete (deadline hit during proof replay)";
              exit 3
            end
            else if info.IM.evidence = Some IM.Hall then
              print_endline
                "certified: Hall witness (operations outnumbering their capable functional \
                 units) validated by the independent checker"
            else
              Printf.printf
                "certified: DRAT refutation (%d inference steps) validated by the independent \
                 checker\n"
                info.IM.proof_steps
      | IM.Timeout _ ->
          print_endline "timeout: feasibility undecided";
          exit 3
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Map a benchmark onto an architecture with the exact ILP mapper (paper Fig. 7).")
    Term.(
      const run $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ limit_arg $ optimize_arg
      $ certify_arg $ explain_arg $ backend_arg $ json_arg)

let backends_cmd =
  let run () =
    Printf.printf "%-12s %-14s %s\n" "Name" "Status" "Description";
    List.iter
      (fun name ->
        let s = Result.get_ok (Solver_spec.of_name name) in
        let status, doc =
          match s.Solver_spec.engine with
          | Solver_spec.Native ->
              ( "available",
                "built-in CDCL SAT; " ^ s.Solver_spec.formulation.Formulation_intf.doc )
          | Solver_spec.External b -> (
              match b.Backend.available () with
              | Backend.Available { version = Some v } ->
                  ("available", Printf.sprintf "%s [%s]" b.Backend.doc v)
              | Backend.Available { version = None } -> ("available", b.Backend.doc)
              | Backend.Unavailable why -> ("missing", Printf.sprintf "%s (%s)" b.Backend.doc why))
        in
        Printf.printf "%-12s %-14s %s\n" name status doc)
      (Solver_spec.names ())
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:
         "List the solver names $(b,--backend) accepts: the built-in exact engines on each \
          formulation and the external MILP adapters, with PATH discovery and version \
          capture for the external binaries.")
    Term.(const run $ const ())

let anneal_cmd =
  let run bench arch size contexts limit seed =
    let dfg = or_die (Runner.load_benchmark bench) in
    let a = or_die (load_arch arch size) in
    let mrrg = Build.elaborate a ~ii:contexts in
    let params = { Anneal.moderate with Anneal.seed } in
    match Anneal.map ~params ~deadline:(deadline_of limit) dfg mrrg with
    | Anneal.Mapped (m, st) ->
        Printf.printf "mapped after %d moves (%d accepted)\n" st.Anneal.moves_tried
          st.Anneal.moves_accepted;
        print_endline (Mapping.to_string m)
    | Anneal.Failed st ->
        Printf.printf
          "annealing failed (cost %d, overuse %d, unrouted %d) — proves nothing about feasibility\n"
          st.Anneal.final_cost st.Anneal.final_overuse st.Anneal.unrouted;
        exit 3
  in
  Cmd.v
    (Cmd.info "anneal" ~doc:"Map with the simulated-annealing heuristic baseline (paper Fig. 8).")
    Term.(const run $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ limit_arg $ seed_arg)

let config_cmd =
  let run bench arch size contexts limit =
    let dfg = or_die (Runner.load_benchmark bench) in
    let a = or_die (load_arch arch size) in
    let mrrg = Build.elaborate a ~ii:contexts in
    match IM.map ~deadline:(deadline_of limit) dfg mrrg with
    | IM.Mapped (m, _) -> (
        match Cgra_core.Configgen.generate m with
        | Ok cfg -> print_string (Cgra_core.Configgen.to_string m cfg)
        | Error errs ->
            prerr_endline ("configuration generation failed: " ^ String.concat "; " errs);
            exit 1)
    | IM.Infeasible _ ->
        print_endline "infeasible: no configuration exists";
        exit 3
    | IM.Timeout _ ->
        print_endline "timeout";
        exit 3
  in
  Cmd.v
    (Cmd.info "config"
       ~doc:"Map a benchmark and print the per-context CGRA configuration (mux selects, opcodes).")
    Term.(const run $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ limit_arg)

let map_dot_cmd =
  let run bench arch size contexts limit =
    let dfg = or_die (Runner.load_benchmark bench) in
    let a = or_die (load_arch arch size) in
    let mrrg = Build.elaborate a ~ii:contexts in
    match IM.map ~deadline:(deadline_of limit) dfg mrrg with
    | IM.Mapped (m, _) -> print_string (Mapping.to_dot m)
    | IM.Infeasible _ | IM.Timeout _ ->
        prerr_endline "no mapping to draw";
        exit 3
  in
  Cmd.v
    (Cmd.info "map-dot" ~doc:"Map a benchmark and print the mapping overlay in GraphViz DOT form.")
    Term.(const run $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ limit_arg)

let simulate_cmd =
  let run bench arch size contexts limit seed =
    let dfg = or_die (Runner.load_benchmark bench) in
    let a = or_die (load_arch arch size) in
    let mrrg = Build.elaborate a ~ii:contexts in
    match IM.map ~deadline:(deadline_of limit) dfg mrrg with
    | IM.Infeasible _ ->
        print_endline "infeasible: nothing to simulate";
        exit 3
    | IM.Timeout _ ->
        print_endline "timeout";
        exit 3
    | IM.Mapped (m, _) -> (
        let binding = Cgra_sim.Simulator.default_binding dfg ~seed in
        match Cgra_sim.Simulator.run m ~arch:a binding with
        | Error errs ->
            prerr_endline ("simulation error: " ^ String.concat "; " errs);
            exit 1
        | Ok outcome ->
            Printf.printf "simulated %d cycles with inputs:\n" outcome.Cgra_sim.Simulator.cycles;
            List.iter
              (fun (q, v) -> Printf.printf "  %s = %d\n" (Dfg.node dfg q).Dfg.name v)
              binding;
            Printf.printf "outputs (simulated vs DFG reference):\n";
            List.iter2
              (fun (name, got) (_, want) ->
                Printf.printf "  %s = %d (expected %d) %s\n" name got want
                  (if got = want then "ok" else "MISMATCH"))
              outcome.Cgra_sim.Simulator.outputs outcome.Cgra_sim.Simulator.reference;
            if not outcome.Cgra_sim.Simulator.matches then exit 1)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Map a benchmark, then execute the mapping cycle-by-cycle and check the outputs \
          against direct DFG evaluation.")
    Term.(const run $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ limit_arg $ seed_arg)

let mrrg_dot_cmd =
  let run arch size contexts =
    let a = or_die (load_arch arch size) in
    print_string (Mrrg.to_dot (Build.elaborate a ~ii:contexts))
  in
  Cmd.v
    (Cmd.info "mrrg-dot" ~doc:"Print the architecture's MRRG in GraphViz DOT form.")
    Term.(const run $ arch_arg $ size_arg $ contexts_arg)

let dfg_dot_cmd =
  let run bench =
    let dfg = or_die (Runner.load_benchmark bench) in
    print_string (Dfg.to_dot dfg)
  in
  Cmd.v
    (Cmd.info "dfg-dot" ~doc:"Print a benchmark DFG in GraphViz DOT form.")
    Term.(const run $ benchmark_arg)

let adl_cmd =
  let run arch size =
    let a = or_die (load_arch arch size) in
    print_string (Adl.to_string a)
  in
  Cmd.v
    (Cmd.info "adl" ~doc:"Print an architecture in the textual description language.")
    Term.(const run $ arch_arg $ size_arg)

(* ---------------- parametric generators and fuzzing ---------------- *)

module Topo = Cgra_arch.Topology
module Fuzz = Cgra_fuzz.Fuzz

let topology_conv =
  let parse s =
    match Topo.of_string s with
    | Some t -> Ok t
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown topology %S (known: %s)" s
                (String.concat ", " (List.map fst Topo.all))))
  in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Topo.to_string t))

let fu_mix_conv =
  let parse s =
    match Lib.fu_mix_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown fu-mix %S (known: homo, hetero)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Lib.fu_mix_to_string m))

let gen_config_term =
  let rows_arg =
    let doc = "Grid rows." in
    Arg.(value & opt int 4 & info [ "rows" ] ~docv:"N" ~doc)
  in
  let cols_arg =
    let doc = "Grid columns." in
    Arg.(value & opt int 4 & info [ "cols" ] ~docv:"N" ~doc)
  in
  let topology_arg =
    let doc = "Interconnect topology: mesh, torus, king-mesh or diagonal-torus." in
    Arg.(value & opt topology_conv Topo.Mesh & info [ "topology" ] ~docv:"TOPO" ~doc)
  in
  let fu_mix_arg =
    let doc = "Functional-unit mix: homo (all ALUs multiply) or hetero (checkerboard)." in
    Arg.(value & opt fu_mix_conv Lib.Homogeneous & info [ "fu-mix" ] ~docv:"MIX" ~doc)
  in
  let switchbox_arg =
    let doc =
      "Route operands through N shared EDGE-style switchbox lanes per tile instead of \
       direct full-crossbar muxes."
    in
    Arg.(value & opt (some int) None & info [ "switchbox" ] ~docv:"N" ~doc)
  in
  let build rows cols topology fu_mix switchbox =
    let route = match switchbox with None -> Lib.Direct | Some n -> Lib.Switchbox n in
    { Lib.rows; cols; topology; fu_mix; route }
  in
  Term.(const build $ rows_arg $ cols_arg $ topology_arg $ fu_mix_arg $ switchbox_arg)

let arch_gen_cmd =
  let compact_arg =
    let doc = "Emit the compact (arch-gen ...) form instead of the full netlist." in
    Arg.(value & flag & info [ "compact" ] ~doc)
  in
  let run config compact =
    if compact then print_string (Adl.config_to_string config)
    else
      match Lib.make config with
      | arch -> print_string (Adl.to_string arch)
      | exception Invalid_argument msg -> or_die (Error msg)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a parametric grid architecture and print its ADL netlist on stdout (pipe \
          into any subcommand that accepts `-a -`).")
    Term.(const run $ gen_config_term $ compact_arg)

let arch_show_cmd =
  let arch_pos_arg =
    let doc =
      "Architecture: a paper or gallery name, the path of an .adl file, or $(b,-) for stdin."
    in
    Arg.(value & pos 0 string "homo-orth" & info [] ~docv:"ARCH" ~doc)
  in
  let run arch size contexts =
    let a = or_die (load_arch arch size) in
    let t0 = Deadline.now () in
    let mrrg = Build.elaborate a ~ii:contexts in
    let elaborate_seconds = Deadline.elapsed_of ~start:t0 in
    let s = Mrrg.stats mrrg in
    Printf.printf "%s: %s\n" (Arch.name a)
      (Format.asprintf "%a" Arch.pp_summary (Arch.summary a));
    Printf.printf "MRRG(ii=%d): %d route + %d func nodes, %d edges\n" contexts s.Mrrg.n_route
      s.Mrrg.n_func s.Mrrg.n_edges;
    Printf.printf "elaboration: %.1f ms\n" (1000.0 *. elaborate_seconds)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Show an architecture's netlist summary, MRRG size and elaboration timing (accepts \
          paper names, gallery names, .adl files and `-`).")
    Term.(const run $ arch_pos_arg $ size_arg $ contexts_arg)

(* The markdown this prints is pasted verbatim into docs/ADL.md's
   gallery section; test_arch pins the two in sync. *)
let gallery_table () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "| Name | Size | Interconnect | FU mix | Routing | MRRG nodes (II=1) | MRRG edges (II=1) |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun (name, (config : Lib.config)) ->
      let mrrg = Build.elaborate (Lib.make config) ~ii:1 in
      let routing =
        match config.Lib.route with
        | Lib.Direct -> "direct"
        | Lib.Switchbox n -> Printf.sprintf "switchbox-%d" n
      in
      Buffer.add_string buf
        (Printf.sprintf "| %s | %dx%d | %s | %s | %s | %d | %d |\n" name config.Lib.rows
           config.Lib.cols
           (Topo.to_string config.Lib.topology)
           (Lib.fu_mix_to_string config.Lib.fu_mix)
           routing (Mrrg.n_nodes mrrg) (Mrrg.n_edges mrrg)))
    Lib.gallery;
  Buffer.contents buf

let arch_gallery_cmd =
  let run () = print_string (gallery_table ()) in
  Cmd.v
    (Cmd.info "gallery"
       ~doc:
         "Print every built-in architecture (paper structures and generated presets) as the \
          markdown gallery table of docs/ADL.md.")
    Term.(const run $ const ())

let arch_cmd =
  Cmd.group
    (Cmd.info "arch"
       ~doc:
         "Parametric architecture generators: generate ADL netlists, inspect architectures, \
          list the built-in gallery.")
    [ arch_gen_cmd; arch_show_cmd; arch_gallery_cmd ]

let fuzz_arch_cmd =
  let count_arg =
    let doc = "Number of random architectures to sample." in
    Arg.(value & opt int 25 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let max_dim_arg =
    let doc = "Maximum rows/columns of sampled grids." in
    Arg.(value & opt int 3 & info [ "max-dim" ] ~docv:"N" ~doc)
  in
  let no_solve_arg =
    let doc = "Skip the solver-backed invariants (mapped-check, wrap-monotone, journal)." in
    Arg.(value & flag & info [ "no-solve" ] ~doc)
  in
  let fuzz_limit_arg =
    let doc = "Per-solve time limit in seconds (a timeout is never a violation)." in
    Arg.(value & opt float 5.0 & info [ "t"; "limit" ] ~docv:"SECS" ~doc)
  in
  let verbose_arg =
    let doc = "Print each sample to stderr as it is checked." in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let run seed count max_dim limit no_solve verbose =
    let progress =
      if verbose then
        Some (fun i s -> Printf.eprintf "[%d/%d] %s\n%!" (i + 1) count (Fuzz.sample_to_string s))
      else None
    in
    let report = Fuzz.run ~solve:(not no_solve) ~limit ~max_dim ?progress ~seed ~count () in
    match report.Fuzz.violations with
    | [] ->
        Printf.printf "fuzz-arch: %d architectures, %d invariant checks, no violations\n"
          report.Fuzz.samples report.Fuzz.checks
    | violations ->
        List.iter
          (fun (v : Fuzz.violation) ->
            Printf.printf "violation[%s]: %s\n" v.Fuzz.invariant v.Fuzz.detail;
            Printf.printf "  shrunk: %s\n" (Fuzz.sample_to_string v.Fuzz.sample);
            Printf.printf "  replay: cgra_map fuzz-arch --seed %d --count 1 --max-dim %d\n"
              v.Fuzz.sample.Fuzz.seed max_dim)
          violations;
        Printf.printf "fuzz-arch: %d violation(s) over %d architectures\n"
          (List.length violations) report.Fuzz.samples;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz-arch"
       ~doc:
         "Sample random architectures from the generator space and check end-to-end \
          invariants on each: ADL round-trips, MRRG well-formedness and size formulas, \
          mapper-verdict sanity (a mapping must pass the independent checker; adding \
          wrap-around links never turns feasible into infeasible), and sweep-journal \
          round-trips.  Violations are shrunk and printed with a replay seed; exits 1 if \
          any invariant fails.")
    Term.(const run $ seed_arg $ count_arg $ max_dim_arg $ fuzz_limit_arg $ no_solve_arg
          $ verbose_arg)

let lp_cmd =
  let run bench arch size contexts optimize solver =
    let dfg = or_die (Runner.load_benchmark bench) in
    let a = or_die (load_arch arch size) in
    let mrrg = Build.elaborate a ~ii:contexts in
    let objective = if optimize then Formulation.Min_routing else Formulation.Feasibility in
    let solver = Option.value solver ~default:Solver_spec.default in
    let f = solver.Solver_spec.formulation.Formulation_intf.build ~objective dfg mrrg in
    print_string (Lp_format.to_string f.Formulation_intf.model)
  in
  Cmd.v
    (Cmd.info "lp"
       ~doc:
         "Print the ILP formulation in CPLEX LP format (for inspection or an external solver).  \
          The model is the formulation of the $(b,--backend) solver: the connectivity model \
          for conn-sat, the paper's for every other solver (the default).")
    Term.(
      const run $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ optimize_arg
      $ backend_arg)

(* ---------------- sweep ---------------- *)

module Sweep_job = Cgra_sweep.Job
module Sweep_store = Cgra_sweep.Store
module Sweep_sched = Cgra_sweep.Scheduler
module Sweep_grid = Cgra_sweep.Grid
module Sweep_record = Cgra_sweep.Record

let sweep_cmd =
  let jobs_arg =
    let doc = "Number of parallel workers (OCaml domains)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let portfolio_arg =
    let doc =
      "Race SAT variants per job, one per core (cold, warm, then a shorter and a longer warm \
       start; add solvers with $(b,--racer)); first definitive answer wins and cancels the \
       losers."
    in
    Arg.(value & flag & info [ "portfolio" ] ~doc)
  in
  let resume_arg =
    let doc = "Skip jobs already recorded in the output journal." in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let out_arg =
    let doc = "Append-only JSONL result journal." in
    Arg.(value & opt string "results.jsonl" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let table_arg =
    let doc = "Render the journal as the Table-2 feasibility grid after the sweep." in
    Arg.(value & flag & info [ "table" ] ~doc)
  in
  let benchmarks_arg =
    let doc = "Restrict to this benchmark (repeatable); default: all 19." in
    Arg.(value & opt_all string [] & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)
  in
  let archs_arg =
    let doc = "Restrict to this architecture (repeatable); default: all 4 structures." in
    Arg.(value & opt_all string [] & info [ "a"; "arch" ] ~docv:"NAME" ~doc)
  in
  let contexts_list_arg =
    let doc = "Context counts to sweep (repeatable); default: 1 and 2." in
    Arg.(value & opt_all positive_int [] & info [ "c"; "contexts" ] ~docv:"II" ~doc)
  in
  let explain_arg =
    let doc =
      "Extract a constraint-group unsat core for every infeasible cell and journal it \
       (adds a $(b,core) array to the cell's JSONL record)."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let cross_check_arg =
    let doc =
      "Re-solve every definitive cell with this solver (see $(b,backends)) and journal the \
       second opinion; exit 5 if any verdict is contradicted."
    in
    Arg.(value & opt (some solver_conv) None & info [ "cross-check" ] ~docv:"BACKEND" ~doc)
  in
  let racers_arg =
    let doc =
      "Add this solver (see $(b,backends)) as an extra racer (repeatable); implies \
       $(b,--portfolio)."
    in
    Arg.(value & opt_all solver_conv [] & info [ "racer" ] ~docv:"BACKEND" ~doc)
  in
  let run jobs portfolio certify explain cross_check racer_solvers resume out table benchmarks
      archs contexts limit size =
    let contexts = if contexts = [] then [ 1; 2 ] else contexts in
    (* The one place the racer field is sized: one racer per core, so
       nothing idles on wide machines and narrow ones are never
       oversubscribed. *)
    let variants =
      if portfolio || racer_solvers <> [] then
        Runner.default_racers (Domain.recommended_domain_count ())
        @ List.map Runner.variant racer_solvers
      else [ Runner.default_variant ]
    in
    let execute = Portfolio.race ~variants ~certify ~explain in
    let execute =
      match cross_check with Some c -> Runner.cross_checked c execute | None -> execute
    in
    let grid = Sweep_job.paper_grid ~size ~contexts ~limit ~benchmarks ~archs () in
    let on_event = function
      | Sweep_sched.Job_started { index; total; worker; job } ->
          Printf.eprintf "[%d/%d] w%d start  %s\n%!" (index + 1) total worker
            (Sweep_job.to_string job)
      | Sweep_sched.Job_finished { index; total; worker; record } ->
          Printf.eprintf "[%d/%d] w%d %-10s %s (%s, %.2fs)%s%s\n%!" (index + 1) total worker
            (Sweep_record.status_to_string record.Sweep_record.status)
            (Sweep_job.to_string record.Sweep_record.job)
            record.Sweep_record.engine record.Sweep_record.total_seconds
            (match record.Sweep_record.core with
            | [] -> ""
            | core -> Printf.sprintf "  core: %s" (String.concat " " core))
            (match record.Sweep_record.cross with
            | None -> ""
            | Some c ->
                Printf.sprintf "  cross[%s]: %s%s" c.Sweep_record.backend
                  (Sweep_record.status_to_string c.Sweep_record.status)
                  (if c.Sweep_record.agreed then "" else "  ** DISAGREEMENT **"))
    in
    let records, stats =
      Sweep_sched.run ~jobs ~journal:out ~resume ~on_event ~execute grid
    in
    Printf.eprintf "sweep: %d ran, %d skipped (resume), %.1fs wall, journal %s\n%!"
      stats.Sweep_sched.ran stats.Sweep_sched.skipped stats.Sweep_sched.wall_seconds out;
    if table then print_string (Sweep_grid.render (Sweep_store.load out));
    if stats.Sweep_sched.disagreements > 0 then begin
      List.iter
        (fun (r : Sweep_record.t) ->
          if Sweep_record.disagreement r then
            match r.Sweep_record.cross with
            | Some c ->
                Printf.eprintf "disagreement: %s primary=%s cross[%s]=%s\n%!"
                  (Sweep_job.to_string r.Sweep_record.job)
                  (Sweep_record.status_to_string r.Sweep_record.status)
                  c.Sweep_record.backend
                  (Sweep_record.status_to_string c.Sweep_record.status)
            | None -> ())
        records;
      Printf.eprintf
        "sweep: %d cross-check disagreement(s) — one of the solvers is wrong; see journal %s\n%!"
        stats.Sweep_sched.disagreements out;
      exit 5
    end;
    if certify then begin
      (* A certified sweep must leave no definitive verdict without
         validated evidence; timeouts/errors are reported but are not
         certification failures. *)
      let uncertified =
        List.filter
          (fun (r : Sweep_record.t) ->
            Sweep_record.definitive r && not r.Sweep_record.certified)
          records
      in
      if uncertified <> [] then begin
        List.iter
          (fun (r : Sweep_record.t) ->
            Printf.eprintf "uncertified verdict: %s %s\n%!"
              (Sweep_job.to_string r.Sweep_record.job)
              (Sweep_record.status_to_string r.Sweep_record.status))
          uncertified;
        Printf.eprintf "sweep: %d definitive verdict(s) without a validated certificate\n%!"
          (List.length uncertified);
        exit 4
      end
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the Table-2 feasibility grid (or a filtered subset) as a parallel sweep over \
          OCaml domains, journaling every outcome to JSONL.  Re-running with $(b,--resume) \
          skips recorded jobs; $(b,--portfolio) races engines per job; $(b,--certify) \
          demands validated evidence for every definitive verdict and exits 4 otherwise; \
          $(b,--explain) journals a constraint-group unsat core for every infeasible cell; \
          $(b,--cross-check) re-proves every definitive cell with a second solver and exits \
          5 on any contradiction.")
    Term.(
      const run $ jobs_arg $ portfolio_arg $ certify_arg $ explain_arg $ cross_check_arg
      $ racers_arg $ resume_arg $ out_arg $ table_arg $ benchmarks_arg $ archs_arg
      $ contexts_list_arg $ limit_arg $ size_arg)

(* ---------------- serve / client ---------------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    value
    & opt string Serve_server.default_config.Serve_server.socket_path
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let pool_arg =
    let doc = "Worker domains serving connections." in
    Arg.(value & opt int 2 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Connections queued beyond the active ones before refusing with busy (0 = unbounded)." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_mrrg_arg =
    let doc = "Resident elaborated MRRGs (tier-1 cache capacity; 0 disables)." in
    Arg.(value & opt int 32 & info [ "cache-mrrg" ] ~docv:"N" ~doc)
  in
  let cache_encodings_arg =
    let doc =
      "Resident solver sessions with compiled encodings (tier-2 cache capacity; 0 disables)."
    in
    Arg.(value & opt int 16 & info [ "cache-encodings" ] ~docv:"N" ~doc)
  in
  let max_limit_arg =
    let doc = "Hard cap on any request's time limit, seconds (0 = uncapped)." in
    Arg.(value & opt float 120.0 & info [ "max-limit" ] ~docv:"SECS" ~doc)
  in
  let run socket pool queue cache_mrrg cache_encodings max_limit =
    let config =
      {
        Serve_server.socket_path = socket;
        pool_size = pool;
        queue_capacity = queue;
        mrrg_capacity = cache_mrrg;
        session_capacity = cache_encodings;
        max_limit;
      }
    in
    let on_ready () =
      Printf.eprintf "cgra_serve: listening on %s (%d workers, caches %d/%d)\n%!" socket pool
        cache_mrrg cache_encodings
    in
    match Serve_server.run ~on_ready config with
    | Ok () -> Printf.eprintf "cgra_serve: shut down cleanly\n%!"
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident mapping daemon: a Unix-socket server whose worker pool, elaborated \
          MRRGs, compiled encodings and learnt solver state survive across requests, so \
          repeated and incremental mapping queries are answered warm (see docs/SERVING.md).  \
          Shuts down gracefully on SIGTERM or a shutdown request, draining in-flight work.")
    Term.(
      const run $ socket_arg $ pool_arg $ queue_arg $ cache_mrrg_arg $ cache_encodings_arg
      $ max_limit_arg)

let client_cmd =
  let repeat_arg =
    let doc = "Send the request N times over one connection (stress / warm-start probe)." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let stats_req_arg =
    let doc = "Ask for daemon statistics instead of mapping." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let shutdown_arg =
    let doc = "Ask the daemon to shut down gracefully instead of mapping." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let explain_flag_arg =
    let doc = "Request an unsat-core diagnosis for an infeasible answer." in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let exit_of_reply = function
    | Serve_protocol.Verdict v -> (
        match v.Serve_protocol.status with
        | "feasible" | "infeasible" -> 0
        | "timeout" -> 3
        | _ -> 1)
    | Serve_protocol.Stats_reply _ | Serve_protocol.Ok_reply -> 0
    | Serve_protocol.Error_reply { code; _ } -> if code = "protocol" then protocol_exit else 1
  in
  let print_reply ~json = function
    | Serve_protocol.Verdict v ->
        if json then print_endline (Jsonl.to_string (Serve_protocol.verdict_to_json v))
        else begin
          Printf.printf "%s (%.3fs wall) engine=%s cache_hit=%b warm_start=%b%s\n"
            v.Serve_protocol.status v.Serve_protocol.wall_seconds v.Serve_protocol.engine
            v.Serve_protocol.provenance.Serve_protocol.cache_hit
            v.Serve_protocol.provenance.Serve_protocol.warm_start
            (match v.Serve_protocol.objective with
            | Some o -> Printf.sprintf " objective=%d" o
            | None -> "");
          match v.Serve_protocol.core with
          | [] -> ()
          | core -> Printf.printf "core: %s\n" (String.concat " " core)
        end
    | Serve_protocol.Stats_reply s when json ->
        print_endline (Jsonl.to_string (Serve_protocol.stats_to_json s))
    | Serve_protocol.Stats_reply s ->
        Printf.printf
          "requests=%d warm_starts=%d uptime=%.1fs workers=%d\n\
           mrrg cache: %d/%d resident, %d hits, %d misses, %d evictions\n\
           session cache: %d/%d resident, %d hits, %d misses, %d evictions\n"
          s.Serve_protocol.requests s.Serve_protocol.warm_starts
          s.Serve_protocol.uptime_seconds s.Serve_protocol.pool_workers
          s.Serve_protocol.mrrg_size s.Serve_protocol.mrrg_capacity s.Serve_protocol.mrrg_hits
          s.Serve_protocol.mrrg_misses s.Serve_protocol.mrrg_evictions
          s.Serve_protocol.session_size s.Serve_protocol.session_capacity
          s.Serve_protocol.session_hits s.Serve_protocol.session_misses
          s.Serve_protocol.session_evictions
    | Serve_protocol.Ok_reply -> print_endline "ok"
    | Serve_protocol.Error_reply { code; message } ->
        Printf.eprintf "daemon error [%s]: %s\n%!" code message
  in
  let run socket bench arch size contexts limit optimize certify solver explain stats shutdown
      repeat json =
    let payload =
      if shutdown then Serve_protocol.Shutdown
      else if stats then Serve_protocol.Stats
      else
        Serve_protocol.Map
          {
            Serve_protocol.benchmark = bench;
            dfg_text = None;
            arch;
            adl_text = None;
            size;
            contexts;
            limit;
            optimize;
            certify;
            explain;
            backend = Option.map (fun (s : Solver_spec.t) -> s.Solver_spec.name) solver;
          }
    in
    match Serve_client.connect ~socket with
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        exit 1
    | Ok client ->
        let finally () = Serve_client.close client in
        Fun.protect ~finally (fun () ->
            let code = ref 0 in
            for i = 1 to max 1 repeat do
              let request =
                { Serve_protocol.id = Some (string_of_int i); payload }
              in
              match Serve_client.roundtrip client request with
              | Error msg ->
                  prerr_endline ("error: " ^ msg);
                  exit protocol_exit
              | Ok { Serve_protocol.reply; _ } ->
                  print_reply ~json reply;
                  code := exit_of_reply reply
            done;
            if !code <> 0 then exit !code)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send mapping (or stats/shutdown) requests to a running $(b,serve) daemon over its \
          Unix socket.  $(b,--repeat) reuses one connection, so the second and later answers \
          exercise the daemon's caches and warm starts.")
    Term.(
      const run $ socket_arg $ benchmark_arg $ arch_arg $ size_arg $ contexts_arg $ limit_arg
      $ optimize_arg $ certify_arg $ backend_arg $ explain_flag_arg $ stats_req_arg
      $ shutdown_arg $ repeat_arg $ json_arg)

let main =
  let doc = "architecture-agnostic ILP mapping for CGRAs (DAC'18 reproduction)" in
  Cmd.group (Cmd.info "cgra_map" ~version:"1.0.0" ~doc)
    [
      map_cmd; anneal_cmd; config_cmd; simulate_cmd; sweep_cmd; serve_cmd;
      client_cmd; backends_cmd; benchmarks_cmd; archs_cmd; arch_cmd; fuzz_arch_cmd;
      mrrg_dot_cmd; map_dot_cmd; dfg_dot_cmd; adl_cmd; lp_cmd;
    ]

let () = exit (Cmd.eval main)
