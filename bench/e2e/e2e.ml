(* The end-to-end mapping benchmark.

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out F]
       one workload in this process: prints "W metric value unit" for
       every metric, then one JSON line with the metrics BENCHMARK.json
       lists (end_to_end under --trace 0, per_layer under --trace 1)
     e2e.exe run [--seed N] [--seconds S] [--out F] [--trace-out F]
       every workload, each phase in a child process
     e2e.exe compare [--claim METRIC@WORKLOAD]... A.json... -- B.json...
       applies the BENCHMARK.json bounds to two sets of `run --out` files
     e2e.exe smoke
       per workload, one cheap cell of each verdict, timed and traced;
       checks that every metric BENCHMARK.json names is emitted and the
       oracle passes

   Every mode takes [--bench F], the BENCHMARK.json to read (default
   ./BENCHMARK.json); [--seconds] defaults to its run_seconds. *)

module J = Cgra_sweep.Jsonl

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* The variable silently changes the solver's inprocessing schedule;
   empty, it selects the default one. *)
let inprocess_override () =
  match Sys.getenv_opt "CGRA_INPROCESS" with None | Some "" -> false | Some _ -> true

let refuse_inprocess_override () =
  if inprocess_override () then
    die "CGRA_INPROCESS is set; unset it, it changes the solver schedule being measured"

(* ---------------- BENCHMARK.json ---------------- *)

type spec = { name : string; unit_ : string; lower_better : bool; bound : float }

type bench = { run_seconds : float; end_to_end : spec list; per_layer : spec list }

let member k j = match J.member k j with Some v -> v | None -> J.Null

let read_json path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

let read_bench path =
  let j = read_json path in
  let specs key =
    match member key j with
    | J.List xs ->
        List.map
          (fun s ->
            let str k = Option.value (J.to_str (member k s)) ~default:"" in
            {
              name = str "name";
              unit_ = str "unit";
              lower_better = str "better" = "lower";
              bound = Option.value (J.to_float (member "bound" s)) ~default:0.0;
            })
          xs
    | _ -> die "%s: no %s list" path key
  in
  let run_seconds =
    match J.to_float (member "run_seconds" j) with
    | Some s -> s
    | None -> die "%s: no run_seconds" path
  in
  { run_seconds; end_to_end = specs "end_to_end"; per_layer = specs "per_layer" }

(* ---------------- one workload ---------------- *)

let print_metric workload (m : Measure.metric) =
  Printf.printf "%s %s %.12g %s\n" workload m.Measure.name m.Measure.value m.Measure.unit_

let metrics_json (ms : Measure.metric list) =
  J.Obj
    (List.map
       (fun (m : Measure.metric) ->
         ( m.Measure.name,
           J.Obj [ ("value", J.Num m.Measure.value); ("unit", J.Str m.Measure.unit_) ] ))
       ms)

(* Print every metric, then the result line: the [wanted] metrics only.
   [true] when every query passed the oracle and every wanted metric was
   measured. *)
let report ~workload ~(wanted : spec list) (r : Measure.report) =
  List.iter (print_metric workload) r.Measure.metrics;
  List.iter (fun f -> Printf.eprintf "%s FAILED %s\n" workload f) r.Measure.failures;
  let find s =
    List.find_opt (fun (m : Measure.metric) -> m.Measure.name = s.name) r.Measure.metrics
  in
  let chosen, missing =
    List.partition_map
      (fun s ->
        match find s with
        | Some m when Float.is_finite m.Measure.value -> Left m
        | _ -> Right s.name)
      wanted
  in
  List.iter (fun n -> Printf.eprintf "%s: metric %s was not measured\n" workload n) missing;
  let correct = r.Measure.failures = [] && missing = [] in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int r.Measure.attempted));
            ("failed", J.Num (float_of_int (List.length r.Measure.failures)));
            ("metrics", metrics_json chosen);
          ]));
  correct

let find_workload name =
  match Corpus.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.Corpus.name) Corpus.workloads))

let workload_mode ~bench ~workload ~seed ~seconds ~trace ~trace_out =
  let spec = read_bench bench in
  let seconds = Option.value seconds ~default:spec.run_seconds in
  let cfg = { Measure.workload = find_workload workload; seed; seconds; smoke = false } in
  let r = if trace then Measure.traced cfg else Measure.end_to_end cfg in
  Option.iter
    (fun path ->
      let fd = J.open_append path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter
            (fun q -> List.iter (J.append_line fd) (Span.to_json ~workload q))
            r.Measure.traces))
    trace_out;
  let wanted = if trace then spec.per_layer else spec.end_to_end in
  exit (if report ~workload ~wanted r then 0 else 1)

(* ---------------- run ---------------- *)

type phase = {
  p_correct : bool;
  p_attempted : int;
  p_failed : int;
  p_metrics : (string * J.t) list;
}

(* Run one phase of one workload in a child process, echoing its metric
   lines. *)
let child ~bench ~seed ~seconds ~trace_out ~trace workload =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed ]
    @ [ "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ [ "--bench"; bench ]
    @ match trace_out with Some f when trace -> [ "--trace-out"; f ] | _ -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  let metrics =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ w; name; value; unit_ ] when w = workload -> (
            print_endline l;
            match float_of_string_opt value with
            | Some v -> Some (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit_) ])
            | None -> None)
        | _ -> None)
      lines
  in
  let result = match List.rev lines with last :: _ -> J.of_string last | [] -> Error "no output" in
  match (status, result) with
  | Unix.WEXITED _, Ok j ->
      let int k = Option.value (J.to_int (member k j)) ~default:0 in
      {
        p_correct = status = Unix.WEXITED 0 && J.to_bool (member "correct" j) = Some true;
        p_attempted = int "attempted";
        p_failed = int "failed";
        p_metrics = metrics;
      }
  | _ -> { p_correct = false; p_attempted = 0; p_failed = 0; p_metrics = metrics }

let run_mode ~bench ~seed ~seconds ~out ~trace_out =
  let seconds = Option.value seconds ~default:(read_bench bench).run_seconds in
  let workloads = List.map (fun w -> w.Corpus.name) Corpus.workloads in
  let results =
    List.map
      (fun w ->
        let phases =
          List.map (fun trace -> child ~bench ~seed ~seconds ~trace_out ~trace w) [ false; true ]
        in
        let sum f = J.Num (float_of_int (List.fold_left (fun a p -> a + f p) 0 phases)) in
        let correct = List.for_all (fun p -> p.p_correct) phases in
        if not correct then Printf.eprintf "e2e: workload %s failed\n%!" w;
        ( w,
          correct,
          J.Obj
            [
              ("correct", J.Bool correct);
              ("attempted", sum (fun p -> p.p_attempted));
              ("failed", sum (fun p -> p.p_failed));
              ("metrics", J.Obj (List.concat_map (fun p -> p.p_metrics) phases));
            ] ))
      workloads
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("seed", J.Num (float_of_int seed));
                    ("seconds", J.Num seconds);
                    ("workloads", J.Obj (List.map (fun (w, _, j) -> (w, j)) results));
                  ]));
          output_char oc '\n'))
    out;
  exit (if List.for_all (fun (_, correct, _) -> correct) results then 0 else 1)

(* ---------------- compare ---------------- *)

let values files ~workload ~metric =
  List.filter_map
    (fun j ->
      let w = member workload (member "workloads" j) in
      J.to_float (member "value" (member metric (member "metrics" w))))
    files

let spread xs =
  let q1, q3 = Stats.quartiles xs in
  (q3 -. q1) /. Stats.median xs

(* (correct, failed) of [workload] in each file that ran it. *)
let outcomes files ~workload =
  List.filter_map
    (fun j ->
      match member workload (member "workloads" j) with
      | J.Null -> None
      | w ->
          Some
            ( J.to_bool (member "correct" w) = Some true,
              Option.value (J.to_int (member "failed" w)) ~default:max_int ))
    files

(* B's runs of [w] hold up when each is correct and none fails more
   queries than A's median run: otherwise a change that fails fast
   could read as a speed-up. *)
let holds_up ~parent ~change w =
  let a = outcomes parent ~workload:w and b = outcomes change ~workload:w in
  let a_failed = Stats.median (List.map (fun (_, f) -> float_of_int f) a) in
  let correct xs = List.length (List.filter fst xs) in
  let b_failed = List.fold_left (fun m (_, f) -> max m f) 0 b in
  let ok = correct b = List.length b && not (float_of_int b_failed > a_failed) in
  Printf.printf "%-16s %-15s A %d/%d correct, median %g failed; B %d/%d correct, at most %d failed: %s\n"
    w "correctness" (correct a) (List.length a) a_failed (correct b) (List.length b) b_failed
    (if ok then "holds" else "worse");
  ok

let compare_mode ~bench ~claims ~parent ~change =
  let spec = read_bench bench in
  if parent = [] || change = [] then die "compare needs result files on both sides of --";
  let parent = List.map read_json parent and change = List.map read_json change in
  let workloads =
    List.concat_map
      (fun j -> match member "workloads" j with J.Obj ws -> List.map fst ws | _ -> [])
      (parent @ change)
    |> List.sort_uniq compare
  in
  let bad = ref false in
  let failing = List.filter (fun w -> not (holds_up ~parent ~change w)) workloads in
  if failing <> [] then bad := true;
  Printf.printf "%-16s %-15s %12s %25s %12s %25s %8s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let a = values parent ~workload:w ~metric:s.name
          and b = values change ~workload:w ~metric:s.name in
          if a <> [] && b <> [] then begin
            let ma = Stats.median a and mb = Stats.median b in
            let better x y = if s.lower_better then x < y else x > y in
            (* positive: B is worse than A, as a share of A's median *)
            let worse = (if s.lower_better then mb -. ma else ma -. mb) /. ma in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
            let verdict =
              if Float.max (spread a) (spread b) > s.bound then
                if all_better then "improved" else "unresolved"
              else if worse > s.bound then "worse"
              else if -.worse > s.bound then "improved"
              else "unchanged"
            in
            if verdict = "worse" then bad := true;
            let q xs =
              let q1, q3 = Stats.quartiles xs in
              Printf.sprintf "[%.6g, %.6g]" q1 q3
            in
            Printf.printf "%-16s %-15s %12.6g %25s %12.6g %25s %+7.1f%%  %s (bound %g%%)\n" w s.name
              ma (q a) mb (q b)
              (100.0 *. (mb -. ma) /. ma)
              verdict (100.0 *. s.bound)
          end)
        spec.end_to_end)
    workloads;
  (* A named claim: B holds up on the workload, wins at least 9 of 10
     pairs (ties count for neither) and the medians differ by more than
     A's interquartile range. *)
  List.iter
    (fun claim ->
      match String.index_opt claim '@' with
      | None -> die "a claim is METRIC@WORKLOAD, got %S" claim
      | Some i ->
          let metric = String.sub claim 0 i
          and w = String.sub claim (i + 1) (String.length claim - i - 1) in
          let s =
            match List.find_opt (fun s -> s.name = metric) spec.end_to_end with
            | Some s -> s
            | None -> die "%s is not an end-to-end metric" metric
          in
          let a = values parent ~workload:w ~metric and b = values change ~workload:w ~metric in
          let n = min (List.length a) (List.length b) in
          let first xs = List.filteri (fun i _ -> i < n) xs in
          let pairs = List.combine (first a) (first b) in
          let wins =
            List.length
              (List.filter (fun (x, y) -> if s.lower_better then y < x else y > x) pairs)
          in
          let q1, q3 = Stats.quartiles a in
          let gap = (Stats.median a -. Stats.median b) *. if s.lower_better then 1.0 else -1.0 in
          let met = n > 0 && 10 * wins >= 9 * n && gap > q3 -. q1 && not (List.mem w failing) in
          if not met then bad := true;
          Printf.printf "claim %s: wins %d/%d pairs, median gap %.6g vs parent IQR %.6g: %s\n" claim
            wins n gap (q3 -. q1)
            (if met then "met" else "not met"))
    claims;
  exit (if !bad then 1 else 0)

(* ---------------- smoke ---------------- *)

let smoke_mode ~bench =
  let spec = read_bench bench in
  let ok = ref true in
  List.iter
    (fun (w : Corpus.workload) ->
      let cfg = { Measure.workload = w; seed = 1; seconds = 0.0; smoke = true } in
      let reports = [ Measure.end_to_end cfg; Measure.traced cfg ] in
      let emitted = List.concat_map (fun r -> r.Measure.metrics) reports in
      let failures = List.concat_map (fun r -> r.Measure.failures) reports in
      List.iter (fun f -> Printf.printf "%s FAILED %s\n" w.Corpus.name f) failures;
      List.iter
        (fun s ->
          match List.find_opt (fun (m : Measure.metric) -> m.Measure.name = s.name) emitted with
          | Some m when m.Measure.unit_ = s.unit_ && Float.is_finite m.Measure.value -> ()
          | Some m ->
              ok := false;
              Printf.printf "%s: %s = %g %s (BENCHMARK.json: unit %s)\n" w.Corpus.name s.name
                m.Measure.value m.Measure.unit_ s.unit_
          | None ->
              ok := false;
              Printf.printf "%s: %s not emitted\n" w.Corpus.name s.name)
        (spec.end_to_end @ spec.per_layer);
      if failures <> [] then ok := false)
    Corpus.workloads;
  if not !ok then exit 1

(* ---------------- command line ---------------- *)

(* Parse [argv] (its element 0 names the mode) and return the anonymous
   arguments. *)
let parse argv specs usage =
  let anon = ref [] in
  (try Arg.parse_argv ~current:(ref 0) argv specs (fun a -> anon := a :: !anon) usage with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  List.rev !anon

let no_anonymous = function [] -> () | a :: _ -> die "unexpected argument %s" a

let () =
  let argv = Sys.argv in
  let rest = Array.sub argv 1 (Array.length argv - 1) in
  let bench = ref "BENCHMARK.json" and seed = ref 1 and seconds = ref None in
  let trace_out = ref None in
  let common =
    [
      ("--bench", Arg.Set_string bench, "FILE  the BENCHMARK.json to read");
      ("--seed", Arg.Set_int seed, "N  orders each pass and draws the request stream");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S  measured time per workload phase (default: BENCHMARK.json's run_seconds)" );
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE  append spans as JSON lines" );
    ]
  in
  match argv with
  | [| _; "--setup-probe"; w |] -> Measure.setup_probe (find_workload w)
  | _ when Array.length argv > 1 && argv.(1) = "run" ->
      refuse_inprocess_override ();
      let out = ref None in
      no_anonymous
        (parse rest
           (common
           @ [ ("--out", Arg.String (fun f -> out := Some f), "FILE  write the results here") ])
           "e2e.exe run [options]");
      run_mode ~bench:!bench ~seed:!seed ~seconds:!seconds ~out:!out ~trace_out:!trace_out
  | _ when Array.length argv > 1 && argv.(1) = "compare" ->
      let claims = ref [] and change = ref [] in
      let parent =
        parse rest
          [
            ("--bench", Arg.Set_string bench, "FILE  the BENCHMARK.json to read");
            ( "--claim",
              Arg.String (fun c -> claims := !claims @ [ c ]),
              "METRIC@WORKLOAD  a claimed gain" );
            ( "--",
              Arg.Rest (fun f -> change := !change @ [ f ]),
              "  then the changed side's files" );
          ]
          "e2e.exe compare [--claim METRIC@WORKLOAD]... PARENT.json... -- CHANGE.json..."
      in
      compare_mode ~bench:!bench ~claims:!claims ~parent ~change:!change
  | _ when Array.length argv > 1 && argv.(1) = "smoke" ->
      (* A test run checks the metrics and the oracle, not timings: it
         runs the default schedule whatever the caller's environment. *)
      if inprocess_override () then Unix.putenv "CGRA_INPROCESS" "";
      no_anonymous
        (parse rest
           [ ("--bench", Arg.Set_string bench, "FILE  the BENCHMARK.json to read") ]
           "e2e.exe smoke");
      smoke_mode ~bench:!bench
  | _ ->
      refuse_inprocess_override ();
      let workload = ref None and trace = ref 0 in
      no_anonymous
        (parse argv
           (common
           @ [
               ("--workload", Arg.String (fun w -> workload := Some w), "W  the workload to run");
               ("--trace", Arg.Set_int trace, "0|1  timed loop (0) or traced phase (1)");
             ])
           "e2e.exe --workload W [options] | run | compare | smoke");
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      match !workload with
      | None -> die "no --workload given (try --help)"
      | Some workload ->
          workload_mode ~bench:!bench ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
            ~trace_out:!trace_out
