module Deadline = Cgra_util.Deadline
module Model = Cgra_ilp.Model
module Lp_format = Cgra_ilp.Lp_format
module Solve = Cgra_ilp.Solve

type spec = {
  name : string;
  doc : string;
  binary : string;
  env_override : string;
  dialect : Sol_parse.dialect;
  version_args : string list;
  command : lp_file:string -> sol_file:string -> seconds:float option -> string list;
}

let resolved_binary spec =
  match Sys.getenv_opt spec.env_override with
  | Some path when path <> "" -> Some path
  | _ -> Option.map (fun _ -> spec.binary) (Subprocess.find_in_path spec.binary)

(* First output line that looks like a version banner (contains a
   digit), truncated for display. *)
let version_of_output output =
  String.split_on_char '\n' output
  |> List.find_map (fun line ->
         let line = String.trim line in
         if line <> "" && String.exists (fun c -> c >= '0' && c <= '9') line then
           Some (if String.length line > 72 then String.sub line 0 72 else line)
         else None)

let probe spec =
  match resolved_binary spec with
  | None ->
      Backend.Unavailable
        (Printf.sprintf "%s: not found on PATH (set $%s to override)" spec.binary
           spec.env_override)
  | Some binary -> (
      match
        Subprocess.run ~deadline:(Deadline.after ~seconds:10.0) ~prog:binary
          ~args:spec.version_args ()
      with
      | Error why -> Backend.Unavailable why
      | Ok out -> Backend.Available { version = version_of_output out.Subprocess.output })

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tail ?(n = 400) s = if String.length s <= n then s else String.sub s (String.length s - n) n

(* Translate a parsed solution into a replay-validated engine outcome.
   Everything the external solver claims is recomputed from the model:
   values must be integral, the assignment must satisfy every row, and
   the objective must agree with its claim. *)
let validated_outcome spec model (sol : Sol_parse.t) =
  let fail fmt = Printf.ksprintf (fun m -> raise (Backend.Error (spec.name ^ ": " ^ m))) fmt in
  match sol.Sol_parse.status with
  | Sol_parse.Infeasible -> Solve.Infeasible
  | Sol_parse.Unknown _ -> Solve.Timeout
  | (Sol_parse.Optimal | Sol_parse.Feasible) as status ->
      let names = Lp_format.external_names model in
      let index = Hashtbl.create (Array.length names) in
      Array.iteri (fun v n -> Hashtbl.replace index n v) names;
      let assign = Array.make (Model.nvars model) false in
      List.iter
        (fun (name, value) ->
          match Hashtbl.find_opt index name with
          | None -> fail "solution names unknown variable %S" name
          | Some v ->
              if Float.abs (value -. Float.round value) > 1e-4 then
                fail "non-integral value %g for %s" value name
              else assign.(v) <- Float.round value >= 0.5)
        sol.Sol_parse.values;
      let value v = assign.(v) in
      if not (Model.feasible model value) then
        fail "claimed assignment fails independent replay (violates a constraint row)";
      let objective = Model.objective_value model value in
      (match (Model.objective model, sol.Sol_parse.objective) with
      | Model.Minimize _, Some claimed when Float.abs (claimed -. float_of_int objective) > 0.5
        ->
          fail "claimed objective %g but replay computes %d" claimed objective
      | _ -> ());
      match status with
      | Sol_parse.Optimal -> Solve.Optimal (assign, objective)
      | _ -> Solve.Feasible (assign, objective)

let solve spec ?(deadline = Deadline.none) model =
  let binary =
    match resolved_binary spec with
    | Some b -> b
    | None ->
        raise
          (Backend.Error
             (Printf.sprintf "%s: %s not found on PATH (set $%s to override)" spec.name
                spec.binary spec.env_override))
  in
  let lp_file = Filename.temp_file "cgra_model" ".lp" in
  let sol_file = Filename.temp_file "cgra_sol" ".sol" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove lp_file with Sys_error _ -> ());
      try Sys.remove sol_file with Sys_error _ -> ())
    (fun () ->
      write_file lp_file (Lp_format.to_string model);
      let args =
        spec.command ~lp_file ~sol_file ~seconds:(Deadline.remaining deadline)
      in
      match Subprocess.run ~deadline ~prog:binary ~args () with
      | Error why -> raise (Backend.Error (Printf.sprintf "%s: %s" spec.name why))
      | Ok proc ->
          let sol_text = try read_file sol_file with _ -> "" in
          if String.trim sol_text = "" then
            if proc.Subprocess.killed then Solve.Timeout
            else
              raise
                (Backend.Error
                   (Printf.sprintf "%s: no solution file (exit %d): %s" spec.name
                      proc.Subprocess.exit_code
                      (tail proc.Subprocess.output)))
          else
            (match Sol_parse.parse spec.dialect sol_text with
            | Error why ->
                raise
                  (Backend.Error
                     (Printf.sprintf "%s: unparseable solution file: %s" spec.name why))
            | Ok sol -> validated_outcome spec model sol))

let make spec =
  {
    Backend.name = spec.name;
    doc = spec.doc;
    available = (fun () -> probe spec);
    solve = (fun ?deadline model -> solve spec ?deadline model);
  }

let time_args seconds fmt =
  match seconds with
  | None -> []
  | Some s -> fmt (Float.max 1.0 (Float.ceil s))

let highs =
  make
    {
      name = "highs";
      doc = "HiGHS open-source MILP solver (LP file in, solution file out)";
      binary = "highs";
      env_override = "CGRA_HIGHS_BIN";
      dialect = Sol_parse.Highs;
      version_args = [ "--version" ];
      command =
        (fun ~lp_file ~sol_file ~seconds ->
          [ "--solution_file"; sol_file ]
          @ time_args seconds (fun s -> [ "--time_limit"; Printf.sprintf "%.0f" s ])
          @ [ lp_file ]);
    }

let cbc =
  make
    {
      name = "cbc";
      doc = "COIN-OR CBC MILP solver";
      binary = "cbc";
      env_override = "CGRA_CBC_BIN";
      dialect = Sol_parse.Cbc;
      version_args = [ "-quit" ];
      command =
        (fun ~lp_file ~sol_file ~seconds ->
          [ lp_file ]
          @ time_args seconds (fun s -> [ "sec"; Printf.sprintf "%.0f" s ])
          @ [ "printingOptions"; "all"; "solve"; "solution"; sol_file ]);
    }

let scip =
  make
    {
      name = "scip";
      doc = "SCIP constraint-integer-programming solver";
      binary = "scip";
      env_override = "CGRA_SCIP_BIN";
      dialect = Sol_parse.Scip;
      version_args = [ "--version" ];
      command =
        (fun ~lp_file ~sol_file ~seconds ->
          let limits =
            time_args seconds (fun s -> [ "-c"; Printf.sprintf "set limits time %.0f" s ])
          in
          limits
          @ [
              "-c"; Printf.sprintf "read %s" lp_file;
              "-c"; "optimize";
              "-c"; Printf.sprintf "write solution %s" sol_file;
              "-c"; "quit";
            ]);
    }
