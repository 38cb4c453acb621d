module Op = Cgra_dfg.Op

(* ---------------- s-expressions ---------------- *)

type sexp = Atom of string | List of sexp list

let lex text =
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let in_comment = ref false in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := `Atom (Buffer.contents buf) :: !toks;
      Buffer.clear buf
    end
  in
  String.iteri
    (fun _ ch ->
      if !in_comment then begin
        if ch = '\n' then in_comment := false
      end
      else
        match ch with
        | ';' ->
            (* comment to end of line *)
            flush ();
            in_comment := true
        | '(' ->
            flush ();
            toks := `Open :: !toks
        | ')' ->
            flush ();
            toks := `Close :: !toks
        | ' ' | '\t' | '\n' | '\r' -> flush ()
        | c -> Buffer.add_char buf c)
    text;
  flush ();
  List.rev !toks

let parse_sexps text =
  let rec go acc stack toks =
    match toks with
    | [] -> (
        match stack with
        | [] -> Ok (List.rev acc)
        | _ -> Error "unbalanced parentheses: missing ')'")
    | `Open :: rest -> go [] ((acc : sexp list) :: stack) rest
    | `Close :: rest -> (
        match stack with
        | parent :: stack' -> go (List (List.rev acc) :: parent) stack' rest
        | [] -> Error "unbalanced parentheses: extra ')'")
    | `Atom a :: rest -> go (Atom a :: acc) stack rest
  in
  go [] [] (lex text)

let rec print_sexp buf = function
  | Atom a -> Buffer.add_string buf a
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char buf ' ';
          print_sexp buf s)
        items;
      Buffer.add_char buf ')'

(* ---------------- printing ---------------- *)

let prim_sexp = function
  | Primitive.Multiplexer n -> List [ Atom "mux"; Atom (string_of_int n) ]
  | Primitive.Register -> Atom "reg"
  | Primitive.Func_unit spec ->
      List
        [
          Atom "fu";
          List [ Atom "inputs"; Atom (string_of_int spec.Primitive.n_inputs) ];
          List [ Atom "latency"; Atom (string_of_int spec.Primitive.latency) ];
          List [ Atom "ii"; Atom (string_of_int spec.Primitive.initiation_interval) ];
          List (Atom "ops" :: List.map (fun op -> Atom (Op.to_string op)) spec.Primitive.supported);
        ]

let endpoint_atom (ep : Arch.endpoint) = Atom (ep.Arch.inst ^ "." ^ ep.Arch.port)

let to_string arch =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "(arch %s\n" (Arch.name arch));
  List.iter
    (fun (name, prim) ->
      Buffer.add_string buf "  ";
      print_sexp buf (List [ Atom "inst"; Atom name; prim_sexp prim ]);
      Buffer.add_char buf '\n')
    (Arch.instances arch);
  List.iter
    (fun { Arch.src; dst } ->
      Buffer.add_string buf "  ";
      print_sexp buf (List [ Atom "wire"; endpoint_atom src; endpoint_atom dst ]);
      Buffer.add_char buf '\n')
    (Arch.connections arch);
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

let parse_endpoint atom =
  match String.index_opt atom '.' with
  | None -> Error (Printf.sprintf "endpoint %S lacks '.'" atom)
  | Some i ->
      Ok
        {
          Arch.inst = String.sub atom 0 i;
          port = String.sub atom (i + 1) (String.length atom - i - 1);
        }

let parse_int what = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "%s: expected integer, got %S" what a))
  | List _ -> Error (Printf.sprintf "%s: expected integer" what)

(* A count field: an integer no smaller than [least]. *)
let parse_count what ~least v =
  Result.bind (parse_int what v) (fun n ->
      if n >= least then Ok n
      else Error (Printf.sprintf "%s: expected an integer >= %d, got %d" what least n))

let parse_fu_field (spec : Primitive.fu_spec) = function
  | List [ Atom "inputs"; v ] ->
      Result.map (fun n -> { spec with Primitive.n_inputs = n }) (parse_count "inputs" ~least:0 v)
  | List [ Atom "latency"; v ] ->
      Result.map (fun n -> { spec with Primitive.latency = n }) (parse_count "latency" ~least:0 v)
  | List [ Atom "ii"; v ] ->
      Result.map
        (fun n -> { spec with Primitive.initiation_interval = n })
        (parse_count "ii" ~least:1 v)
  | List (Atom "ops" :: ops) ->
      let rec go acc = function
        | [] -> Ok { spec with Primitive.supported = List.rev acc }
        | Atom a :: rest -> (
            match Op.of_string a with
            | Some op -> go (op :: acc) rest
            | None -> Error (Printf.sprintf "unknown op %S" a))
        | List _ :: _ -> Error "ops: expected op names"
      in
      go [] ops
  | other ->
      let buf = Buffer.create 32 in
      print_sexp buf other;
      Error (Printf.sprintf "unknown fu field %s" (Buffer.contents buf))

let parse_prim = function
  | Atom "reg" -> Ok Primitive.Register
  | List [ Atom "mux"; n ] ->
      Result.map (fun n -> Primitive.Multiplexer n) (parse_count "mux" ~least:1 n)
  | List (Atom "fu" :: fields) ->
      let init =
        { Primitive.supported = []; n_inputs = 2; latency = 0; initiation_interval = 1 }
      in
      let rec go spec = function
        | [] -> Ok (Primitive.Func_unit spec)
        | f :: rest -> (
            match parse_fu_field spec f with Ok spec' -> go spec' rest | Error e -> Error e)
      in
      go init fields
  | other ->
      let buf = Buffer.create 32 in
      print_sexp buf other;
      Error (Printf.sprintf "unknown primitive %s" (Buffer.contents buf))

(* ---------------- generator configs ---------------- *)

let config_sexp (c : Library.config) =
  List
    (Atom "arch-gen"
    :: List [ Atom "rows"; Atom (string_of_int c.Library.rows) ]
    :: List [ Atom "cols"; Atom (string_of_int c.Library.cols) ]
    :: List [ Atom "topology"; Atom (Topology.to_string c.Library.topology) ]
    :: List [ Atom "fu-mix"; Atom (Library.fu_mix_to_string c.Library.fu_mix) ]
    ::
    (match c.Library.route with
    | Library.Direct -> []
    | Library.Switchbox n -> [ List [ Atom "switchbox"; Atom (string_of_int n) ] ]))

let config_to_string c =
  let buf = Buffer.create 128 in
  print_sexp buf (config_sexp c);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let parse_config items =
  let rec go (c : Library.config) = function
    | [] -> Ok c
    | List [ Atom "rows"; v ] :: rest ->
        Result.bind (parse_int "rows" v) (fun n -> go { c with Library.rows = n } rest)
    | List [ Atom "cols"; v ] :: rest ->
        Result.bind (parse_int "cols" v) (fun n -> go { c with Library.cols = n } rest)
    | List [ Atom "topology"; Atom t ] :: rest -> (
        match Topology.of_string t with
        | Some topology -> go { c with Library.topology } rest
        | None -> Error (Printf.sprintf "unknown topology %S" t))
    | List [ Atom "fu-mix"; Atom m ] :: rest -> (
        match Library.fu_mix_of_string m with
        | Some fu_mix -> go { c with Library.fu_mix } rest
        | None -> Error (Printf.sprintf "unknown fu-mix %S" m))
    | List [ Atom "switchbox"; v ] :: rest ->
        Result.bind (parse_int "switchbox" v) (fun n ->
            go { c with Library.route = Library.Switchbox n } rest)
    | other :: _ ->
        let buf = Buffer.create 32 in
        print_sexp buf other;
        Error (Printf.sprintf "unknown arch-gen field %s" (Buffer.contents buf))
  in
  go Library.default items

let config_of_string text =
  match parse_sexps text with
  | Error e -> Error e
  | Ok [ List (Atom "arch-gen" :: items) ] -> parse_config items
  | Ok _ -> Error "expected a single (arch-gen ...) form"

let of_string text =
  match parse_sexps text with
  | Error e -> Error e
  | Ok [ List (Atom "arch-gen" :: items) ] -> (
      match parse_config items with
      | Error e -> Error e
      | Ok config -> (
          match Library.make config with
          | arch -> Ok arch
          | exception Invalid_argument m -> Error m))
  | Ok [ List (Atom "arch" :: Atom name :: items) ] -> (
      let b = Arch.Builder.create ~name () in
      let rec go = function
        | [] -> (
            match Arch.Builder.freeze b with
            | arch -> Ok arch
            | exception Invalid_argument m -> Error m)
        | List [ Atom "inst"; Atom iname; prim ] :: rest -> (
            match parse_prim prim with
            | Ok p -> (
                match Arch.Builder.add b iname p with
                | () -> go rest
                | exception Invalid_argument m -> Error m)
            | Error e -> Error e)
        | List [ Atom "wire"; Atom s; Atom d ] :: rest -> (
            match (parse_endpoint s, parse_endpoint d) with
            | Ok src, Ok dst ->
                Arch.Builder.connect b ~src ~dst;
                go rest
            | Error e, _ | _, Error e -> Error e)
        | other :: _ ->
            let buf = Buffer.create 32 in
            print_sexp buf other;
            Error (Printf.sprintf "unexpected form %s" (Buffer.contents buf))
      in
      go items)
  | Ok _ -> Error "expected a single (arch <name> ...) or (arch-gen ...) form"
