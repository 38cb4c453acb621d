module Arch = Cgra_arch.Arch
module Primitive = Cgra_arch.Primitive
module Library = Cgra_arch.Library
module Adl = Cgra_arch.Adl
module Op = Cgra_dfg.Op

let ep inst port = { Arch.inst; port }

let tiny_arch () =
  let b = Arch.Builder.create ~name:"tiny" () in
  Arch.Builder.add b "m" (Primitive.Multiplexer 2);
  Arch.Builder.add b "f" (Primitive.alu ());
  Arch.Builder.add b "r" Primitive.Register;
  Arch.Builder.connect b ~src:(ep "m" "out") ~dst:(ep "f" "in0");
  Arch.Builder.connect b ~src:(ep "m" "out") ~dst:(ep "f" "in1");
  Arch.Builder.connect b ~src:(ep "f" "out") ~dst:(ep "r" "in");
  Arch.Builder.connect b ~src:(ep "r" "out") ~dst:(ep "m" "in0");
  Arch.Builder.freeze b

(* ---------------- primitives ---------------- *)

let test_primitive_ports () =
  Alcotest.(check (list string)) "mux ports" [ "in0"; "in1"; "in2" ]
    (Primitive.input_port_names (Primitive.Multiplexer 3));
  Alcotest.(check (list string)) "reg in" [ "in" ] (Primitive.input_port_names Primitive.Register);
  Alcotest.(check (list string)) "alu ins" [ "in0"; "in1" ]
    (Primitive.input_port_names (Primitive.alu ()));
  Alcotest.(check (list string)) "out" [ "out" ] (Primitive.output_port_names Primitive.Register)

let test_primitive_supports () =
  Alcotest.(check bool) "alu adds" true (Primitive.supports (Primitive.alu ()) Op.Add);
  Alcotest.(check bool) "alu muls" true (Primitive.supports (Primitive.alu ()) Op.Mul);
  Alcotest.(check bool) "alu-no-mul" false
    (Primitive.supports (Primitive.alu ~with_mul:false ()) Op.Mul);
  Alcotest.(check bool) "alu no load" false (Primitive.supports (Primitive.alu ()) Op.Load);
  Alcotest.(check bool) "mem loads" true (Primitive.supports Primitive.mem_port Op.Load);
  Alcotest.(check bool) "io inputs" true (Primitive.supports Primitive.io_pad Op.Input);
  Alcotest.(check bool) "mux routes" false (Primitive.supports (Primitive.Multiplexer 2) Op.Add)

(* ---------------- builder / validation ---------------- *)

let test_arch_basics () =
  let a = tiny_arch () in
  Alcotest.(check int) "instances" 3 (Arch.n_instances a);
  Alcotest.(check bool) "validates" true (Arch.validate a = Ok ());
  Alcotest.(check bool) "find" true (Arch.find a "f" <> None);
  Alcotest.(check bool) "driver of f.in0" true
    (Arch.driver a (ep "f" "in0") = Some (ep "m" "out"));
  Alcotest.(check int) "mux fanout" 2 (List.length (Arch.fanout a (ep "m" "out")))

let test_arch_rejects_bad () =
  let bad mk =
    try
      ignore (mk ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "duplicate inst" true
    (bad (fun () ->
         let b = Arch.Builder.create () in
         Arch.Builder.add b "x" Primitive.Register;
         Arch.Builder.add b "x" Primitive.Register));
  Alcotest.(check bool) "unknown instance" true
    (bad (fun () ->
         let b = Arch.Builder.create () in
         Arch.Builder.add b "r" Primitive.Register;
         Arch.Builder.connect b ~src:(ep "nope" "out") ~dst:(ep "r" "in");
         Arch.Builder.freeze b));
  Alcotest.(check bool) "input as source" true
    (bad (fun () ->
         let b = Arch.Builder.create () in
         Arch.Builder.add b "r" Primitive.Register;
         Arch.Builder.add b "r2" Primitive.Register;
         Arch.Builder.connect b ~src:(ep "r" "in") ~dst:(ep "r2" "in");
         Arch.Builder.freeze b));
  Alcotest.(check bool) "double driven" true
    (bad (fun () ->
         let b = Arch.Builder.create () in
         Arch.Builder.add b "r" Primitive.Register;
         Arch.Builder.add b "a" Primitive.Register;
         Arch.Builder.add b "c" Primitive.Register;
         Arch.Builder.connect b ~src:(ep "a" "out") ~dst:(ep "r" "in");
         Arch.Builder.connect b ~src:(ep "c" "out") ~dst:(ep "r" "in");
         Arch.Builder.freeze b))

(* ---------------- library ---------------- *)

let test_library_sizes () =
  let a = Library.make Library.default in
  let s = Arch.summary a in
  (* 16 block FUs + 4 memory ports + 16 I/O pads *)
  Alcotest.(check int) "func units" 36 s.Arch.n_func_units;
  (* 4 muxes per block (a, b, bypass, reg select) + 8 memory muxes
     + 16 I/O pad input selectors *)
  Alcotest.(check int) "muxes" 88 s.Arch.n_muxes;
  Alcotest.(check int) "registers" 16 s.Arch.n_registers;
  Alcotest.(check bool) "validates" true (Arch.validate a = Ok ())

let test_library_heterogeneous () =
  let config = { Library.default with Library.fu_mix = Library.Heterogeneous } in
  let a = Library.make config in
  let muls = ref 0 in
  for row = 0 to 3 do
    for col = 0 to 3 do
      match Arch.find a (Library.block_fu ~row ~col) with
      | Some prim -> if Primitive.supports prim Op.Mul then incr muls
      | None -> Alcotest.failf "missing fu at %d,%d" row col
    done
  done;
  Alcotest.(check int) "half the ALUs multiply" 8 !muls

let test_library_diagonal_wider_muxes () =
  let orth = Library.make Library.default in
  let diag = Library.make { Library.default with Library.topology = Library.King_mesh } in
  let mux_size a nm =
    match Arch.find a nm with
    | Some (Primitive.Multiplexer n) -> n
    | _ -> Alcotest.failf "no mux %s" nm
  in
  (* interior block: orth 4 neighbours vs diag 8, plus the memory-port
     output, the register feedback, and the 4 bus pads covering the
     block's row and column *)
  let interior = "b1_1_mux_a" in
  Alcotest.(check int) "orth interior mux" 10 (mux_size orth interior);
  Alcotest.(check int) "diag interior mux" 14 (mux_size diag interior)

let test_library_io_pad_count () =
  let a = Library.make Library.default in
  let pads =
    List.filter
      (fun (_, p) ->
        match (p : Primitive.t) with
        | Primitive.Func_unit { supported; _ } -> List.mem Op.Input supported
        | _ -> false)
      (Arch.instances a)
  in
  Alcotest.(check int) "16 io pads on a 4x4" 16 (List.length pads)

let test_library_small_grids () =
  List.iter
    (fun (rows, cols) ->
      let a = Library.make { Library.default with Library.rows; cols } in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d validates" rows cols)
        true
        (Arch.validate a = Ok ()))
    [ (1, 1); (1, 2); (2, 2); (2, 3); (3, 3) ]

let test_paper_configs () =
  let configs = Library.paper_configs ~size:4 in
  Alcotest.(check int) "four architectures" 4 (List.length configs);
  Alcotest.(check bool) "lookup" true (Library.find_config ~size:4 "homo-diag" <> None);
  Alcotest.(check bool) "unknown" true (Library.find_config ~size:4 "nope" = None)

(* ---------------- ADL ---------------- *)

let test_adl_roundtrip_tiny () =
  let a = tiny_arch () in
  match Adl.of_string (Adl.to_string a) with
  | Error e -> Alcotest.fail e
  | Ok a' ->
      Alcotest.(check int) "instances" (Arch.n_instances a) (Arch.n_instances a');
      Alcotest.(check int) "connections"
        (List.length (Arch.connections a))
        (List.length (Arch.connections a'));
      Alcotest.(check string) "name" (Arch.name a) (Arch.name a')

let test_adl_roundtrip_paper_arch () =
  let a = Library.make { Library.default with Library.rows = 2; cols = 2 } in
  match Adl.of_string (Adl.to_string a) with
  | Error e -> Alcotest.fail e
  | Ok a' ->
      Alcotest.(check int) "instances" (Arch.n_instances a) (Arch.n_instances a');
      Alcotest.(check int) "connections"
        (List.length (Arch.connections a))
        (List.length (Arch.connections a'));
      (* primitives survive *)
      List.iter
        (fun (nm, prim) ->
          match Arch.find a' nm with
          | None -> Alcotest.failf "lost instance %s" nm
          | Some prim' ->
              Alcotest.(check string) ("prim " ^ nm) (Primitive.describe prim)
                (Primitive.describe prim'))
        (Arch.instances a)

let test_adl_comments () =
  let text =
    "; header comment\n(arch a ; inline\n  (inst x reg) ; trailing\n  (inst y reg)\n  (wire x.out y.in))\n"
  in
  match Adl.of_string text with
  | Error e -> Alcotest.fail e
  | Ok a ->
      Alcotest.(check int) "two instances" 2 (Arch.n_instances a);
      Alcotest.(check int) "one wire" 1 (List.length (Arch.connections a))

let test_adl_errors () =
  let check_err s text =
    match Adl.of_string text with
    | Ok _ -> Alcotest.failf "%s: expected failure" s
    | Error _ -> ()
  in
  check_err "garbage" "hello";
  check_err "unbalanced" "(arch a (inst x reg)";
  check_err "bad primitive" "(arch a (inst x (frob 3)))";
  check_err "bad op" "(arch a (inst x (fu (ops zorp))))";
  check_err "bad endpoint" "(arch a (inst x reg) (wire x xout))";
  check_err "dangling wire" "(arch a (inst x reg) (wire y.out x.in))"

(* ---------------- topology ---------------- *)

let test_topology_names () =
  let module Topology = Cgra_arch.Topology in
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool) (s ^ " parses") true (Topology.of_string s = Some t);
      Alcotest.(check string) (s ^ " prints") s (Topology.to_string t))
    Topology.all;
  (* historical aliases used in architecture names and the CLI *)
  List.iter
    (fun (alias, t) ->
      Alcotest.(check bool) (alias ^ " alias") true (Topology.of_string alias = Some t))
    [
      ("orth", Topology.Mesh);
      ("orthogonal", Topology.Mesh);
      ("diag", Topology.King_mesh);
      ("diagonal", Topology.King_mesh);
      ("king", Topology.King_mesh);
      ("dtorus", Topology.Diagonal_torus);
      ("diag-torus", Topology.Diagonal_torus);
    ];
  Alcotest.(check bool) "unknown rejected" true (Topology.of_string "hypercube" = None);
  (* short tags match the names the paper-era library stamped *)
  Alcotest.(check string) "mesh short" "orth" (Topology.short Topology.Mesh);
  Alcotest.(check string) "king short" "diag" (Topology.short Topology.King_mesh)

let test_topology_neighbours () =
  let module Topology = Cgra_arch.Topology in
  let sorted l = List.sort compare l in
  (* 3x3 mesh corner: two neighbours *)
  Alcotest.(check (list (pair int int)))
    "mesh corner"
    [ (0, 1); (1, 0) ]
    (sorted (Topology.neighbours Topology.Mesh ~rows:3 ~cols:3 ~row:0 ~col:0));
  (* torus wraps the corner up to the full four *)
  Alcotest.(check (list (pair int int)))
    "torus corner"
    [ (0, 1); (0, 2); (1, 0); (2, 0) ]
    (sorted (Topology.neighbours Topology.Torus ~rows:3 ~cols:3 ~row:0 ~col:0));
  (* king-mesh interior: all eight *)
  Alcotest.(check int) "king interior" 8
    (List.length (Topology.neighbours Topology.King_mesh ~rows:3 ~cols:3 ~row:1 ~col:1));
  (* a 2-wide torus folds the two wrap directions onto one tile *)
  Alcotest.(check (list (pair int int)))
    "narrow torus dedups"
    [ (0, 1); (1, 0) ]
    (sorted (Topology.neighbours Topology.Torus ~rows:2 ~cols:2 ~row:0 ~col:0));
  (* wrap links only ever add neighbours *)
  List.iter
    (fun t ->
      let wrapped = Topology.wrapped t in
      for row = 0 to 2 do
        for col = 0 to 3 do
          let n = Topology.neighbours t ~rows:3 ~cols:4 ~row ~col in
          let nw = Topology.neighbours wrapped ~rows:3 ~cols:4 ~row ~col in
          List.iter
            (fun rc ->
              Alcotest.(check bool)
                (Printf.sprintf "wrap keeps (%d,%d)" row col)
                true (List.mem rc nw))
            n
        done
      done)
    [ Topology.Mesh; Topology.King_mesh ];
  Alcotest.(check bool) "bounds checked" true
    (try
       ignore (Topology.neighbours Topology.Mesh ~rows:2 ~cols:2 ~row:2 ~col:0);
       false
     with Invalid_argument _ -> true)

(* ---------------- generator: names and switchboxes ---------------- *)

let test_name_of_config () =
  let check name config = Alcotest.(check string) name name (Library.name_of_config config) in
  check "homo-orth-4x4" Library.default;
  check "hetero-torus-8x8"
    {
      Library.rows = 8;
      cols = 8;
      topology = Library.Torus;
      fu_mix = Library.Heterogeneous;
      route = Library.Direct;
    };
  check "homo-dtorus-2x3"
    { Library.default with Library.rows = 2; cols = 3; topology = Library.Diagonal_torus };
  check "homo-orth-4x4-sb2" { Library.default with Library.route = Library.Switchbox 2 };
  (* the netlist carries the same name *)
  Alcotest.(check string) "stamped on arch" "homo-torus-4x4"
    (Arch.name (Library.make { Library.default with Library.topology = Library.Torus }))

let test_switchbox_structure () =
  let config =
    { Library.default with Library.rows = 2; cols = 2; route = Library.Switchbox 2 }
  in
  let a = Library.make config in
  let mux_size nm =
    match Arch.find a nm with
    | Some (Primitive.Multiplexer n) -> n
    | _ -> Alcotest.failf "no mux %s" nm
  in
  (* lanes select among every source; operand muxes select among lanes *)
  Alcotest.(check int) "lane width = sources" (Library.mux_source_count config ~row:0 ~col:0)
    (mux_size "b0_0_sb0");
  Alcotest.(check int) "corner sources" 8 (Library.mux_source_count config ~row:0 ~col:0);
  Alcotest.(check int) "operand mux = lanes" 2 (mux_size "b0_0_mux_a");
  Alcotest.(check int) "bypass mux = lanes" 2 (mux_size "b0_0_mux_bp");
  Alcotest.(check bool) "validates" true (Arch.validate a = Ok ());
  (* switchbox adds exactly lanes muxes per block over direct routing *)
  let direct = Library.make { config with Library.route = Library.Direct } in
  let muxes arch = (Arch.summary arch).Arch.n_muxes in
  Alcotest.(check int) "2 extra muxes per block" (muxes direct + (2 * 4)) (muxes a);
  Alcotest.(check bool) "zero lanes rejected" true
    (try
       ignore (Library.make { config with Library.route = Library.Switchbox 0 });
       false
     with Invalid_argument _ -> true)

let test_adl_arch_gen_form () =
  (* parsing the compact form elaborates the same netlist as make *)
  let text = "(arch-gen (rows 2) (cols 3) (topology torus) (fu-mix hetero))" in
  let config =
    {
      Library.rows = 2;
      cols = 3;
      topology = Library.Torus;
      fu_mix = Library.Heterogeneous;
      route = Library.Direct;
    }
  in
  (match Adl.of_string text with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let b = Library.make config in
      Alcotest.(check string) "name" (Arch.name b) (Arch.name a);
      Alcotest.(check bool) "instances" true (Arch.instances a = Arch.instances b);
      Alcotest.(check bool) "connections" true (Arch.connections a = Arch.connections b));
  (* config round-trip and defaults *)
  (match Adl.config_of_string (Adl.config_to_string config) with
  | Error e -> Alcotest.fail e
  | Ok c -> Alcotest.(check bool) "config roundtrip" true (c = config));
  (match Adl.config_of_string "(arch-gen (switchbox 3))" with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check bool) "defaults apply" true
        (c = { Library.default with Library.route = Library.Switchbox 3 }));
  match Adl.of_string "(arch-gen (rows 0))" with
  | Ok _ -> Alcotest.fail "empty grid must not elaborate"
  | Error _ -> ()

(* ---------------- gallery vs docs/ADL.md ---------------- *)

(* The acceptance bar: the manual's gallery table must match
   programmatically-derived MRRG sizes.  Parses the markdown table out
   of docs/ADL.md (a declared dune dependency of this test) and
   re-derives every cell from Library.gallery. *)
let test_gallery_matches_docs () =
  let path = Test_data.path "../docs/ADL.md" in
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let header = "| Name | Size | Interconnect | FU mix | Routing |" in
  let rows =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           String.length l > 0
           && l.[0] = '|'
           && (not (Astring.String.is_prefix ~affix:header l))
           && not (Astring.String.is_prefix ~affix:"|---" l))
    |> List.filter_map (fun l ->
           match String.split_on_char '|' l |> List.map String.trim with
           | [ ""; name; size; topo; mix; routing; nodes; edges; "" ]
             when Library.find_gallery name <> None ->
               Some (name, size, topo, mix, routing, int_of_string nodes, int_of_string edges)
           | _ -> None)
  in
  Alcotest.(check int) "every gallery entry documented" (List.length Library.gallery)
    (List.length rows);
  List.iter2
    (fun (name, config) (doc_name, size, topo, mix, routing, nodes, edges) ->
      Alcotest.(check string) "order and name" name doc_name;
      Alcotest.(check string) (name ^ " size")
        (Printf.sprintf "%dx%d" config.Library.rows config.Library.cols)
        size;
      Alcotest.(check string) (name ^ " topology")
        (Cgra_arch.Topology.to_string config.Library.topology)
        topo;
      Alcotest.(check string) (name ^ " mix") (Library.fu_mix_to_string config.Library.fu_mix) mix;
      Alcotest.(check string) (name ^ " routing")
        (match config.Library.route with
        | Library.Direct -> "direct"
        | Library.Switchbox n -> Printf.sprintf "switchbox-%d" n)
        routing;
      let mrrg = Cgra_mrrg.Build.elaborate (Library.make config) ~ii:1 in
      Alcotest.(check int) (name ^ " nodes") (Cgra_mrrg.Mrrg.n_nodes mrrg) nodes;
      Alcotest.(check int) (name ^ " edges") (Cgra_mrrg.Mrrg.n_edges mrrg) edges)
    Library.gallery rows

let test_find_gallery () =
  Alcotest.(check bool) "torus preset" true (Library.find_gallery "homo-torus-8x8" <> None);
  Alcotest.(check bool) "paper preset" true (Library.find_gallery "homo-orth-4x4" <> None);
  Alcotest.(check bool) "unknown" true (Library.find_gallery "homo-orth" = None);
  (* gallery names are self-describing: name_of_config agrees *)
  List.iter
    (fun (name, config) ->
      Alcotest.(check string) "self-describing" name (Library.name_of_config config))
    Library.gallery

let suites =
  [
    ( "arch:primitive",
      [
        Alcotest.test_case "ports" `Quick test_primitive_ports;
        Alcotest.test_case "supports" `Quick test_primitive_supports;
      ] );
    ( "arch:netlist",
      [
        Alcotest.test_case "basics" `Quick test_arch_basics;
        Alcotest.test_case "rejects bad" `Quick test_arch_rejects_bad;
      ] );
    ( "arch:library",
      [
        Alcotest.test_case "4x4 sizes" `Quick test_library_sizes;
        Alcotest.test_case "heterogeneous mix" `Quick test_library_heterogeneous;
        Alcotest.test_case "diagonal muxes" `Quick test_library_diagonal_wider_muxes;
        Alcotest.test_case "io pads" `Quick test_library_io_pad_count;
        Alcotest.test_case "small grids" `Quick test_library_small_grids;
        Alcotest.test_case "paper configs" `Quick test_paper_configs;
      ] );
    ( "arch:topology",
      [
        Alcotest.test_case "names and aliases" `Quick test_topology_names;
        Alcotest.test_case "neighbours" `Quick test_topology_neighbours;
      ] );
    ( "arch:generator",
      [
        Alcotest.test_case "config names" `Quick test_name_of_config;
        Alcotest.test_case "switchbox structure" `Quick test_switchbox_structure;
        Alcotest.test_case "gallery lookup" `Quick test_find_gallery;
        Alcotest.test_case "gallery matches docs/ADL.md" `Quick test_gallery_matches_docs;
      ] );
    ( "arch:adl",
      [
        Alcotest.test_case "roundtrip tiny" `Quick test_adl_roundtrip_tiny;
        Alcotest.test_case "roundtrip 2x2" `Quick test_adl_roundtrip_paper_arch;
        Alcotest.test_case "comments" `Quick test_adl_comments;
        Alcotest.test_case "parse errors" `Quick test_adl_errors;
        Alcotest.test_case "arch-gen form" `Quick test_adl_arch_gen_form;
      ] );
  ]
