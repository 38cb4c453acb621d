type topology = Topology.t = Mesh | Torus | King_mesh | Diagonal_torus
type fu_mix = Homogeneous | Heterogeneous
type route_mix = Direct | Switchbox of int

type config = {
  rows : int;
  cols : int;
  topology : topology;
  fu_mix : fu_mix;
  route : route_mix;
}

let default = { rows = 4; cols = 4; topology = Mesh; fu_mix = Homogeneous; route = Direct }

let block name part = Printf.sprintf "b%s_%s" name part
let block_name ~row ~col = Printf.sprintf "%d_%d" row col
let block_fu ~row ~col = block (block_name ~row ~col) "fu"
let block_out ~row ~col = { Arch.inst = block (block_name ~row ~col) "reg"; port = "out" }

let has_multiplier config ~row ~col =
  match config.fu_mix with Homogeneous -> true | Heterogeneous -> (row + col) mod 2 = 0

let topology_to_string = Topology.short
let fu_mix_to_string = function Homogeneous -> "homo" | Heterogeneous -> "hetero"

let fu_mix_of_string = function
  | "homo" | "homogeneous" -> Some Homogeneous
  | "hetero" | "heterogeneous" -> Some Heterogeneous
  | _ -> None

let name_of_config config =
  Printf.sprintf "%s-%s-%dx%d%s" (fu_mix_to_string config.fu_mix)
    (Topology.short config.topology)
    config.rows config.cols
    (match config.route with Direct -> "" | Switchbox n -> Printf.sprintf "-sb%d" n)

(* I/O pads on the periphery: one per edge position.  Like the
   row-shared memory ports of Fig. 6, each pad is wired to the 32-bit
   bus of its row (left/right pads) or column (top/bottom pads): its
   output is readable by every block on that bus and its input
   multiplexer selects among their outputs. *)
let io_pads config =
  List.concat
    [
      List.init config.cols (fun c -> (Printf.sprintf "io_t%d" c, `Col c));
      List.init config.cols (fun c -> (Printf.sprintf "io_b%d" c, `Col c));
      List.init config.rows (fun r -> (Printf.sprintf "io_l%d" r, `Row r));
      List.init config.rows (fun r -> (Printf.sprintf "io_r%d" r, `Row r));
    ]

let pad_covers config bus ~row ~col =
  ignore config;
  match bus with `Row r -> r = row | `Col c -> c = col

let pad_blocks config bus =
  match bus with
  | `Row r -> List.init config.cols (fun c -> (r, c))
  | `Col c -> List.init config.rows (fun r -> (r, c))

(* The ordered list of sources feeding a block's input muxes:
   neighbouring block outputs (per the interconnect topology, with
   wrap-around links on the torus variants), the row memory port, the
   block's own registered output (accumulator feedback), and the pads
   whose bus covers this block. *)
let mux_sources config ~row ~col =
  let neighbours =
    Topology.neighbours config.topology ~rows:config.rows ~cols:config.cols ~row ~col
    |> List.map (fun (r, c) -> block_out ~row:r ~col:c)
  in
  let mem = { Arch.inst = Printf.sprintf "mem%d" row; port = "out" } in
  let feedback = block_out ~row ~col in
  let bus_pads =
    List.filter_map
      (fun (pad, bus) ->
        if pad_covers config bus ~row ~col then Some { Arch.inst = pad; port = "out" }
        else None)
      (io_pads config)
  in
  neighbours @ [ mem; feedback ] @ bus_pads

let mux_source_count config ~row ~col = List.length (mux_sources config ~row ~col)

let make config =
  if config.rows < 1 || config.cols < 1 then invalid_arg "Library.make: empty grid";
  (match config.route with
  | Switchbox n when n < 1 -> invalid_arg "Library.make: switchbox needs at least one lane"
  | _ -> ());
  let b = Arch.Builder.create ~name:(name_of_config config) () in
  let pads = io_pads config in
  (* blocks: two operand muxes feed the ALU; a bypass mux provides the
     block's route-through lane; the output register captures either
     the ALU result or the bypassed value, and drives the block's
     single output bus.  With switchbox routing the operand/bypass
     muxes select among the tile's shared router lanes instead of the
     full source list, capping the tile's operand bandwidth at the
     lane count. *)
  for row = 0 to config.rows - 1 do
    for col = 0 to config.cols - 1 do
      let nm part = block (block_name ~row ~col) part in
      let sources = mux_sources config ~row ~col in
      let k = List.length sources in
      let operand_width =
        match config.route with
        | Direct -> k
        | Switchbox lanes ->
            for lane = 0 to lanes - 1 do
              Arch.Builder.add b (nm (Printf.sprintf "sb%d" lane)) (Primitive.Multiplexer k)
            done;
            lanes
      in
      Arch.Builder.add b (nm "mux_a") (Primitive.Multiplexer operand_width);
      Arch.Builder.add b (nm "mux_b") (Primitive.Multiplexer operand_width);
      Arch.Builder.add b (nm "mux_bp") (Primitive.Multiplexer operand_width);
      Arch.Builder.add b (nm "reg_mux") (Primitive.Multiplexer 2);
      Arch.Builder.add b (nm "fu") (Primitive.alu ~with_mul:(has_multiplier config ~row ~col) ());
      Arch.Builder.add b (nm "reg") Primitive.Register;
      Arch.Builder.connect b
        ~src:{ Arch.inst = nm "mux_a"; port = "out" }
        ~dst:{ Arch.inst = nm "fu"; port = "in0" };
      Arch.Builder.connect b
        ~src:{ Arch.inst = nm "mux_b"; port = "out" }
        ~dst:{ Arch.inst = nm "fu"; port = "in1" };
      Arch.Builder.connect b
        ~src:{ Arch.inst = nm "fu"; port = "out" }
        ~dst:{ Arch.inst = nm "reg_mux"; port = "in0" };
      Arch.Builder.connect b
        ~src:{ Arch.inst = nm "mux_bp"; port = "out" }
        ~dst:{ Arch.inst = nm "reg_mux"; port = "in1" };
      Arch.Builder.connect b
        ~src:{ Arch.inst = nm "reg_mux"; port = "out" }
        ~dst:{ Arch.inst = nm "reg"; port = "in" }
    done
  done;
  (* memory ports, one per row, with address and data muxes fed by the
     row's blocks *)
  for row = 0 to config.rows - 1 do
    let mem = Printf.sprintf "mem%d" row in
    Arch.Builder.add b mem Primitive.mem_port;
    Arch.Builder.add b (mem ^ "_mux_a") (Primitive.Multiplexer config.cols);
    Arch.Builder.add b (mem ^ "_mux_d") (Primitive.Multiplexer config.cols);
    Arch.Builder.connect b
      ~src:{ Arch.inst = mem ^ "_mux_a"; port = "out" }
      ~dst:{ Arch.inst = mem; port = "in0" };
    Arch.Builder.connect b
      ~src:{ Arch.inst = mem ^ "_mux_d"; port = "out" }
      ~dst:{ Arch.inst = mem; port = "in1" };
    for col = 0 to config.cols - 1 do
      let src = block_out ~row ~col in
      Arch.Builder.connect b ~src
        ~dst:{ Arch.inst = mem ^ "_mux_a"; port = Printf.sprintf "in%d" col };
      Arch.Builder.connect b ~src
        ~dst:{ Arch.inst = mem ^ "_mux_d"; port = Printf.sprintf "in%d" col }
    done
  done;
  (* I/O pads: the pad input mux selects among its bus's block outputs;
     the pad output is a mux source for those same blocks *)
  List.iter
    (fun (pad, bus) ->
      let blocks = pad_blocks config bus in
      Arch.Builder.add b pad Primitive.io_pad;
      Arch.Builder.add b (pad ^ "_imux") (Primitive.Multiplexer (List.length blocks));
      List.iteri
        (fun i (row, col) ->
          Arch.Builder.connect b ~src:(block_out ~row ~col)
            ~dst:{ Arch.inst = pad ^ "_imux"; port = Printf.sprintf "in%d" i })
        blocks;
      Arch.Builder.connect b
        ~src:{ Arch.inst = pad ^ "_imux"; port = "out" }
        ~dst:{ Arch.inst = pad; port = "in0" })
    pads;
  (* operand/bypass mux input wiring: either straight from the source
     list (Direct) or through the tile's switchbox lanes *)
  for row = 0 to config.rows - 1 do
    for col = 0 to config.cols - 1 do
      let nm part = block (block_name ~row ~col) part in
      let wire_operands srcs =
        List.iteri
          (fun i src ->
            let port = Printf.sprintf "in%d" i in
            Arch.Builder.connect b ~src ~dst:{ Arch.inst = nm "mux_a"; port };
            Arch.Builder.connect b ~src ~dst:{ Arch.inst = nm "mux_b"; port };
            Arch.Builder.connect b ~src ~dst:{ Arch.inst = nm "mux_bp"; port })
          srcs
      in
      let sources = mux_sources config ~row ~col in
      match config.route with
      | Direct -> wire_operands sources
      | Switchbox lanes ->
          for lane = 0 to lanes - 1 do
            let sb = nm (Printf.sprintf "sb%d" lane) in
            List.iteri
              (fun i src ->
                Arch.Builder.connect b ~src
                  ~dst:{ Arch.inst = sb; port = Printf.sprintf "in%d" i })
              sources
          done;
          wire_operands
            (List.init lanes (fun lane ->
                 { Arch.inst = nm (Printf.sprintf "sb%d" lane); port = "out" }))
    done
  done;
  Arch.Builder.freeze b

let paper_configs ~size =
  let cfg topology fu_mix = { rows = size; cols = size; topology; fu_mix; route = Direct } in
  [
    ("hetero-orth", cfg Mesh Heterogeneous);
    ("hetero-diag", cfg King_mesh Heterogeneous);
    ("homo-orth", cfg Mesh Homogeneous);
    ("homo-diag", cfg King_mesh Homogeneous);
  ]

let find_config ~size name = List.assoc_opt name (paper_configs ~size)

let gallery =
  let cfg ?(route = Direct) ~n topology fu_mix = { rows = n; cols = n; topology; fu_mix; route } in
  let presets =
    [
      cfg ~n:4 Torus Homogeneous;
      cfg ~n:4 Diagonal_torus Heterogeneous;
      cfg ~n:8 Mesh Homogeneous;
      cfg ~n:8 Torus Homogeneous;
      cfg ~n:8 Torus Heterogeneous;
      cfg ~n:8 King_mesh Homogeneous;
      cfg ~n:8 Diagonal_torus Homogeneous;
      cfg ~n:8 ~route:(Switchbox 4) Torus Homogeneous;
      cfg ~n:16 Torus Homogeneous;
      cfg ~n:16 Diagonal_torus Heterogeneous;
      cfg ~n:16 ~route:(Switchbox 4) Mesh Heterogeneous;
    ]
  in
  List.map (fun (n, c) -> (Printf.sprintf "%s-4x4" n, c)) (paper_configs ~size:4)
  @ List.map (fun c -> (name_of_config c, c)) presets

let find_gallery name = List.assoc_opt name gallery
