module Arch = Cgra_arch.Arch
module Primitive = Cgra_arch.Primitive
module Library = Cgra_arch.Library
module Mrrg = Cgra_mrrg.Mrrg
module Build = Cgra_mrrg.Build
module Op = Cgra_dfg.Op

let ep inst port = { Arch.inst; port }

let id m name =
  match Mrrg.find m name with
  | Some i -> i
  | None -> Alcotest.failf "no MRRG node %s" name

let has_edge m src dst = List.mem (id m dst) (Mrrg.fanouts m (id m src))

(* ---------------- Fig. 1: mux and register fragments ---------------- *)

let test_fig1_mux () =
  let b = Arch.Builder.create ~name:"mux-only" () in
  Arch.Builder.add b "m" (Primitive.Multiplexer 2);
  let a = Arch.Builder.freeze b in
  let m = Build.elaborate a ~ii:1 in
  (* paper: four nodes per cycle for a 2-to-1 mux *)
  Alcotest.(check int) "four nodes" 4 (Mrrg.n_nodes m);
  Alcotest.(check bool) "in0 -> mux" true (has_edge m "c0.m.in0" "c0.m.mux");
  Alcotest.(check bool) "in1 -> mux" true (has_edge m "c0.m.in1" "c0.m.mux");
  Alcotest.(check bool) "mux -> out" true (has_edge m "c0.m.mux" "c0.m.out");
  Alcotest.(check bool) "no in0 -> out shortcut" false (has_edge m "c0.m.in0" "c0.m.out");
  (* two contexts: replicated per cycle *)
  let m2 = Build.elaborate a ~ii:2 in
  Alcotest.(check int) "replicated" 8 (Mrrg.n_nodes m2);
  Alcotest.(check bool) "ctx1 structure" true (has_edge m2 "c1.m.in1" "c1.m.mux")

let test_fig1_register_crosses_cycles () =
  let b = Arch.Builder.create ~name:"reg-only" () in
  Arch.Builder.add b "r" Primitive.Register;
  let a = Arch.Builder.freeze b in
  let m = Build.elaborate a ~ii:2 in
  Alcotest.(check int) "four nodes over two contexts" 4 (Mrrg.n_nodes m);
  (* register input in cycle i connects to output in cycle i+1 *)
  Alcotest.(check bool) "c0 in -> c1 out" true (has_edge m "c0.r.in" "c1.r.out");
  Alcotest.(check bool) "c1 in -> c0 out (modulo wrap)" true (has_edge m "c1.r.in" "c0.r.out");
  Alcotest.(check bool) "no same-cycle shortcut" false (has_edge m "c0.r.in" "c0.r.out");
  (* single context: the wrap degenerates to the same context *)
  let m1 = Build.elaborate a ~ii:1 in
  Alcotest.(check bool) "ii=1 wraps to itself" true (has_edge m1 "c0.r.in" "c0.r.out")

(* ---------------- Fig. 2: FU latency and initiation interval -------- *)

let fu_arch ~latency ~fu_ii =
  let b = Arch.Builder.create ~name:"fu-only" () in
  Arch.Builder.add b "f"
    (Primitive.Func_unit
       { Primitive.supported = [ Op.Mul ]; n_inputs = 2; latency; initiation_interval = fu_ii });
  Arch.Builder.freeze b

let test_fig2_unit_latency () =
  (* L=1, II=1 on a 2-context MRRG: output lands in the next cycle *)
  let m = Build.elaborate (fu_arch ~latency:1 ~fu_ii:1) ~ii:2 in
  Alcotest.(check bool) "c0 fu -> c1 out" true (has_edge m "c0.f.fu" "c1.f.out");
  Alcotest.(check bool) "c1 fu -> c0 out" true (has_edge m "c1.f.fu" "c0.f.out");
  Alcotest.(check bool) "inputs same cycle" true (has_edge m "c0.f.in0" "c0.f.fu")

let test_fig2_non_pipelined () =
  (* L=2, II=2: issue slot only every other cycle *)
  let m = Build.elaborate (fu_arch ~latency:2 ~fu_ii:2) ~ii:2 in
  (* only context 0 issues: in0,in1,fu plus one out *)
  Alcotest.(check bool) "c0 issues" true (Mrrg.find m "c0.f.fu" <> None);
  Alcotest.(check bool) "c1 does not issue" true (Mrrg.find m "c1.f.fu" = None);
  Alcotest.(check bool) "latency 2 wraps to c0" true (has_edge m "c0.f.fu" "c0.f.out")

let test_fig2_pipelined () =
  (* L=2, II=1: replicated every cycle, outputs skewed by latency *)
  let m = Build.elaborate (fu_arch ~latency:2 ~fu_ii:1) ~ii:3 in
  Alcotest.(check bool) "c0 -> c2" true (has_edge m "c0.f.fu" "c2.f.out");
  Alcotest.(check bool) "c1 -> c0" true (has_edge m "c1.f.fu" "c0.f.out");
  Alcotest.(check bool) "c2 -> c1" true (has_edge m "c2.f.fu" "c1.f.out")

(* ---------------- Fig. 3: full functional block ---------------- *)

let test_fig3_block () =
  let b = Arch.Builder.create ~name:"block" () in
  Arch.Builder.add b "mux_a" (Primitive.Multiplexer 2);
  Arch.Builder.add b "mux_b" (Primitive.Multiplexer 2);
  Arch.Builder.add b "f" (Primitive.alu ());
  Arch.Builder.add b "r" Primitive.Register;
  Arch.Builder.connect b ~src:(ep "mux_a" "out") ~dst:(ep "f" "in0");
  Arch.Builder.connect b ~src:(ep "mux_b" "out") ~dst:(ep "f" "in1");
  Arch.Builder.connect b ~src:(ep "f" "out") ~dst:(ep "r" "in");
  let a = Arch.Builder.freeze b in
  let m = Build.elaborate a ~ii:1 in
  Alcotest.(check bool) "mux_a out -> fu operand 0" true (has_edge m "c0.mux_a.out" "c0.f.in0");
  Alcotest.(check bool) "operand node -> fu" true (has_edge m "c0.f.in0" "c0.f.fu");
  Alcotest.(check bool) "fu -> fu out (latency 0)" true (has_edge m "c0.f.fu" "c0.f.out");
  Alcotest.(check bool) "fu out -> reg in" true (has_edge m "c0.f.out" "c0.r.in");
  (* operand annotations *)
  let n0 = Mrrg.node m (id m "c0.f.in0") and n1 = Mrrg.node m (id m "c0.f.in1") in
  Alcotest.(check bool) "operand 0" true (n0.Mrrg.operand = Some 0);
  Alcotest.(check bool) "operand 1" true (n1.Mrrg.operand = Some 1);
  Alcotest.(check bool) "validates" true (Mrrg.validate m = Ok ())

(* ---------------- full architectures ---------------- *)

let test_full_arch_mrrg () =
  List.iter
    (fun (name, config) ->
      let a = Library.make config in
      List.iter
        (fun ii ->
          let m = Build.elaborate a ~ii in
          (match Mrrg.validate m with
          | Ok () -> ()
          | Error errs -> Alcotest.failf "%s ii=%d: %s" name ii (String.concat "; " errs));
          let s = Mrrg.stats m in
          (* every context holds the same number of nodes (uniform-II design) *)
          Array.iter
            (fun c -> Alcotest.(check int) (name ^ " uniform contexts") s.Mrrg.per_context.(0) c)
            s.Mrrg.per_context;
          (* FU slots: (16 ALUs + 4 mem + 16 pads) per context *)
          Alcotest.(check int) (name ^ " fu slots") (36 * ii) s.Mrrg.n_func)
        [ 1; 2 ])
    (Library.paper_configs ~size:4)

let test_mrrg_supports () =
  let a = Library.make { Library.default with Library.fu_mix = Library.Heterogeneous } in
  let m = Build.elaborate a ~ii:1 in
  let fu_with ~row ~col = id m (Printf.sprintf "c0.%s.fu" (Library.block_fu ~row ~col)) in
  (* (0,0) has a multiplier on the checkerboard, (0,1) does not *)
  Alcotest.(check bool) "0,0 muls" true (Mrrg.supports m (fu_with ~row:0 ~col:0) Op.Mul);
  Alcotest.(check bool) "0,1 no mul" false (Mrrg.supports m (fu_with ~row:0 ~col:1) Op.Mul);
  Alcotest.(check bool) "0,1 adds" true (Mrrg.supports m (fu_with ~row:0 ~col:1) Op.Add);
  (* memory ports only do loads/stores *)
  let mem = id m "c0.mem0.fu" in
  Alcotest.(check bool) "mem loads" true (Mrrg.supports m mem Op.Load);
  Alcotest.(check bool) "mem no add" false (Mrrg.supports m mem Op.Add)

let test_reachability () =
  let a = Library.make { Library.default with Library.rows = 2; cols = 2 } in
  let m = Build.elaborate a ~ii:1 in
  (* block (0,0) output reaches the operand nodes of neighbour (0,1) *)
  let from = id m "c0.b0_0_reg.out" in
  let reach = Mrrg.reachable m ~from in
  let target = id m "c0.b0_1_fu.in0" in
  Alcotest.(check bool) "neighbour operand reachable" true reach.(target);
  (* and with multiple hops, the far corner too *)
  let far = id m "c0.b1_1_fu.in1" in
  Alcotest.(check bool) "far corner reachable" true reach.(far);
  (* functional units act as barriers: the neighbour's *output* is not
     reachable by routing alone *)
  let neighbour_out = id m "c0.b0_1_fu.out" in
  Alcotest.(check bool) "fu output not route-reachable" false reach.(neighbour_out);
  (* co-reachability agrees *)
  let co = Mrrg.co_reachable m ~targets:[ target ] in
  Alcotest.(check bool) "co-reachable from source" true co.(from)

let test_mrrg_builder_errors () =
  let b = Mrrg.Builder.create ~ii:2 in
  let x = Mrrg.Builder.add_node b ~name:"x" ~ctx:0 ~kind:Mrrg.Route () in
  Alcotest.(check bool) "duplicate name" true
    (try
       ignore (Mrrg.Builder.add_node b ~name:"x" ~ctx:1 ~kind:Mrrg.Route ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad context" true
    (try
       ignore (Mrrg.Builder.add_node b ~name:"y" ~ctx:5 ~kind:Mrrg.Route ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad edge" true
    (try
       Mrrg.Builder.add_edge b ~src:x ~dst:99;
       false
     with Invalid_argument _ -> true)

let test_mrrg_dot () =
  let a = Library.make { Library.default with Library.rows = 1; cols = 1 } in
  let m = Build.elaborate a ~ii:1 in
  let dot = Mrrg.to_dot m in
  Alcotest.(check bool) "digraph" true (String.length dot > 20);
  Alcotest.(check bool) "mentions fu" true
    (let needle = "b0_0_fu.fu" in
     let nl = String.length needle and hl = String.length dot in
     let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
     go 0)

(* ---------------- generated topologies ---------------- *)

(* Pinned sizes for the torus elaboration.  On a 2-wide axis the wrap
   link folds onto the existing mesh link (the generator dedups), so a
   2x2 torus elaborates to exactly the 2x2 mesh MRRG; on a 3-wide axis
   the wraps are new links and only add edges. *)
let test_torus_2x2_pinned () =
  let make topology =
    Library.make { Library.default with Library.rows = 2; cols = 2; topology }
  in
  let torus = Build.elaborate (make Library.Torus) ~ii:1 in
  Alcotest.(check int) "nodes" 240 (Mrrg.n_nodes torus);
  Alcotest.(check int) "edges" 346 (Mrrg.n_edges torus);
  Alcotest.(check bool) "validates" true (Mrrg.validate torus = Ok ());
  let mesh = Build.elaborate (make Library.Mesh) ~ii:1 in
  Alcotest.(check int) "degenerate wrap: same nodes" (Mrrg.n_nodes mesh) (Mrrg.n_nodes torus);
  Alcotest.(check int) "degenerate wrap: same edges" (Mrrg.n_edges mesh) (Mrrg.n_edges torus);
  (* contexts replicate the whole structure *)
  let torus2 = Build.elaborate (make Library.Torus) ~ii:2 in
  Alcotest.(check int) "ii=2 nodes" 480 (Mrrg.n_nodes torus2);
  Alcotest.(check int) "ii=2 edges" 692 (Mrrg.n_edges torus2)

let test_torus_2x3_adds_wrap_edges () =
  let make topology =
    Library.make { Library.default with Library.rows = 2; cols = 3; topology }
  in
  let mesh = Build.elaborate (make Library.Mesh) ~ii:1 in
  let torus = Build.elaborate (make Library.Torus) ~ii:1 in
  Alcotest.(check int) "mesh nodes" 348 (Mrrg.n_nodes mesh);
  Alcotest.(check int) "mesh edges" 516 (Mrrg.n_edges mesh);
  (* the 3-wide axis wraps: two new links per row, each landing on a
     now-wider operand/bypass mux (one extra input node per mux) *)
  Alcotest.(check int) "torus nodes" 360 (Mrrg.n_nodes torus);
  Alcotest.(check int) "torus edges" 540 (Mrrg.n_edges torus);
  (* the wrap link is a direct MRRG edge: the end-of-row block output
     fans out into a first-column mux of the same row *)
  let out = id torus "c0.b0_2_reg.out" in
  let feeds_first_col =
    List.exists
      (fun dst ->
        let n = Mrrg.node torus dst in
        Astring.String.is_prefix ~affix:"c0.b0_0_" n.Mrrg.name)
      (Mrrg.fanouts torus out)
  in
  Alcotest.(check bool) "wrap edge present" true feeds_first_col;
  let out_mesh = id mesh "c0.b0_2_reg.out" in
  let feeds_first_col_mesh =
    List.exists
      (fun dst ->
        let n = Mrrg.node mesh dst in
        Astring.String.is_prefix ~affix:"c0.b0_0_" n.Mrrg.name)
      (Mrrg.fanouts mesh out_mesh)
  in
  Alcotest.(check bool) "no wrap edge in mesh" false feeds_first_col_mesh

(* A crafted two-tile-type array: one multiplying tile, one plain
   adder tile, sharing an input mux.  Pins the elaboration size and
   checks capability filtering lands on the right Func nodes. *)
let test_two_tile_type_array () =
  let b = Arch.Builder.create ~name:"two-tile" () in
  Arch.Builder.add b "m" (Primitive.Multiplexer 2);
  Arch.Builder.add b "f_mul"
    (Primitive.Func_unit
       { Primitive.supported = [ Op.Add; Op.Mul ]; n_inputs = 2; latency = 0;
         initiation_interval = 1 });
  Arch.Builder.add b "f_add"
    (Primitive.Func_unit
       { Primitive.supported = [ Op.Add ]; n_inputs = 2; latency = 0; initiation_interval = 1 });
  List.iter
    (fun (inst, port) -> Arch.Builder.connect b ~src:(ep "m" "out") ~dst:(ep inst port))
    [ ("f_mul", "in0"); ("f_mul", "in1"); ("f_add", "in0"); ("f_add", "in1") ];
  let a = Arch.Builder.freeze b in
  let m = Build.elaborate a ~ii:1 in
  (* mux 2 -> 4 nodes, each fu -> 4 nodes *)
  Alcotest.(check int) "nodes" 12 (Mrrg.n_nodes m);
  (* mux 3 internal + 3 per fu + 4 wires *)
  Alcotest.(check int) "edges" 13 (Mrrg.n_edges m);
  Alcotest.(check bool) "validates" true (Mrrg.validate m = Ok ());
  Alcotest.(check int) "two func slots" 2 (List.length (Mrrg.func_units m));
  Alcotest.(check bool) "mul tile muls" true (Mrrg.supports m (id m "c0.f_mul.fu") Op.Mul);
  Alcotest.(check bool) "add tile no mul" false (Mrrg.supports m (id m "c0.f_add.fu") Op.Mul);
  Alcotest.(check bool) "add tile adds" true (Mrrg.supports m (id m "c0.f_add.fu") Op.Add)

let test_heterogeneous_2x2_checkerboard () =
  let a =
    Library.make
      { Library.default with Library.rows = 2; cols = 2; fu_mix = Library.Heterogeneous }
  in
  let m = Build.elaborate a ~ii:1 in
  let fu ~row ~col = id m (Printf.sprintf "c0.%s.fu" (Library.block_fu ~row ~col)) in
  List.iter
    (fun (row, col, muls) ->
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d) mul=%b" row col muls)
        muls
        (Mrrg.supports m (fu ~row ~col) Op.Mul);
      Alcotest.(check bool) (Printf.sprintf "(%d,%d) adds" row col) true
        (Mrrg.supports m (fu ~row ~col) Op.Add))
    [ (0, 0, true); (0, 1, false); (1, 0, false); (1, 1, true) ];
  (* capability filtering never changes the graph shape: same counts
     as the homogeneous array *)
  let homo =
    Build.elaborate (Library.make { Library.default with Library.rows = 2; cols = 2 }) ~ii:1
  in
  Alcotest.(check int) "same nodes" (Mrrg.n_nodes homo) (Mrrg.n_nodes m);
  Alcotest.(check int) "same edges" (Mrrg.n_edges homo) (Mrrg.n_edges m)

let suites =
  [
    ( "mrrg:fig1",
      [
        Alcotest.test_case "mux fragment" `Quick test_fig1_mux;
        Alcotest.test_case "register crosses cycles" `Quick test_fig1_register_crosses_cycles;
      ] );
    ( "mrrg:fig2",
      [
        Alcotest.test_case "unit latency" `Quick test_fig2_unit_latency;
        Alcotest.test_case "non-pipelined" `Quick test_fig2_non_pipelined;
        Alcotest.test_case "pipelined" `Quick test_fig2_pipelined;
      ] );
    ("mrrg:fig3", [ Alcotest.test_case "functional block" `Quick test_fig3_block ]);
    ( "mrrg:full",
      [
        Alcotest.test_case "paper architectures" `Quick test_full_arch_mrrg;
        Alcotest.test_case "supported ops" `Quick test_mrrg_supports;
        Alcotest.test_case "reachability" `Quick test_reachability;
        Alcotest.test_case "builder errors" `Quick test_mrrg_builder_errors;
        Alcotest.test_case "dot export" `Quick test_mrrg_dot;
      ] );
    ( "mrrg:generated",
      [
        Alcotest.test_case "2x2 torus pinned" `Quick test_torus_2x2_pinned;
        Alcotest.test_case "2x3 torus wrap edges" `Quick test_torus_2x3_adds_wrap_edges;
        Alcotest.test_case "two tile types" `Quick test_two_tile_type_array;
        Alcotest.test_case "hetero checkerboard" `Quick test_heterogeneous_2x2_checkerboard;
      ] );
  ]
