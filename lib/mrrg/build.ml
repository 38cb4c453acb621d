module Arch = Cgra_arch.Arch
module Primitive = Cgra_arch.Primitive

let node_name ~ctx ~inst ~port = Printf.sprintf "c%d.%s.%s" ctx inst port

let elaborate arch ~ii =
  let b = Mrrg.Builder.create ~ii in
  (* (inst, port, actual ctx) -> node id, for wiring the connections *)
  let port_node : (string * string * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let register inst port ctx id = Hashtbl.replace port_node (inst, port, ctx) id in
  let fresh ~inst ~port ~ctx ~kind ?operand () =
    let id = Mrrg.Builder.add_node b ~name:(node_name ~ctx ~inst ~port) ~ctx ~kind ?operand () in
    register inst port ctx id;
    id
  in
  List.iter
    (fun (inst, prim) ->
      match (prim : Primitive.t) with
      | Primitive.Multiplexer n ->
          for ctx = 0 to ii - 1 do
            (* the internal node guarantees one-route-at-a-time use *)
            let mux = Mrrg.Builder.add_node b ~name:(node_name ~ctx ~inst ~port:"mux") ~ctx
                ~kind:Mrrg.Route ()
            in
            let out = fresh ~inst ~port:"out" ~ctx ~kind:Mrrg.Route () in
            Mrrg.Builder.add_edge b ~src:mux ~dst:out;
            for i = 0 to n - 1 do
              let inp = fresh ~inst ~port:(Printf.sprintf "in%d" i) ~ctx ~kind:Mrrg.Route () in
              Mrrg.Builder.add_edge b ~src:inp ~dst:mux
            done
          done
      | Primitive.Register ->
          (* create all outputs first, then wire in@c -> out@(c+1 mod ii) *)
          let outs =
            Array.init ii (fun ctx -> fresh ~inst ~port:"out" ~ctx ~kind:Mrrg.Route ())
          in
          for ctx = 0 to ii - 1 do
            let inp = fresh ~inst ~port:"in" ~ctx ~kind:Mrrg.Route () in
            Mrrg.Builder.add_edge b ~src:inp ~dst:outs.((ctx + 1) mod ii)
          done
      | Primitive.Func_unit spec ->
          for ctx = 0 to ii - 1 do
            if ctx mod spec.Primitive.initiation_interval = 0 then begin
              let fu =
                Mrrg.Builder.add_node b ~name:(node_name ~ctx ~inst ~port:"fu") ~ctx
                  ~kind:(Mrrg.Func spec.Primitive.supported) ()
              in
              for i = 0 to spec.Primitive.n_inputs - 1 do
                let inp =
                  fresh ~inst ~port:(Printf.sprintf "in%d" i) ~ctx ~kind:Mrrg.Route ~operand:i ()
                in
                Mrrg.Builder.add_edge b ~src:inp ~dst:fu
              done;
              let out_ctx = (ctx + spec.Primitive.latency) mod ii in
              let out =
                Mrrg.Builder.add_node b
                  ~name:(node_name ~ctx:out_ctx ~inst ~port:"out")
                  ~ctx:out_ctx ~kind:Mrrg.Route ()
              in
              register inst "out" out_ctx out;
              Mrrg.Builder.add_edge b ~src:fu ~dst:out
            end
          done)
    (Arch.instances arch);
  (* wires: combinational, same-context *)
  List.iter
    (fun { Arch.src; dst } ->
      for ctx = 0 to ii - 1 do
        match
          ( Hashtbl.find_opt port_node (src.Arch.inst, src.Arch.port, ctx),
            Hashtbl.find_opt port_node (dst.Arch.inst, dst.Arch.port, ctx) )
        with
        | Some s, Some d -> Mrrg.Builder.add_edge b ~src:s ~dst:d
        | _ -> () (* the port does not exist in this context (FU busy slot) *)
      done)
    (Arch.connections arch);
  Mrrg.Builder.freeze b
