(* Layer spans recorded from outside the program: each span wraps one
   call into a layer's public function and records its wall time, the
   bytes the calling domain allocated, the major collections that ran
   and a few counters read off the call's result.  Spans stay in memory
   until the workload ends. *)

type t = {
  name : string;  (** ["<layer>.<call>"], the layer being the module name *)
  seconds : float;
  alloc_bytes : float;
  majors : int;
  counters : (string * float) list;
}

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layer s = layer_of s.name

type query = {
  cell : string;
  wall : float;  (** the whole traced query, spans and glue between them *)
  q_alloc_bytes : float;
  q_majors : int;
  spans : t list;  (** in call order *)
}

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* Spans of the query being traced, newest first. *)
let current : t list ref = ref []

let record ?(counters = fun _ -> []) name f =
  let a0 = Gc.allocated_bytes () and m0 = majors () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 and majors = majors () - m0 in
  current := { name; seconds; alloc_bytes; majors; counters = counters r } :: !current;
  r

let query cell f =
  current := [];
  let a0 = Gc.allocated_bytes () and m0 = majors () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let q =
    {
      cell;
      wall;
      q_alloc_bytes = Gc.allocated_bytes () -. a0;
      q_majors = majors () - m0;
      spans = List.rev !current;
    }
  in
  current := [];
  (q, r)

let to_json ~workload (q : query) =
  let module J = Cgra_sweep.Jsonl in
  List.map
    (fun s ->
      J.Obj
        [
          ("workload", J.Str workload);
          ("cell", J.Str q.cell);
          ("span", J.Str s.name);
          ("seconds", J.Num s.seconds);
          ("alloc_bytes", J.Num s.alloc_bytes);
          ("major_collections", J.Num (float_of_int s.majors));
          ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) s.counters));
        ])
    q.spans
