(* The host's speed, read off a fixed reference kernel.

   The machines this benchmark runs on are shared.  Their speed drifts
   by tens of percent within seconds and by up to a factor of two over
   minutes, for every program alike.  The process's CPU time grows with
   its wall time, so timing CPU instead does not help.  The timed loop
   therefore runs a fixed kernel between queries and divides each
   query's time by the kernel's time around it.  That ratio, the query's
   cost in kernel runs (unit "ref"), keeps the mapper's own speed and
   cancels most of the host's.  The kernel is the benchmark's code, not
   the mapper's, so no change to the mapper can move it.

   Most of the drift is in memory latency.  Work that stays in a core's
   cache slows less than the mapper when the host slows, and pointer
   chasing through an array larger than the cache slows more.  The
   kernel mixes the two in the proportion whose time tracked the
   mapper's best: sorting, hashing and short-lived allocation, then a
   walk of 150 000 dependent reads over a 4 MB array.  On a shared
   2-vCPU VM, twelve minutes of one query from each workload
   interleaved with the kernel's parts gave, for this mix, slopes of
   0.87-1.11 for log query time against log kernel time, and median
   ratios over 25 s windows that spread 2-4 %.  An earlier kernel that
   walked 200 000 steps of an array it allocated afresh on every run
   gave slopes of 0.74-0.93 and spreads of 4-11 %.  The array is
   allocated once: touching fresh pages timed the host's page faults,
   which swing far more than the mapper's speed. *)

let chain_length = 1 lsl 19

type t = {
  chain : int array;  (** a single cycle through every index, in scattered order *)
  mutable marks : (float * float) list;  (** kernel runs as (clock when it ended, its seconds), newest first *)
}

let create () =
  { chain = Array.init chain_length (fun i -> ((i * 40505) + 1) land (chain_length - 1)); marks = [] }

let kernel t =
  let t0 = Unix.gettimeofday () in
  let n = 30_000 in
  let a = Array.init n (fun i -> ((i * 1103515245) + 12345) land 0x3fffffff) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> if i land 3 = 0 then Hashtbl.replace h x i) a;
  let s = ref 0 in
  Array.iter (fun x -> match Hashtbl.find_opt h x with Some v -> s := !s + v | None -> ()) a;
  let sum = List.fold_left ( + ) !s (List.rev (List.init n Fun.id)) in
  let p = ref 0 in
  for _ = 1 to 150_000 do
    p := t.chain.(!p)
  done;
  ignore (Sys.opaque_identity (sum, !p));
  Unix.gettimeofday () -. t0

(* The kernel starts on an empty major heap, so the garbage the last
   query left cannot slow it. *)
let mark t =
  Gc.full_major ();
  let s = kernel t in
  t.marks <- (Unix.gettimeofday (), s) :: t.marks

(* Called before each query or request block: runs the kernel unless
   the last run ended less than a quarter second ago, which bounds its
   cost to about a tenth of the loop. *)
let tick t =
  match t.marks with
  | (at, _) :: _ when Unix.gettimeofday () -. at < 0.25 -> ()
  | _ -> mark t

(* The kernel time to divide a sample that ran from [start] to [stop]
   by: the median of the runs that ended within a second of it and the
   nearest run on each side.  One run alone reads the host poorly:
   consecutive runs differ by about 15 %. *)
let around t ~start ~stop =
  let near = List.filter (fun (at, _) -> at >= start -. 1.0 && at <= stop +. 1.0) t.marks in
  let before = List.find_opt (fun (at, _) -> at <= start) t.marks in
  let after = List.fold_left (fun acc m -> if fst m > start then Some m else acc) None t.marks in
  Stats.median
    (List.map snd (List.sort_uniq compare (near @ Option.to_list before @ Option.to_list after)))

let median_seconds t = Stats.median (List.map snd t.marks)
