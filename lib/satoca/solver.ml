(* Conflict-driven clause learning, MiniSat-style.  The invariants that
   matter are spelled out inline because the code is imperative and hot:

   - A clause watches its first two literals; clause index c appears in
     [watches.(Lit.negate lits.(0))] and [watches.(Lit.negate lits.(1))],
     so when a literal p is assigned true, [watches.(p)] lists exactly
     the clauses that just lost a watched literal.
   - Each watch is a (entry, blocker) pair.  A long clause's entry is
     its index c; a binary clause's entry is tagged as [lnot c] (always
     negative) and its blocker is always its other literal, so
     propagation decides it from that literal's value alone.  A
     clause's length never changes, so the tag is fixed at [attach].
   - The reason clause of an implied literal has that literal at
     position 0; the binary path swaps it there too.
   - [trail_lim] holds the trail height at each decision; level 0 facts
     are permanent.

   The library is compiled with [-opaque] in dune's default profile, so
   no call into [Veci], [Vec] or [Lit] is inlined.  [propagate] therefore
   reads the backing arrays of the trail, the clause vector and each
   watch list once per propagated literal ([Veci.data], [Vec.data]) and
   indexes them directly.  Those arrays stay valid while they are used:
   no clause is added during propagation, a moved watch goes to another
   literal's list, and the trail, which [enqueue] pushes onto, is
   fetched afresh for each literal. *)

module Veci = Cgra_util.Veci
module Vec = Cgra_util.Vec
module Deadline = Cgra_util.Deadline

type clause = {
  lits : int array;  (* fixed length: a binary clause stays binary *)
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

let dummy_clause = { lits = [||]; activity = 0.; learnt = false; deleted = true }

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt : int;
  probed_failed : int;
}

type t = {
  mutable nvars : int;
  clauses : clause Vec.t;            (* all clauses, problem + learnt *)
  mutable watches : Veci.t array;    (* literal -> clause indices *)
  mutable assigns : int array;       (* var -> -1 / 0 / 1 *)
  mutable phase : Bytes.t;           (* var -> saved polarity *)
  mutable level : int array;         (* var -> decision level *)
  mutable reason : int array;        (* var -> clause index or -1 *)
  mutable var_act : float array;
  mutable seen : Bytes.t;            (* conflict-analysis scratch *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable trail_head : int;
  mutable heap : int array;          (* binary max-heap of vars *)
  mutable heap_size : int;
  mutable heap_pos : int array;      (* var -> heap index or -1 *)
  mutable var_inc : float;
  mutable var_decay : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable model : int array;         (* snapshot after Sat *)
  mutable n_learnt : int;
  mutable max_learnts : float;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable rng_state : int64;
  mutable random_freq : float;  (* fraction of random decisions *)
  mutable proof : Proof.t option;  (* DRAT sink; None = no logging *)
  mutable failed : int list;    (* failed assumptions of the last solve_with *)
  mutable guard : int;          (* literal appended to every added clause, or -1 *)
  mutable cbuf : int array;     (* add_clause's normalisation buffer *)
  mutable inprocess : (t -> unit) option;  (* fired at solve start + restarts *)
  mutable n_probed_failed : int;
}

(* Most literals watch a handful of clauses; start small and let the
   vector double. *)
let new_watch_list () = Veci.create ~capacity:4 ()

let create () =
  {
    nvars = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    watches = Array.make 2 (Veci.create ~capacity:1 ());
    assigns = Array.make 1 (-1);
    phase = Bytes.make 1 '\000';
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    var_act = Array.make 1 0.;
    seen = Bytes.make 1 '\000';
    trail = Veci.create ();
    trail_lim = Veci.create ();
    trail_head = 0;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    var_inc = 1.0;
    var_decay = 0.95;
    cla_inc = 1.0;
    ok = true;
    model = [||];
    n_learnt = 0;
    max_learnts = 8000.;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    rng_state = 0x9E3779B97F4A7C15L;
    random_freq = 0.02;
    proof = None;
    failed = [];
    guard = -1;
    cbuf = Array.make 16 0;
    inprocess = None;
    n_probed_failed = 0;
  }

let set_proof t proof = t.proof <- proof

(* SplitMix64 step, for randomised decisions *)
let next_random t =
  t.rng_state <- Int64.add t.rng_state 0x9E3779B97F4A7C15L;
  let z = t.rng_state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let random_float t =
  Int64.to_float (Int64.shift_right_logical (next_random t) 11) /. 9007199254740992.0

let set_random_freq t f = t.random_freq <- f
let set_random_seed t seed = t.rng_state <- Int64.of_int (0x9E3779B9 + seed)

let nvars t = t.nvars
let ok t = t.ok
let set_var_decay t d = t.var_decay <- d

let stats t =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    learnt = t.n_learnt;
    probed_failed = t.n_probed_failed;
  }

(* Per-solve deltas: subtract the monotone counters; [learnt] is a gauge
   (clauses currently kept) and is reported as-is. *)
let stats_delta ~(now : stats) ~(before : stats) : stats =
  {
    conflicts = now.conflicts - before.conflicts;
    decisions = now.decisions - before.decisions;
    propagations = now.propagations - before.propagations;
    restarts = now.restarts - before.restarts;
    learnt = now.learnt;
    probed_failed = now.probed_failed - before.probed_failed;
  }

let inprocess_counters st = [ ("probed_failed", st.probed_failed) ]

(* ---------------- variable allocation ---------------- *)

let grow_arrays t needed =
  let cap = Array.length t.assigns in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let grow_int a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    let grow_float a =
      let a' = Array.make cap' 0. in
      Array.blit a 0 a' 0 cap;
      a'
    in
    let grow_bytes b =
      let b' = Bytes.make cap' '\000' in
      Bytes.blit b 0 b' 0 cap;
      b'
    in
    t.assigns <- grow_int t.assigns (-1);
    t.level <- grow_int t.level 0;
    t.reason <- grow_int t.reason (-1);
    t.var_act <- grow_float t.var_act;
    t.phase <- grow_bytes t.phase;
    t.seen <- grow_bytes t.seen;
    t.heap <- grow_int t.heap 0;
    t.heap_pos <- grow_int t.heap_pos (-1);
    (* slots past [nvars] hold a placeholder until their variable is
       allocated: lists are made per variable, not per slot of
       capacity *)
    let w = Array.make (2 * cap') (Veci.create ~capacity:1 ()) in
    Array.blit t.watches 0 w 0 (2 * t.nvars);
    t.watches <- w
  end

(* ---------------- order heap (max-heap on var_act) ---------------- *)

let heap_lt t a b = t.var_act.(a) > t.var_act.(b)

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(p) then begin
      let x = t.heap.(i) and y = t.heap.(p) in
      t.heap.(i) <- y;
      t.heap.(p) <- x;
      t.heap_pos.(y) <- i;
      t.heap_pos.(x) <- p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && heap_lt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_size && heap_lt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    let x = t.heap.(i) and y = t.heap.(!best) in
    t.heap.(i) <- y;
    t.heap.(!best) <- x;
    t.heap_pos.(y) <- i;
    t.heap_pos.(x) <- !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then begin
    let last = t.heap.(t.heap_size) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    heap_down t 0
  end;
  v

let heap_decrease t v = if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let set_activity t v a =
  if v < 0 || v >= t.nvars then invalid_arg "Solver.set_activity: unknown variable";
  t.var_act.(v) <- a *. t.var_inc;
  heap_decrease t v

let set_phase t v b =
  if v < 0 || v >= t.nvars then invalid_arg "Solver.set_phase: unknown variable";
  Bytes.set t.phase v (if b then '\001' else '\000')

(* Allocate variables [first .. first + n - 1], growing the
   per-variable arrays once for the whole block. *)
let alloc_vars t n =
  let first = t.nvars in
  grow_arrays t (first + n);
  for v = first to first + n - 1 do
    t.watches.(2 * v) <- new_watch_list ();
    t.watches.((2 * v) + 1) <- new_watch_list ();
    t.nvars <- v + 1;
    t.assigns.(v) <- -1;
    t.reason.(v) <- -1;
    t.var_act.(v) <- 0.;
    heap_insert t v
  done;
  first

let new_var t = alloc_vars t 1

let new_vars t n =
  if n <= 0 then invalid_arg "Solver.new_vars: non-positive count";
  alloc_vars t n

(* ---------------- values ---------------- *)

(* -1 unassigned / 0 false / 1 true *)
let lit_val t l =
  let v = t.assigns.(l lsr 1) in
  if v < 0 then -1 else v lxor (l land 1)

let decision_level t = Veci.size t.trail_lim

(* ---------------- activity ---------------- *)

let var_bump t v =
  t.var_act.(v) <- t.var_act.(v) +. t.var_inc;
  if t.var_act.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.var_act.(i) <- t.var_act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_decrease t v

let var_decay_act t = t.var_inc <- t.var_inc /. t.var_decay

let cla_bump t c =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> if c.learnt then c.activity <- c.activity *. 1e-20) t.clauses;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay t = t.cla_inc <- t.cla_inc /. 0.999

(* ---------------- trail ---------------- *)

let enqueue t l reason =
  let v = l lsr 1 in
  t.assigns.(v) <- 1 - (l land 1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Veci.push t.trail l

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Veci.get t.trail_lim lvl in
    for i = Veci.size t.trail - 1 downto bound do
      let l = Veci.get t.trail i in
      let v = l lsr 1 in
      Bytes.unsafe_set t.phase v (Char.unsafe_chr t.assigns.(v));
      t.assigns.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    Veci.shrink t.trail bound;
    Veci.shrink t.trail_lim lvl;
    t.trail_head <- bound
  end

(* ---------------- clause attachment ---------------- *)

(* Watch lists hold (watch entry, blocker literal) pairs flattened as
   two consecutive ints; a true blocker lets propagation skip the
   clause without touching its literals.  A binary clause's entry is
   tagged (see the header). *)

let watch_entry c ci = if Array.length c.lits = 2 then lnot ci else ci

let attach t ci =
  let c = Vec.get t.clauses ci in
  let e = watch_entry c ci in
  Veci.push t.watches.(Lit.negate c.lits.(0)) e;
  Veci.push t.watches.(Lit.negate c.lits.(0)) c.lits.(1);
  Veci.push t.watches.(Lit.negate c.lits.(1)) e;
  Veci.push t.watches.(Lit.negate c.lits.(1)) c.lits.(0)

let detach t ci =
  let c = Vec.get t.clauses ci in
  let e = watch_entry c ci in
  let remove wl =
    let n = Veci.size wl in
    let rec go i =
      if i < n then
        if Veci.get wl i = e then begin
          (* remove the pair by moving the last pair into its place *)
          let last_e = Veci.get wl (n - 2) and last_bl = Veci.get wl (n - 1) in
          if i < n - 2 then begin
            Veci.set wl i last_e;
            Veci.set wl (i + 1) last_bl
          end;
          Veci.shrink wl (n - 2)
        end
        else go (i + 2)
    in
    go 0
  in
  remove t.watches.(Lit.negate c.lits.(0));
  remove t.watches.(Lit.negate c.lits.(1))

(* ---------------- propagation ---------------- *)

(* Unit propagation to fixpoint; returns the conflicting clause's index,
   or -1.  Literal evaluation, the new-watch search and [enqueue] are
   written out inline (see the header for why): literal [l] is true
   when [assigns.(var l) = (l land 1) lxor 1] and false when
   [assigns.(var l) = l land 1]. *)
let propagate t =
  let assigns = t.assigns and level = t.level and reason = t.reason in
  let watches = t.watches and trail = t.trail in
  let clauses = Vec.data t.clauses in
  let dl = decision_level t in
  let head = ref t.trail_head and tsize = ref (Veci.size trail) in
  let confl = ref (-1) in
  while !confl < 0 && !head < !tsize do
    let p = (Veci.data trail).(!head) in
    incr head;
    t.propagations <- t.propagations + 1;
    let false_lit = p lxor 1 in
    let wl = watches.(p) in
    let ws = Veci.data wl in
    let n = Veci.size wl in
    (* Rebuild the pair list in place: [j] is the write cursor; clauses
       that move their watch elsewhere are dropped from this list. *)
    let i = ref 0 and j = ref 0 in
    while !i < n && !confl < 0 do
      let e = Array.unsafe_get ws !i and blocker = Array.unsafe_get ws (!i + 1) in
      i := !i + 2;
      if Array.unsafe_get assigns (blocker lsr 1) = (blocker land 1) lxor 1 then begin
        (* satisfied without touching the clause *)
        Array.unsafe_set ws !j e;
        Array.unsafe_set ws (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let ci = if e < 0 then lnot e else e in
        let c = clauses.(ci) in
        if not c.deleted (* a deleted clause is dropped lazily *) then begin
          let lits = c.lits in
          (* keep the false literal at position 1, so that a literal the
             clause implies ends up at position 0 *)
          if Array.unsafe_get lits 0 = false_lit then begin
            Array.unsafe_set lits 0 (Array.unsafe_get lits 1);
            Array.unsafe_set lits 1 false_lit
          end;
          (* [implied]: the literal the clause implies or conflicts on, or
             -1 when it is satisfied or has moved its watch *)
          let implied =
            if e < 0 then blocker (* binary: the blocker is position 0 *)
            else begin
              let first = Array.unsafe_get lits 0 in
              if Array.unsafe_get assigns (first lsr 1) = (first land 1) lxor 1 then begin
                (* satisfied; keep watching with the true literal as
                   the new blocker *)
                Array.unsafe_set ws !j e;
                Array.unsafe_set ws (!j + 1) first;
                j := !j + 2;
                -1
              end
              else begin
                (* look for a new watch: a literal past position 1 that
                   is not false *)
                let len = Array.length lits in
                let k = ref 2 in
                while
                  !k < len
                  &&
                  let l = Array.unsafe_get lits !k in
                  Array.unsafe_get assigns (l lsr 1) = l land 1
                do
                  incr k
                done;
                if !k < len then begin
                  let w = Array.unsafe_get lits !k in
                  Array.unsafe_set lits 1 w;
                  Array.unsafe_set lits !k false_lit;
                  let wl' = watches.(w lxor 1) in
                  Veci.push wl' e;
                  Veci.push wl' first;
                  -1
                end
                else first
              end
            end
          in
          if implied >= 0 then begin
            Array.unsafe_set ws !j e;
            Array.unsafe_set ws (!j + 1) blocker;
            j := !j + 2;
            let v = implied lsr 1 in
            if Array.unsafe_get assigns v < 0 then begin
              (* enqueue *)
              assigns.(v) <- (implied land 1) lxor 1;
              level.(v) <- dl;
              reason.(v) <- ci;
              Veci.push trail implied;
              incr tsize
            end
            else confl := ci
          end
        end
      end
    done;
    (* after a conflict, keep the watchers not yet visited *)
    while !i < n do
      Array.unsafe_set ws !j (Array.unsafe_get ws !i);
      Array.unsafe_set ws (!j + 1) (Array.unsafe_get ws (!i + 1));
      j := !j + 2;
      i := !i + 2
    done;
    Veci.shrink wl !j
  done;
  t.trail_head <- !tsize;
  !confl

let seed_phases t lits =
  if t.ok then begin
    cancel_until t 0;
    t.trail_head <- Veci.size t.trail;
    (* throwaway decision level *)
    Veci.push t.trail_lim (Veci.size t.trail);
    (try
       List.iter
         (fun l ->
           if lit_val t l = -1 then begin
             enqueue t l (-1);
             if propagate t >= 0 then raise Exit
           end)
         lits
     with Exit -> ());
    (* cancel_until saves the propagated values as phases *)
    cancel_until t 0
  end

(* ---------------- clause addition (root level only) ---------------- *)

let set_guard t g =
  (match g with
  | Some l when l lsr 1 >= t.nvars -> invalid_arg "Solver.set_guard: unknown variable"
  | _ -> ());
  t.guard <- (match g with None -> -1 | Some l -> l)

(* Sort [buf.(0 .. n-1)] ascending and drop duplicates in place;
   returns the new length.  Clauses are short, so insertion sort
   covers the common case. *)
let sort_uniq_prefix buf n =
  if n <= 16 then
    for a = 1 to n - 1 do
      let x = buf.(a) in
      let b = ref (a - 1) in
      while !b >= 0 && buf.(!b) > x do
        buf.(!b + 1) <- buf.(!b);
        decr b
      done;
      buf.(!b + 1) <- x
    done
  else begin
    let sorted = Array.sub buf 0 n in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 buf 0 n
  end;
  if n = 0 then 0
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if buf.(r) <> buf.(!w - 1) then begin
        buf.(!w) <- buf.(r);
        incr w
      end
    done;
    !w
  end

(* Copy [lits] into [buf] from index [i]; returns the end index. *)
let rec gather buf i = function
  | [] -> i
  | l :: rest ->
      buf.(i) <- l;
      gather buf (i + 1) rest

let prefix_list buf n =
  let rec go i acc = if i < 0 then acc else go (i - 1) (buf.(i) :: acc) in
  go (n - 1) []

let add_clause t lits =
  if t.ok then begin
    cancel_until t 0;
    (* gather guard and literals into the reusable buffer *)
    let len = List.length lits + if t.guard < 0 then 0 else 1 in
    if len > Array.length t.cbuf then t.cbuf <- Array.make (max len (2 * Array.length t.cbuf)) 0;
    let buf = t.cbuf in
    let n =
      if t.guard < 0 then gather buf 0 lits
      else begin
        buf.(0) <- t.guard;
        gather buf 1 lits
      end
    in
    (* normalise: sort, dedupe, drop tautologies and false-at-root lits *)
    let n = sort_uniq_prefix buf n in
    for i = 0 to n - 1 do
      if buf.(i) lsr 1 >= t.nvars then invalid_arg "Solver.add_clause: unknown variable"
    done;
    (* the normalised clause is logically the caller's clause; log it as
       a proof axiom before any root-level strengthening *)
    (match t.proof with Some p -> Proof.log_input p (prefix_list buf n) | None -> ());
    (* sorted and deduplicated, a literal sits right before its
       complement, if present *)
    let tautology = ref false in
    for i = 0 to n - 1 do
      if lit_val t buf.(i) = 1 || (i + 1 < n && buf.(i + 1) = buf.(i) lxor 1) then
        tautology := true
    done;
    if not !tautology then begin
      let w = ref 0 in
      for i = 0 to n - 1 do
        if lit_val t buf.(i) <> 0 then begin
          buf.(!w) <- buf.(i);
          incr w
        end
      done;
      let w = !w in
      (* dropping root-false literals is a unit-propagation inference;
         the strengthened clause is a derived (RUP) step *)
      (match t.proof with
      | Some p when w < n -> Proof.log_add p (prefix_list buf w)
      | _ -> ());
      if w = 0 then t.ok <- false
      else if w = 1 then begin
        enqueue t buf.(0) (-1);
        if propagate t >= 0 then begin
          (match t.proof with Some p -> Proof.log_add p [] | None -> ());
          t.ok <- false
        end
      end
      else begin
        let c = { lits = Array.sub buf 0 w; activity = 0.; learnt = false; deleted = false } in
        Vec.push t.clauses c;
        attach t (Vec.size t.clauses - 1)
      end
    end
  end

(* ---------------- conflict analysis (first UIP) ---------------- *)

let analyze t confl learnt_out =
  let seen = t.seen in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Veci.size t.trail - 1) in
  let btlevel = ref 0 in
  Veci.clear learnt_out;
  Veci.push learnt_out 0 (* room for the asserting literal *);
  let continue = ref true in
  while !continue do
    let c = Vec.get t.clauses !confl in
    if c.learnt then cla_bump t c;
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length c.lits - 1 do
      let q = c.lits.(j) in
      let v = q lsr 1 in
      if Bytes.get seen v = '\000' && t.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        var_bump t v;
        if t.level.(v) >= decision_level t then incr counter
        else begin
          Veci.push learnt_out q;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* pick next node on the trail to expand *)
    while Bytes.get seen (Veci.get t.trail !idx lsr 1) = '\000' do
      decr idx
    done;
    p := Veci.get t.trail !idx;
    decr idx;
    let v = !p lsr 1 in
    Bytes.set seen v '\000';
    decr counter;
    if !counter = 0 then continue := false
    else confl := t.reason.(v)
  done;
  Veci.set learnt_out 0 (Lit.negate !p);
  (* basic clause minimisation: a non-asserting literal is redundant if
     its reason's literals are all seen or at level 0 *)
  let redundant q =
    let v = q lsr 1 in
    let r = t.reason.(v) in
    r >= 0
    && begin
         let c = Vec.get t.clauses r in
         let ok = ref true in
         for j = 1 to Array.length c.lits - 1 do
           let u = c.lits.(j) lsr 1 in
           if Bytes.get seen u = '\000' && t.level.(u) > 0 then ok := false
         done;
         !ok
       end
  in
  let kept = Veci.create ~capacity:(Veci.size learnt_out) () in
  Veci.push kept (Veci.get learnt_out 0);
  for i = 1 to Veci.size learnt_out - 1 do
    let q = Veci.get learnt_out i in
    if not (redundant q) then Veci.push kept q
  done;
  (* clear seen flags *)
  for i = 1 to Veci.size learnt_out - 1 do
    Bytes.set seen (Veci.get learnt_out i lsr 1) '\000'
  done;
  Veci.clear learnt_out;
  Veci.iter (fun l -> Veci.push learnt_out l) kept;
  (* recompute backtrack level on the minimised clause *)
  if Veci.size learnt_out = 1 then 0
  else begin
    btlevel := 0;
    for i = 1 to Veci.size learnt_out - 1 do
      let lv = t.level.(Veci.get learnt_out i lsr 1) in
      if lv > !btlevel then btlevel := lv
    done;
    !btlevel
  end

(* Final-conflict analysis (MiniSat's analyzeFinal): [a] is the next
   assumption literal, found false under the previous assumption levels.
   Walk the trail top-down from the implied literal [~a], expanding
   reasons; decisions reached this way are exactly the earlier
   assumptions responsible.  Returns the failed assumptions in the
   polarity the caller passed them, [a] included.  Only called while
   every decision on the trail is an assumption. *)
let analyze_final t a =
  let out = ref [ a ] in
  if decision_level t > 0 then begin
    let seen = t.seen in
    Bytes.set seen (a lsr 1) '\001';
    let bottom = Veci.get t.trail_lim 0 in
    for i = Veci.size t.trail - 1 downto bottom do
      let l = Veci.get t.trail i in
      let v = l lsr 1 in
      if Bytes.get seen v = '\001' then begin
        (if t.reason.(v) < 0 then begin
           if t.level.(v) > 0 && l <> a then out := l :: !out
         end
         else begin
           let c = Vec.get t.clauses t.reason.(v) in
           for j = 1 to Array.length c.lits - 1 do
             let u = c.lits.(j) lsr 1 in
             if t.level.(u) > 0 then Bytes.set seen u '\001'
           done
         end);
        Bytes.set seen v '\000'
      end
    done;
    Bytes.set seen (a lsr 1) '\000'
  end;
  !out

let record_learnt t learnt =
  let n = Veci.size learnt in
  (match t.proof with
  | Some p -> Proof.log_add p (List.init n (fun i -> Veci.get learnt i))
  | None -> ());
  if n = 1 then begin
    enqueue t (Veci.get learnt 0) (-1)
  end
  else begin
    let arr = Array.init n (fun i -> Veci.get learnt i) in
    (* position 1 must hold a literal from the backtrack level so the
       watch invariant holds immediately after the jump *)
    let best = ref 1 in
    for i = 2 to n - 1 do
      if t.level.(arr.(i) lsr 1) > t.level.(arr.(!best) lsr 1) then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let c = { lits = arr; activity = t.cla_inc; learnt = true; deleted = false } in
    Vec.push t.clauses c;
    t.n_learnt <- t.n_learnt + 1;
    let ci = Vec.size t.clauses - 1 in
    attach t ci;
    enqueue t arr.(0) ci
  end

(* ---------------- learnt DB reduction ---------------- *)

let reduce_db t =
  (* Collect learnt, non-reason clauses; delete the low-activity half. *)
  let cand = ref [] in
  Vec.iteri
    (fun ci (c : clause) ->
      if c.learnt && (not c.deleted) && Array.length c.lits > 2 then begin
        let is_reason =
          let v0 = c.lits.(0) lsr 1 in
          t.assigns.(v0) >= 0 && t.reason.(v0) = ci
        in
        if not is_reason then cand := (ci, c) :: !cand
      end)
    t.clauses;
  let arr = Array.of_list !cand in
  Array.sort (fun (_, a) (_, b) -> compare a.activity b.activity) arr;
  let ndel = Array.length arr / 2 in
  for i = 0 to ndel - 1 do
    let ci, c = arr.(i) in
    detach t ci;
    c.deleted <- true;
    (match t.proof with
    | Some p -> Proof.log_delete p (Array.to_list c.lits)
    | None -> ());
    t.n_learnt <- t.n_learnt - 1
  done

(* ---------------- restarts: Luby sequence ---------------- *)

let rec luby i =
  (* Smallest k with 2^k - 1 >= i; exact hit yields 2^(k-1), otherwise
     recurse on the tail of the sequence.  [i] is 1-based. *)
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - ((1 lsl (!k - 1)) - 1))

(* ---------------- main search ---------------- *)

let pick_branch_var t =
  (* occasional random decisions break heavy-tailed behaviour on
     structured (routing-style) instances *)
  let random_pick () =
    if t.random_freq > 0.0 && random_float t < t.random_freq then begin
      let v = Int64.to_int (Int64.rem (Int64.shift_right_logical (next_random t) 1)
                              (Int64.of_int t.nvars)) in
      if t.assigns.(v) < 0 then v else -1
    end
    else -1
  in
  let r = random_pick () in
  if r >= 0 then r
  else
    let rec go () =
      if t.heap_size = 0 then -1
      else
        let v = heap_pop t in
        if t.assigns.(v) < 0 then v else go ()
    in
    go ()

let solve_with ?(deadline = Deadline.none) ~assumptions t =
  List.iter
    (fun l ->
      if l lsr 1 >= t.nvars then invalid_arg "Solver.solve_with: unknown variable")
    assumptions;
  t.failed <- [];
  if not t.ok then Unsat
  else begin
    let assumptions = Array.of_list assumptions in
    let n_assumptions = Array.length assumptions in
    cancel_until t 0;
    t.trail_head <- 0;
    let learnt_scratch = Veci.create () in
    let restart_no = ref 0 in
    let simp_pending = ref (t.inprocess <> None) in
    let conflicts_left = ref (100 * luby 1) in
    if t.max_learnts < float_of_int (Vec.size t.clauses) /. 3. then
      t.max_learnts <- float_of_int (Vec.size t.clauses) /. 3.;
    let result = ref None in
    (try
       while !result = None do
         let confl = propagate t in
         if confl >= 0 then begin
           t.conflicts <- t.conflicts + 1;
           decr conflicts_left;
           if decision_level t = 0 then begin
             (match t.proof with Some p -> Proof.log_add p [] | None -> ());
             t.ok <- false;
             (* a root conflict refutes the clause set itself: no
                assumption is to blame, [failed] stays empty *)
             result := Some Unsat
           end
           else begin
             let btlevel = analyze t confl learnt_scratch in
             cancel_until t btlevel;
             record_learnt t learnt_scratch;
             var_decay_act t;
             cla_decay t;
             if t.conflicts land 1023 = 0 && Deadline.expired deadline then
               result := Some Unknown
           end
         end
         else begin
           (* no conflict *)
           if !simp_pending then begin
             (* inprocess at solve start, once the initial propagation
                has drained (the hook requires a quiescent root state) *)
             simp_pending := false;
             if decision_level t = 0 then begin
               (match t.inprocess with Some f -> f t | None -> ());
               if not t.ok then result := Some Unsat
             end
           end;
           if !result <> None then ()
           else begin
           if float_of_int t.n_learnt >= t.max_learnts then begin
             reduce_db t;
             t.max_learnts <- t.max_learnts *. 1.15
           end;
           if !conflicts_left <= 0 then begin
             (* restart *)
             t.restarts <- t.restarts + 1;
             incr restart_no;
             conflicts_left := 100 * luby (!restart_no + 1);
             cancel_until t 0;
             (* inprocess between restarts: the scheduler decides how
                much (if any) work to do under its deduction budget *)
             (match t.inprocess with Some f -> f t | None -> ());
             if not t.ok then result := Some Unsat
           end
           else if decision_level t < n_assumptions then begin
             (* assumption levels come before free decisions: each
                assumption occupies one decision level (a dummy level
                when already entailed), so after any backjump the
                [decision_level < n_assumptions] test resumes the
                prefix at exactly the right index *)
             let a = assumptions.(decision_level t) in
             match lit_val t a with
             | 1 -> Veci.push t.trail_lim (Veci.size t.trail)
             | 0 ->
                 (* the assumption is refuted under the earlier ones:
                    extract the responsible subset *)
                 t.failed <- analyze_final t a;
                 result := Some Unsat
             | _ ->
                 Veci.push t.trail_lim (Veci.size t.trail);
                 enqueue t a (-1)
           end
           else begin
             t.decisions <- t.decisions + 1;
             if t.decisions land 4095 = 0 && Deadline.expired deadline then
               result := Some Unknown
             else begin
               let v = pick_branch_var t in
               if v < 0 then begin
                 (* model found *)
                 if Array.length t.model < t.nvars then t.model <- Array.make t.nvars 0;
                 for u = 0 to t.nvars - 1 do
                   t.model.(u) <-
                     (if t.assigns.(u) >= 0 then t.assigns.(u)
                      else Char.code (Bytes.get t.phase u))
                 done;
                 result := Some Sat
               end
               else begin
                 Veci.push t.trail_lim (Veci.size t.trail);
                 let sign = Char.code (Bytes.get t.phase v) in
                 enqueue t (Lit.make v (sign = 1)) (-1)
               end
             end
           end
           end
         end
       done
     with e ->
       cancel_until t 0;
       raise e);
    (match !result with
    | Some Sat | Some Unknown | None -> cancel_until t 0
    | Some Unsat -> cancel_until t 0);
    match !result with Some r -> r | None -> assert false
  end

let solve ?deadline t = solve_with ?deadline ~assumptions:[] t

let failed_assumptions t = t.failed

let value t v =
  if Array.length t.model > v then t.model.(v) = 1 else Char.code (Bytes.get t.phase v) = 1

let lit_value t l =
  let b = value t (l lsr 1) in
  if Lit.sign l then b else not b

(* ---------------- inprocessing support (internal API) ---------------- *)

(* Probe and Bin_graph drive the solver through this narrow surface;
   Inprocess installs the scheduler via [set_inprocess].  Everything
   here assumes and preserves the root state: decision level 0,
   propagation queue drained. *)

let set_inprocess t f = t.inprocess <- f

let simp_prepare t =
  if (not t.ok) || decision_level t > 0 || t.trail_head < Veci.size t.trail then
    false
  else begin
    (* root facts need no reason clauses; clearing them leaves the
       clauses that implied them free for [reduce_db] to collect *)
    for i = 0 to Veci.size t.trail - 1 do
      t.reason.(Veci.get t.trail i lsr 1) <- -1
    done;
    true
  end

let n_clause_slots t = Vec.size t.clauses

let clause_view t ci =
  let c = Vec.get t.clauses ci in
  if c.deleted then [||] else c.lits

let root_value t l = lit_val t l

let simp_add_unit t l =
  (match t.proof with Some p -> Proof.log_add p [ l ] | None -> ());
  if t.ok then
    match lit_val t l with
    | 1 -> ()
    | 0 ->
        (match t.proof with Some p -> Proof.log_add p [] | None -> ());
        t.ok <- false
    | _ ->
        enqueue t l (-1);
        if propagate t >= 0 then begin
          (match t.proof with Some p -> Proof.log_add p [] | None -> ());
          t.ok <- false
        end

let probe_lit t l =
  if (not t.ok) || decision_level t > 0 || lit_val t l <> -1 then false
  else begin
    Veci.push t.trail_lim (Veci.size t.trail);
    enqueue t l (-1);
    let confl = propagate t in
    cancel_until t 0;
    confl >= 0
  end

let note_probed_failed t = t.n_probed_failed <- t.n_probed_failed + 1
