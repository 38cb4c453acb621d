(* Conflict-driven clause learning, MiniSat-style.  The invariants that
   matter are spelled out inline because the code is imperative and hot:

   - Every clause lives inline in one int array, the arena: a header
     word, then its literals.  A clause is named by its arena offset c:
     [arena.(c)] is the header and [arena.(c + 1 .. c + len)] the
     literals.  A learnt clause has one more word after its literals,
     the index of its activity in [act].  The header packs the length,
     the learnt and deleted bits, and the clause's slot (its rank among
     all clauses ever stored), which [clause_view] answers by.
   - A clause watches its first two literals; offset c appears in the
     watch slices of [Lit.negate arena.(c + 1)] and
     [Lit.negate arena.(c + 2)], so when a literal p is assigned true,
     p's slice lists exactly the clauses that just lost a watched
     literal.  Every live clause before [unwatched] in the arena is
     watched; the problem clauses from [unwatched] on are not yet, and
     [watch_pending] watches them, in clause order, before anything
     propagates.  A learnt clause is watched at once.
   - The watch slices share one int array, the watch arena.  Literal
     l's entries are [watches.(wstart.(l) .. wstart.(l) + wsize.(l) - 1)],
     with room for [wcap.(l)] words; the word before the slice holds l.
     A slice that fills moves, in order, to the end of the arena, and
     its old words become a hole whose first word holds [lnot] of the
     hole's length.  When the arena is full and holes pass a quarter
     of the words in use, [compact_watches] moves the slices down in
     arena order.  A literal that never watched a clause has no slice
     and [wcap.(l) = 0].
   - Each watch is a (entry, blocker) pair.  A long clause's entry is
     its offset c; a binary clause's entry is tagged as [lnot c]
     (always negative) and its blocker is always its other literal, so
     propagation decides it from that literal's value alone.  A
     clause's length never changes, so the tag is fixed when it is
     first watched.
   - The reason clause of an implied literal has that literal at
     position 0; the binary path swaps it there too.  [reason.(v)] is
     that clause's offset, or -1.
   - Deleted clauses are detached at once and their words counted dead;
     once the dead words pass a fifth of the arena, [compact] moves the
     live clauses down in order and rewrites every watch entry and
     trail reason, so watch lists keep their order.
   - [trail_lim] holds the trail height at each decision; level 0 facts
     are permanent.

   The library is compiled with [-opaque] in dune's default profile, so
   no call into [Veci] or [Lit] is inlined.  [propagate] therefore reads
   the clause arena and the per-literal slice arrays once per call, the
   trail's backing array once per propagated literal ([Veci.data]), and
   indexes them directly.  Those stay valid while they are used: no
   clause or variable is added during propagation, and the trail, which
   [enqueue] pushes onto, is fetched afresh for each literal.  The watch
   arena is the exception: a moved watch goes to another literal's
   slice, and when that slice is full it moves, which may grow or
   compact the arena in the middle of a traversal.  The traversal then
   re-reads the arena and its own slice's start. *)

module Veci = Cgra_util.Veci
module Deadline = Cgra_util.Deadline

(* Header word: bit 0 learnt, bit 1 deleted, bits 2..31 the length,
   bits 32.. the slot (which only [clause_view] reads, so it may wrap
   past 2^31 clauses without harm to the search). *)
let learnt_bit = 1
let deleted_bit = 2
let len_mask = 0x3FFF_FFFF

let header ~slot ~len ~learnt = (slot lsl 32) lor (len lsl 2) lor if learnt then learnt_bit else 0
let hdr_len h = (h lsr 2) land len_mask
let hdr_slot h = h lsr 32

(* Words a clause with header [h] takes in the arena. *)
let hdr_words h = 1 + hdr_len h + (h land learnt_bit)

type result = Sat | Unsat | Unknown

(* Proof logging, while a {!Proof} sink is attached.  Every stored
   clause has a proof ID, [ids.(slot)]; a root-level fact has one too,
   the ID of a unit clause that holds it, once some lemma cites it.
   [hints], [chain] and [dropped] collect the hints of the lemma being
   derived; [roots] lists the level-0 variables whose units it already
   cites, marked [root_mark] in [seen]. *)
type logger = {
  proof : Proof.t;
  ids : Veci.t;
  mutable unit_ids : int array;  (* var -> ID of its root unit, 0 none yet *)
  hints : Veci.t;
  chain : Veci.t;  (* reasons resolved on, latest first *)
  dropped : Veci.t;  (* reasons of the literals minimisation drops *)
  roots : Veci.t;
}

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
  mutable arena : int array;         (* all clauses, problem + learnt *)
  mutable arena_top : int;           (* words in use *)
  mutable dead_words : int;          (* words of deleted clauses *)
  mutable n_slots : int;             (* clauses ever stored *)
  mutable act : float array;         (* learnt clause activities *)
  mutable n_act : int;
  mutable watches : int array;       (* the watch arena: every literal's slice *)
  mutable wtop : int;                (* watch-arena words in use *)
  mutable wdead : int;               (* words of holes left by moved slices *)
  mutable wstart : int array;        (* literal -> first word of its slice *)
  mutable wsize : int array;         (* literal -> words its slice holds *)
  mutable wcap : int array;          (* literal -> words its slice has room for *)
  mutable unwatched : int;           (* arena offset of the first unwatched clause *)
  mutable wneed : int array;         (* literal -> pending watch words; 0 between calls *)
  wtouched : Veci.t;                 (* literals with pending watches, first seen first *)
  mutable assigns : int array;       (* var -> -1 / 0 / 1 *)
  mutable phase : Bytes.t;           (* var -> saved polarity *)
  mutable level : int array;         (* var -> decision level *)
  mutable reason : int array;        (* var -> clause offset or -1 *)
  mutable var_act : float array;
  mutable seen : Bytes.t;            (* conflict-analysis scratch *)
  learnt_buf : Veci.t;               (* the clause [analyze] learns *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable trail_head : int;
  mutable heap : int array;          (* binary max-heap of vars *)
  mutable heap_size : int;
  mutable heap_pos : int array;      (* var -> heap index or -1 *)
  mutable var_inc : float;
  var_decay : float;
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
  mutable log : logger option;  (* proof sink; None = no logging *)
  mutable failed : int list;    (* failed assumptions of the last solve_with *)
  mutable guard : int;          (* literal appended to every added clause, or -1 *)
  mutable cbuf : int array;     (* add_clause's normalisation buffer *)
  mutable inprocess : (t -> unit) option;  (* fired at solve start + restarts *)
  mutable n_probed_failed : int;
}

let create () =
  {
    nvars = 0;
    arena = Array.make 64 0;
    arena_top = 0;
    dead_words = 0;
    n_slots = 0;
    act = Array.make 16 0.;
    n_act = 0;
    watches = Array.make 64 0;
    wtop = 0;
    wdead = 0;
    wstart = Array.make 2 0;
    wsize = Array.make 2 0;
    wcap = Array.make 2 0;
    unwatched = 0;
    wneed = Array.make 2 0;
    wtouched = Veci.create ();
    assigns = Array.make 1 (-1);
    phase = Bytes.make 1 '\000';
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    var_act = Array.make 1 0.;
    seen = Bytes.make 1 '\000';
    learnt_buf = Veci.create ();
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
    log = None;
    failed = [];
    guard = -1;
    cbuf = Array.make 16 0;
    inprocess = None;
    n_probed_failed = 0;
  }

let set_proof t proof =
  match proof with
  | None -> t.log <- None
  | Some p ->
      (* clauses stored before the sink have no ID: 0 names none *)
      t.log <-
        Some
          {
            proof = p;
            ids = Veci.make t.n_slots 0;
            unit_ids = [||];
            hints = Veci.create ();
            chain = Veci.create ();
            dropped = Veci.create ();
            roots = Veci.create ();
          }

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

let nvars t = t.nvars
let ok t = t.ok

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

let zero_stats =
  { conflicts = 0; decisions = 0; propagations = 0; restarts = 0; learnt = 0; probed_failed = 0 }

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
    (* per literal: no slice until the literal first watches a clause *)
    let grow_lits a =
      let a' = Array.make (2 * cap') 0 in
      Array.blit a 0 a' 0 (2 * cap);
      a'
    in
    t.wstart <- grow_lits t.wstart;
    t.wsize <- grow_lits t.wsize;
    t.wcap <- grow_lits t.wcap;
    t.wneed <- grow_lits t.wneed
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

(* Bump the activity of learnt clause [c]; activities are rescaled
   together when one grows too large. *)
let cla_bump t c =
  let i = t.arena.(c + 1 + hdr_len t.arena.(c)) in
  t.act.(i) <- t.act.(i) +. t.cla_inc;
  if t.act.(i) > 1e20 then begin
    for k = 0 to t.n_act - 1 do
      t.act.(k) <- t.act.(k) *. 1e-20
    done;
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

(* ---------------- clause storage ---------------- *)

let resize_arena t cap =
  let a = Array.make cap 0 in
  Array.blit t.arena 0 a 0 t.arena_top;
  t.arena <- a

(* Make room for [words] more words, doubling the arena. *)
let ensure_words t words =
  let need = t.arena_top + words in
  if need > Array.length t.arena then resize_arena t (max need (2 * Array.length t.arena))

(* The per-variable arrays grow at most once, to [vars] more variables
   or to twice their size.  The clause arena also gets a quarter more
   room for learnt clauses: enough for the searches of most mapping
   queries, which then never copy the arena. *)
let reserve t ~vars ~clauses ~literals =
  if vars < 0 || clauses < 0 || literals < 0 then invalid_arg "Solver.reserve: negative count";
  grow_arrays t (t.nvars + vars);
  let words = clauses + literals in
  let need = t.arena_top + words in
  if need > Array.length t.arena then resize_arena t (need + (words / 4))

(* Store [buf.(0 .. n-1)] as a new clause (n >= 2) with proof ID [id]
   and return its offset.  A learnt clause also gets an activity,
   [t.cla_inc]. *)
let store t ~learnt ~id buf n =
  (match t.log with Some lg -> Veci.push lg.ids id | None -> ());
  ensure_words t (n + if learnt then 2 else 1);
  let c = t.arena_top and a = t.arena in
  a.(c) <- header ~slot:t.n_slots ~len:n ~learnt;
  Array.blit buf 0 a (c + 1) n;
  t.arena_top <- c + 1 + n;
  t.n_slots <- t.n_slots + 1;
  if learnt then begin
    if t.n_act = Array.length t.act then begin
      let act = Array.make (2 * t.n_act) 0. in
      Array.blit t.act 0 act 0 t.n_act;
      t.act <- act
    end;
    t.act.(t.n_act) <- t.cla_inc;
    a.(c + 1 + n) <- t.n_act;
    t.n_act <- t.n_act + 1;
    t.arena_top <- t.arena_top + 1
  end;
  c

(* ---------------- proof hints ---------------- *)

(* Marks in [seen], beside conflict analysis's 1: a level-0 variable
   whose unit the lemma being derived already cites, and a literal
   minimisation dropped whose reason is not cited yet.  Analysis never
   reads a level-0 variable's mark, and tests the others only against
   0, so neither changes the search. *)
let root_mark = '\003'
let dropped_mark = '\002'

let clause_id lg t c = Veci.get lg.ids (hdr_slot t.arena.(c))

let set_unit_id lg v id =
  let n = Array.length lg.unit_ids in
  if v >= n then begin
    let a = Array.make (max (v + 1) (2 * n)) 0 in
    Array.blit lg.unit_ids 0 a 0 n;
    lg.unit_ids <- a
  end;
  lg.unit_ids.(v) <- id

(* The ID of the unit clause holding variable [v]'s root value.  The
   first time a lemma cites it, it is derived from [v]'s reason and the
   units of the reason's other literals, all false at the root.  A
   fact with neither (asserted before the sink was attached) has none:
   0, which no checker accepts. *)
let rec root_unit t lg v =
  let id = if v < Array.length lg.unit_ids then lg.unit_ids.(v) else 0 in
  if id > 0 then id
  else
    let c = t.reason.(v) in
    if c < 0 then 0
    else begin
      let n = hdr_len t.arena.(c) in
      let hints = Array.make n 0 in
      for j = 1 to n - 1 do
        hints.(j - 1) <- root_unit t lg (t.arena.(c + 1 + j) lsr 1)
      done;
      hints.(n - 1) <- clause_id lg t c;
      let id = Proof.log_add ~counted:false lg.proof [| t.arena.(c + 1) |] 1 hints n in
      set_unit_id lg v id;
      id
    end

(* Cite the unit of level-0 variable [v] once in the lemma being
   derived. *)
let cite_root t lg v =
  if Bytes.get t.seen v <> root_mark then begin
    Bytes.set t.seen v root_mark;
    Veci.push lg.roots v;
    Veci.push lg.hints (root_unit t lg v)
  end

(* Complete the lemma's hints: after the root units, the reasons of
   dropped literals, then the chain oldest first, ending at the
   conflict.  Clears the root marks. *)
let finish_hints t lg =
  Veci.iter (Veci.push lg.hints) lg.dropped;
  for i = Veci.size lg.chain - 1 downto 0 do
    Veci.push lg.hints (Veci.get lg.chain i)
  done;
  Veci.iter (fun v -> Bytes.set t.seen v '\000') lg.roots;
  Veci.clear lg.roots;
  Veci.clear lg.chain;
  Veci.clear lg.dropped

(* Log [lits.(0 .. n-1)] as a lemma with the hints collected. *)
let log_hinted lg lits n =
  Proof.log_add lg.proof lits n (Veci.data lg.hints) (Veci.size lg.hints)

(* Log the empty clause: clause [c] is false at the root. *)
let log_root_conflict t c =
  match t.log with
  | None -> ()
  | Some lg ->
      Veci.clear lg.hints;
      for j = c + 1 to c + hdr_len t.arena.(c) do
        Veci.push lg.hints (root_unit t lg (t.arena.(j) lsr 1))
      done;
      Veci.push lg.hints (clause_id lg t c);
      ignore (log_hinted lg [||] 0)

(* ---------------- the watch arena ---------------- *)

(* A slice holds (watch entry, blocker literal) pairs flattened as two
   consecutive ints; a true blocker lets propagation skip the clause
   without touching its literals.  A binary clause's entry is tagged
   (see the header). *)

(* Move the slices down over the holes, in arena order, keeping each
   slice's room. *)
let compact_watches t =
  let w = t.watches in
  let pos = ref 0 and top = ref 0 in
  while !pos < t.wtop do
    let h = w.(!pos) in
    if h < 0 then pos := !pos + lnot h
    else begin
      let words = 1 + t.wcap.(h) in
      if !top < !pos then Array.blit w !pos w !top (1 + t.wsize.(h));
      t.wstart.(h) <- !top + 1;
      top := !top + words;
      pos := !pos + words
    end
  done;
  t.wtop <- !top;
  t.wdead <- 0

(* Make room for [words] more words at the end of the watch arena:
   reclaim the holes once they are a quarter of the words in use, and
   grow the array if that is not enough.  (A slice that doubles leaves
   a hole as large as its last room, so holes near half the words in
   use are the steady state.) *)
let make_watch_room t words =
  if 4 * t.wdead > t.wtop then compact_watches t;
  let need = t.wtop + words in
  if need > Array.length t.watches then begin
    let w = Array.make (max need (2 * Array.length t.watches)) 0 in
    Array.blit t.watches 0 w 0 t.wtop;
    t.watches <- w
  end

(* Move literal [l]'s slice to the end of the arena with room for
   [cap] words; its old words become a hole. *)
let move_slice t l cap =
  if t.wtop + 1 + cap > Array.length t.watches then make_watch_room t (1 + cap);
  let w = t.watches and s = t.wstart.(l) and old_cap = t.wcap.(l) in
  let s' = t.wtop + 1 in
  w.(s' - 1) <- l;
  Array.blit w s w s' t.wsize.(l);
  if old_cap > 0 then begin
    w.(s - 1) <- lnot (1 + old_cap);
    t.wdead <- t.wdead + 1 + old_cap
  end;
  t.wstart.(l) <- s';
  t.wcap.(l) <- cap;
  t.wtop <- s' + cap

(* Room a slice that fills takes on its move: it doubles. *)
let grown_cap cap = max 4 (2 * cap)

let push_watch t l e blocker =
  let n = t.wsize.(l) in
  if n + 2 > t.wcap.(l) then move_slice t l (grown_cap t.wcap.(l));
  let i = t.wstart.(l) + n in
  t.watches.(i) <- e;
  t.watches.(i + 1) <- blocker;
  t.wsize.(l) <- n + 2

let watch_entry t c = if hdr_len t.arena.(c) = 2 then lnot c else c

let attach t c =
  let e = watch_entry t c and l0 = t.arena.(c + 1) and l1 = t.arena.(c + 2) in
  push_watch t (Lit.negate l0) e l1;
  push_watch t (Lit.negate l1) e l0

(* Watch every clause from [unwatched] on, as [attach] would one by one:
   count the words each literal gains, move every slice short of room
   once (to exactly the room it needs, or to twice its room, whichever
   is more), then write the entries in clause order. *)
let watch_pending t =
  let a = t.arena and need = t.wneed and touched = t.wtouched in
  Veci.clear touched;
  let c = ref t.unwatched in
  while !c < t.arena_top do
    let h = a.(!c) in
    let l0 = a.(!c + 1) lxor 1 and l1 = a.(!c + 2) lxor 1 in
    if need.(l0) = 0 then Veci.push touched l0;
    need.(l0) <- need.(l0) + 2;
    if need.(l1) = 0 then Veci.push touched l1;
    need.(l1) <- need.(l1) + 2;
    c := !c + hdr_words h
  done;
  let cap_for l =
    max (t.wsize.(l) + need.(l)) (grown_cap t.wcap.(l))
  in
  let words = ref 0 in
  for k = 0 to Veci.size touched - 1 do
    let l = Veci.get touched k in
    if t.wsize.(l) + need.(l) > t.wcap.(l) then words := !words + 1 + cap_for l
  done;
  (* and a quarter more room, for the slices the first searches move *)
  if t.wtop + !words > Array.length t.watches then make_watch_room t (!words + (!words / 4));
  for k = 0 to Veci.size touched - 1 do
    let l = Veci.get touched k in
    if t.wsize.(l) + need.(l) > t.wcap.(l) then move_slice t l (cap_for l);
    need.(l) <- 0
  done;
  let w = t.watches and wstart = t.wstart and wsize = t.wsize in
  let put l e blocker =
    let n = wsize.(l) in
    let i = wstart.(l) + n in
    w.(i) <- e;
    w.(i + 1) <- blocker;
    wsize.(l) <- n + 2
  in
  let c = ref t.unwatched in
  while !c < t.arena_top do
    let h = a.(!c) in
    let e = if hdr_len h = 2 then lnot !c else !c in
    let l0 = a.(!c + 1) and l1 = a.(!c + 2) in
    put (l0 lxor 1) e l1;
    put (l1 lxor 1) e l0;
    c := !c + hdr_words h
  done;
  t.unwatched <- t.arena_top

let detach t c =
  let e = watch_entry t c in
  let remove l =
    let w = t.watches and s = t.wstart.(l) and n = t.wsize.(l) in
    let rec go i =
      if i < n then
        if w.(s + i) = e then begin
          (* remove the pair by moving the last pair into its place *)
          if i < n - 2 then begin
            w.(s + i) <- w.(s + n - 2);
            w.(s + i + 1) <- w.(s + n - 1)
          end;
          t.wsize.(l) <- n - 2
        end
        else go (i + 2)
    in
    go 0
  in
  remove (Lit.negate t.arena.(c + 1));
  remove (Lit.negate t.arena.(c + 2))

(* ---------------- propagation ---------------- *)

(* Unit propagation to fixpoint; returns the conflicting clause's offset,
   or -1.  Literal evaluation, the new-watch search and [enqueue] are
   written out inline (see the header for why): literal [l] is true
   when [assigns.(var l) = (l land 1) lxor 1] and false when
   [assigns.(var l) = l land 1]. *)
let propagate t =
  if t.unwatched < t.arena_top then watch_pending t;
  let assigns = t.assigns and level = t.level and reason = t.reason in
  let wstart = t.wstart and wsize = t.wsize and wcap = t.wcap and trail = t.trail in
  let arena = t.arena in
  let dl = decision_level t in
  let head = ref t.trail_head and tsize = ref (Veci.size trail) in
  let confl = ref (-1) in
  while !confl < 0 && !head < !tsize do
    let p = (Veci.data trail).(!head) in
    incr head;
    t.propagations <- t.propagations + 1;
    let false_lit = p lxor 1 in
    let ws = ref t.watches in
    (* Rebuild the slice in place: [i] reads and [j] writes, both arena
       indices; clauses that move their watch elsewhere are dropped
       from this slice.  [base] is the slice's start, which moves with
       it if the arena is compacted. *)
    let base = ref wstart.(p) in
    let i = ref !base and j = ref !base and lim = ref (!base + wsize.(p)) in
    while !i < !lim && !confl < 0 do
      let e = Array.unsafe_get !ws !i and blocker = Array.unsafe_get !ws (!i + 1) in
      i := !i + 2;
      if Array.unsafe_get assigns (blocker lsr 1) = (blocker land 1) lxor 1 then begin
        (* satisfied without touching the clause *)
        Array.unsafe_set !ws !j e;
        Array.unsafe_set !ws (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let c = if e < 0 then lnot e else e in
        (* keep the false literal at position 1, so that a literal the
           clause implies ends up at position 0 *)
        if Array.unsafe_get arena (c + 1) = false_lit then begin
          Array.unsafe_set arena (c + 1) (Array.unsafe_get arena (c + 2));
          Array.unsafe_set arena (c + 2) false_lit
        end;
        (* [implied]: the literal the clause implies or conflicts on, or
           -1 when it is satisfied or has moved its watch *)
        let implied =
          if e < 0 then blocker (* binary: the blocker is position 0 *)
          else begin
            let first = Array.unsafe_get arena (c + 1) in
            if Array.unsafe_get assigns (first lsr 1) = (first land 1) lxor 1 then begin
              (* satisfied; keep watching with the true literal as the
                 new blocker *)
              Array.unsafe_set !ws !j e;
              Array.unsafe_set !ws (!j + 1) first;
              j := !j + 2;
              -1
            end
            else begin
              (* look for a new watch: a literal past position 1 that
                 is not false *)
              let stop = c + 1 + hdr_len (Array.unsafe_get arena c) in
              let k = ref (c + 3) in
              while
                !k < stop
                &&
                let l = Array.unsafe_get arena !k in
                Array.unsafe_get assigns (l lsr 1) = l land 1
              do
                incr k
              done;
              if !k < stop then begin
                let w = Array.unsafe_get arena !k in
                Array.unsafe_set arena (c + 2) w;
                Array.unsafe_set arena !k false_lit;
                (* watch it from [w]'s negation, never [p] itself: [w]
                   is not false and [false_lit] is *)
                let l = w lxor 1 in
                let n = wsize.(l) in
                if n + 2 > wcap.(l) then begin
                  move_slice t l (grown_cap wcap.(l));
                  ws := t.watches;
                  let d = wstart.(p) - !base in
                  base := !base + d;
                  i := !i + d;
                  j := !j + d;
                  lim := !lim + d
                end;
                let at = wstart.(l) + n in
                Array.unsafe_set !ws at e;
                Array.unsafe_set !ws (at + 1) first;
                wsize.(l) <- n + 2;
                -1
              end
              else first
            end
          end
        in
        if implied >= 0 then begin
          Array.unsafe_set !ws !j e;
          Array.unsafe_set !ws (!j + 1) blocker;
          j := !j + 2;
          let v = implied lsr 1 in
          if Array.unsafe_get assigns v < 0 then begin
            (* enqueue *)
            assigns.(v) <- (implied land 1) lxor 1;
            level.(v) <- dl;
            reason.(v) <- c;
            Veci.push trail implied;
            incr tsize
          end
          else confl := c
        end
      end
    done;
    (* after a conflict, keep the watchers not yet visited *)
    while !i < !lim do
      Array.unsafe_set !ws !j (Array.unsafe_get !ws !i);
      Array.unsafe_set !ws (!j + 1) (Array.unsafe_get !ws (!i + 1));
      j := !j + 2;
      i := !i + 2
    done;
    wsize.(p) <- !j - !base
  done;
  t.trail_head <- !tsize;
  !confl

let seed_phases_array t lits =
  if t.ok then begin
    cancel_until t 0;
    t.trail_head <- Veci.size t.trail;
    (* throwaway decision level *)
    Veci.push t.trail_lim (Veci.size t.trail);
    (try
       Array.iter
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

let seed_phases t lits = seed_phases_array t (Array.of_list lits)

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

(* Make [cbuf] hold the guard and [len] more literals; returns the index
   the caller's literals start at. *)
let clause_buffer t len =
  let cap = len + 1 in
  if cap > Array.length t.cbuf then t.cbuf <- Array.make (max cap (2 * Array.length t.cbuf)) 0;
  if t.guard < 0 then 0
  else begin
    t.cbuf.(0) <- t.guard;
    1
  end

(* Add the clause [cbuf.(0 .. n-1)].  A clause of two or more literals
   is stored and left for [watch_pending]; a unit is propagated at once,
   and the clauses before it are watched first. *)
let add_buffered t n =
  cancel_until t 0;
  let buf = t.cbuf in
  (* normalise: sort, dedupe, drop tautologies and false-at-root lits *)
  let n = sort_uniq_prefix buf n in
  for i = 0 to n - 1 do
    if buf.(i) lsr 1 >= t.nvars then invalid_arg "Solver.add_clause: unknown variable"
  done;
  (* the normalised clause is logically the caller's clause; log it as
     a proof axiom before any root-level strengthening *)
  let input = match t.log with Some lg -> Proof.log_input lg.proof buf n | None -> 0 in
  (* sorted and deduplicated, a literal sits right before its
     complement, if present *)
  let tautology = ref false in
  for i = 0 to n - 1 do
    if lit_val t buf.(i) = 1 || (i + 1 < n && buf.(i + 1) = buf.(i) lxor 1) then
      tautology := true
  done;
  if not !tautology then begin
    (* dropping root-false literals is a unit-propagation inference:
       the strengthened clause is a lemma, derived from the units of
       the dropped literals and the input *)
    (match t.log with
    | Some lg ->
        Veci.clear lg.hints;
        for i = 0 to n - 1 do
          if lit_val t buf.(i) = 0 then Veci.push lg.hints (root_unit t lg (buf.(i) lsr 1))
        done
    | None -> ());
    let w = ref 0 in
    for i = 0 to n - 1 do
      if lit_val t buf.(i) <> 0 then begin
        buf.(!w) <- buf.(i);
        incr w
      end
    done;
    let w = !w in
    let id =
      match t.log with
      | Some lg when w < n ->
          Veci.push lg.hints input;
          log_hinted lg buf w
      | _ -> input
    in
    if w = 0 then t.ok <- false
    else if w = 1 then begin
      enqueue t buf.(0) (-1);
      (match t.log with Some lg -> set_unit_id lg (buf.(0) lsr 1) id | None -> ());
      let confl = propagate t in
      if confl >= 0 then begin
        log_root_conflict t confl;
        t.ok <- false
      end
    end
    else ignore (store t ~learnt:false ~id buf w)
  end

let add_clause_array t lits =
  if t.ok then begin
    let n = Array.length lits in
    let i = clause_buffer t n in
    Array.blit lits 0 t.cbuf i n;
    add_buffered t (i + n)
  end

let add_clause t lits = add_clause_array t (Array.of_list lits)

let add_binary t a b =
  if t.ok then begin
    let i = clause_buffer t 2 in
    t.cbuf.(i) <- a;
    t.cbuf.(i + 1) <- b;
    add_buffered t (i + 2)
  end

let add_ternary t a b c =
  if t.ok then begin
    let i = clause_buffer t 3 in
    t.cbuf.(i) <- a;
    t.cbuf.(i + 1) <- b;
    t.cbuf.(i + 2) <- c;
    add_buffered t (i + 3)
  end

(* ---------------- conflict analysis (first UIP) ---------------- *)

(* Basic clause minimisation: a non-asserting literal of the clause
   being learnt is redundant if its reason's literals are all seen or
   at level 0. *)
let redundant t q =
  let r = t.reason.(q lsr 1) in
  r >= 0
  && begin
       let ok = ref true in
       for j = r + 2 to r + hdr_len t.arena.(r) do
         let u = t.arena.(j) lsr 1 in
         if Bytes.get t.seen u = '\000' && t.level.(u) > 0 then ok := false
       done;
       !ok
     end

(* Cite the reason of [v], a variable whose literal minimisation
   dropped, after the reasons of the dropped literals it rests on and
   the units of its root literals: the reason becomes unit once they
   are all false. *)
let rec cite_dropped t lg v =
  Bytes.set t.seen v '\001';
  let r = t.reason.(v) in
  for j = r + 2 to r + hdr_len t.arena.(r) do
    let u = t.arena.(j) lsr 1 in
    if Bytes.get t.seen u = dropped_mark then cite_dropped t lg u
    else if t.level.(u) = 0 then cite_root t lg u
  done;
  Veci.push lg.dropped (clause_id lg t r)

(* Learns into [t.learnt_buf], asserting literal first; returns the
   backtrack level.  While a proof is logged it also collects the
   learnt clause's hints: the units of the root literals it resolved
   away, the reasons of the literals minimisation drops, and the
   reasons it resolved on in trail order, ending at the conflict. *)
let analyze t confl =
  let seen = t.seen and arena = t.arena and learnt_out = t.learnt_buf in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Veci.size t.trail - 1) in
  Veci.clear learnt_out;
  Veci.push learnt_out 0 (* room for the asserting literal *);
  (match t.log with Some lg -> Veci.clear lg.hints | None -> ());
  let continue = ref true in
  while !continue do
    let c = !confl in
    let h = arena.(c) in
    if h land learnt_bit <> 0 then cla_bump t c;
    (match t.log with Some lg -> Veci.push lg.chain (clause_id lg t c) | None -> ());
    let start = if !p = -1 then 0 else 1 in
    for j = c + 1 + start to c + hdr_len h do
      let q = arena.(j) in
      let v = q lsr 1 in
      if Bytes.get seen v = '\000' && t.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        var_bump t v;
        if t.level.(v) >= decision_level t then incr counter
        else Veci.push learnt_out q
      end
      else if t.level.(v) = 0 then
        match t.log with Some lg -> cite_root t lg v | None -> ()
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
  (* move the kept literals to the front, in order, and the redundant
     ones behind them: all their seen flags are cleared before the
     redundant ones are dropped *)
  let n = Veci.size learnt_out and kept = ref 1 in
  for i = 1 to n - 1 do
    let q = Veci.get learnt_out i in
    if not (redundant t q) then begin
      Veci.set learnt_out i (Veci.get learnt_out !kept);
      Veci.set learnt_out !kept q;
      incr kept
    end
    else if Option.is_some t.log then Bytes.set seen (q lsr 1) dropped_mark
  done;
  (match t.log with
  | Some lg ->
      for i = !kept to n - 1 do
        let v = Veci.get learnt_out i lsr 1 in
        if Bytes.get seen v = dropped_mark then cite_dropped t lg v
      done;
      finish_hints t lg
  | None -> ());
  for i = 1 to n - 1 do
    Bytes.set seen (Veci.get learnt_out i lsr 1) '\000'
  done;
  Veci.shrink learnt_out !kept;
  (* the backtrack level of the minimised clause *)
  let btlevel = ref 0 in
  for i = 1 to Veci.size learnt_out - 1 do
    let lv = t.level.(Veci.get learnt_out i lsr 1) in
    if lv > !btlevel then btlevel := lv
  done;
  !btlevel

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
           let c = t.reason.(v) in
           for j = c + 2 to c + hdr_len t.arena.(c) do
             let u = t.arena.(j) lsr 1 in
             if t.level.(u) > 0 then Bytes.set seen u '\001'
           done
         end);
        Bytes.set seen v '\000'
      end
    done;
    Bytes.set seen (a lsr 1) '\000'
  end;
  !out

(* Record [t.learnt_buf], just analysed; the search has backjumped to
   its backtrack level. *)
let record_learnt t =
  let learnt = t.learnt_buf in
  let n = Veci.size learnt in
  let id = match t.log with Some lg -> log_hinted lg (Veci.data learnt) n | None -> 0 in
  if n = 1 then begin
    enqueue t (Veci.get learnt 0) (-1);
    match t.log with Some lg -> set_unit_id lg (Veci.get learnt 0 lsr 1) id | None -> ()
  end
  else begin
    let c = store t ~learnt:true ~id (Veci.data learnt) n in
    let a = t.arena in
    (* position 1 must hold a literal from the backtrack level so the
       watch invariant holds immediately after the jump *)
    let best = ref (c + 2) in
    for i = c + 3 to c + n do
      if t.level.(a.(i) lsr 1) > t.level.(a.(!best) lsr 1) then best := i
    done;
    let tmp = a.(c + 2) in
    a.(c + 2) <- a.(!best);
    a.(!best) <- tmp;
    t.n_learnt <- t.n_learnt + 1;
    (* every clause before it is watched: conflicts come from
       [propagate], which watches the pending ones first *)
    attach t c;
    t.unwatched <- t.arena_top;
    enqueue t a.(c + 1) c
  end

(* ---------------- learnt DB reduction ---------------- *)

(* Move the live clauses down over the dead words, in order, and rewrite
   every watch entry and trail reason to the new offsets.  Learnt
   activities are renumbered in the same order. *)
let compact t =
  let a = t.arena in
  (* old and new offsets of the live clauses, ascending *)
  let olds = Veci.create () and news = Veci.create () in
  let o = ref 0 and top = ref 0 in
  while !o < t.arena_top do
    let h = a.(!o) in
    if h land deleted_bit = 0 then begin
      Veci.push olds !o;
      Veci.push news !top;
      top := !top + hdr_words h
    end;
    o := !o + hdr_words h
  done;
  let moved c =
    let lo = ref 0 and hi = ref (Veci.size olds - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Veci.get olds mid <= c then lo := mid else hi := mid - 1
    done;
    assert (Veci.get olds !lo = c);
    Veci.get news !lo
  in
  let w = t.watches in
  for l = 0 to (2 * t.nvars) - 1 do
    let s = t.wstart.(l) in
    for i = 0 to (t.wsize.(l) / 2) - 1 do
      let e = w.(s + (2 * i)) in
      w.(s + (2 * i)) <- (if e < 0 then lnot (moved (lnot e)) else moved e)
    done
  done;
  for i = 0 to Veci.size t.trail - 1 do
    let v = Veci.get t.trail i lsr 1 in
    if t.reason.(v) >= 0 then t.reason.(v) <- moved t.reason.(v)
  done;
  let n_act = ref 0 in
  for k = 0 to Veci.size olds - 1 do
    let o = Veci.get olds k and c = Veci.get news k in
    let h = a.(o) in
    Array.blit a o a c (hdr_words h);
    if h land learnt_bit <> 0 then begin
      let ai = c + 1 + hdr_len h in
      t.act.(!n_act) <- t.act.(a.(ai));
      a.(ai) <- !n_act;
      incr n_act
    end
  done;
  t.arena_top <- !top;
  t.unwatched <- !top;
  t.dead_words <- 0;
  t.n_act <- !n_act

let reduce_db t =
  (* Collect learnt, non-reason clauses, latest first (the sort is not
     stable, so this order decides which of equally active clauses
     go); delete the low-activity half. *)
  let a = t.arena in
  let cand = Veci.create () in
  let c = ref 0 in
  while !c < t.arena_top do
    let h = a.(!c) in
    if h land (learnt_bit lor deleted_bit) = learnt_bit && hdr_len h > 2 then begin
      let v0 = a.(!c + 1) lsr 1 in
      if not (t.assigns.(v0) >= 0 && t.reason.(v0) = !c) then Veci.push cand !c
    end;
    c := !c + hdr_words h
  done;
  let n = Veci.size cand in
  let arr = Array.init n (fun i -> Veci.get cand (n - 1 - i)) in
  let act = t.act in
  Array.sort
    (fun c d -> Float.compare act.(a.(c + 1 + hdr_len a.(c))) act.(a.(d + 1 + hdr_len a.(d))))
    arr;
  for i = 0 to (n / 2) - 1 do
    let c = arr.(i) in
    detach t c;
    a.(c) <- a.(c) lor deleted_bit;
    (match t.log with Some lg -> Proof.log_delete lg.proof (clause_id lg t c) | None -> ());
    t.n_learnt <- t.n_learnt - 1;
    t.dead_words <- t.dead_words + hdr_words a.(c)
  done;
  if t.dead_words > t.arena_top / 5 then compact t

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
    let restart_no = ref 0 in
    let simp_pending = ref (t.inprocess <> None) in
    let conflicts_left = ref (100 * luby 1) in
    if t.max_learnts < float_of_int t.n_slots /. 3. then
      t.max_learnts <- float_of_int t.n_slots /. 3.;
    let result = ref None in
    (try
       while !result = None do
         let confl = propagate t in
         if confl >= 0 then begin
           t.conflicts <- t.conflicts + 1;
           decr conflicts_left;
           if decision_level t = 0 then begin
             log_root_conflict t confl;
             t.ok <- false;
             (* a root conflict refutes the clause set itself: no
                assumption is to blame, [failed] stays empty *)
             result := Some Unsat
           end
           else begin
             let btlevel = analyze t confl in
             cancel_until t btlevel;
             record_learnt t;
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
       clauses that implied them free for [reduce_db] to collect.  A
       logged fact's unit is derived first, while its reason holds. *)
    (match t.log with
    | Some lg ->
        for i = 0 to Veci.size t.trail - 1 do
          let v = Veci.get t.trail i lsr 1 in
          if t.reason.(v) >= 0 then ignore (root_unit t lg v)
        done
    | None -> ());
    for i = 0 to Veci.size t.trail - 1 do
      t.reason.(Veci.get t.trail i lsr 1) <- -1
    done;
    true
  end

let n_clause_slots t = t.n_slots

let clause_view t ci =
  let a = t.arena in
  let rec find c =
    if c >= t.arena_top then [||]
    else
      let h = a.(c) in
      if hdr_slot h < ci then find (c + hdr_words h)
      else if hdr_slot h = ci && h land deleted_bit = 0 then Array.sub a (c + 1) (hdr_len h)
      else [||]
  in
  find 0

let iter_binary t f =
  let a = t.arena in
  let c = ref 0 in
  while !c < t.arena_top do
    let h = a.(!c) in
    if h land deleted_bit = 0 && hdr_len h = 2 then f a.(!c + 1) a.(!c + 2);
    c := !c + hdr_words h
  done

let root_value t l = lit_val t l

(* The hints of a failed probe's unit, before backtracking: walk the
   probe's level back from the conflict, citing the reasons of the
   literals it rests on, oldest first, then the conflict. *)
let probe_hints t lg confl =
  let seen = t.seen in
  Veci.clear lg.hints;
  let mark c from =
    for j = c + from to c + hdr_len t.arena.(c) do
      let v = t.arena.(j) lsr 1 in
      if t.level.(v) > 0 then Bytes.set seen v '\001' else cite_root t lg v
    done
  in
  mark confl 1;
  Veci.push lg.chain (clause_id lg t confl);
  for i = Veci.size t.trail - 1 downto Veci.get t.trail_lim 0 do
    let v = Veci.get t.trail i lsr 1 in
    if Bytes.get seen v = '\001' then begin
      Bytes.set seen v '\000';
      let r = t.reason.(v) in
      if r >= 0 then begin
        Veci.push lg.chain (clause_id lg t r);
        mark r 2
      end
    end
  done;
  finish_hints t lg

let probe_lit t l =
  if (not t.ok) || decision_level t > 0 || lit_val t l <> -1 then false
  else begin
    Veci.push t.trail_lim (Veci.size t.trail);
    enqueue t l (-1);
    let confl = propagate t in
    if confl >= 0 then (match t.log with Some lg -> probe_hints t lg confl | None -> ());
    cancel_until t 0;
    if confl >= 0 then begin
      (* the probe failed: its negation is a root fact *)
      let nl = Lit.negate l in
      let id = match t.log with Some lg -> log_hinted lg [| nl |] 1 | None -> 0 in
      enqueue t nl (-1);
      (match t.log with Some lg -> set_unit_id lg (nl lsr 1) id | None -> ());
      let confl = propagate t in
      if confl >= 0 then begin
        log_root_conflict t confl;
        t.ok <- false
      end
    end;
    confl >= 0
  end

let note_probed_failed t = t.n_probed_failed <- t.n_probed_failed + 1
