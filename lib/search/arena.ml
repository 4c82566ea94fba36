(* GC-free state arena for the exact search.

   Every state the search keeps lives as a packed row of int64 words
   in one flat Bigarray (64 masks per word — mask [m] is bit [m mod 64]
   of word [m / 64] of its row), with the per-state scalars the
   subsumption filters scan (cardinality, BFS level, hash, packed
   filter signatures) in parallel int arrays: a struct-of-arrays
   layout, so the hot scans touch dense int arrays instead of chasing
   boxed [State.t]/fingerprint records. Dedup is an open-addressing
   hash table keyed by an xxhash64-style hash of the row words — no
   boxed keys, no per-state allocation on the probe path.

   A row is a [Maskset] row: the 64-per-word packing (vs [State]'s 62)
   is what makes comparator application word-parallel, so a child is
   staged by [Maskset.apply_cmp], the set-image butterfly — O(words)
   word operations per comparator instead of a per-mask loop.

   Subsumption filters run on packed SWAR signatures: the per-level
   counts and per-channel ones counts are packed into bitfields sized
   by [C(n, k)] with one guard bit per field, and so are the sorted
   out- and in-degrees of the row's pair-order profile, so "every count
   of A <= the matching count of B" is one subtract-and-mask per
   signature word (the carry trick: [((b | guards) - a) & guards =
   guards] iff no field borrows). The profile itself (for each channel,
   the channels it can still be above) and its transpose are packed n
   bits per channel and prune the permutation search. *)

type row = Maskset.row

(* field k of a packed signature word: value at [shift], guard bit at
   [shift + width] *)
type layout = {
  sig_words : int;
  field_word : int array; (* k -> signature word *)
  field_shift : int array; (* k -> bit offset *)
  guards : int array; (* per signature word: OR of guard bits *)
}

(* Per-domain scratch: everything [subsumes] and the signature packing
   write besides [t.sigs]. A domain holding its own scratch can run
   both against the committed rows while other domains do the same. *)
type scratch = {
  (* packed-count accumulators: index = popcount of the byte
     position, 4 x 8-bit fields = counts by low-3-bit popcount *)
  accl : int array;
  accc : int array array;
  lvl : int array;
  chan : int array array;
  prof : int array; (* the row's pair-order profile, one set per channel *)
  inv : int array; (* the profile transposed *)
  hist : int array;
  cand : int array;
  order : int array;
  opc : int array;
  pi : int array;
  (* the permutation search: A's and B's profiles, B's transposed, and
     per depth the images still open to every later channel *)
  pa : int array;
  pb : int array;
  qb : int array;
  dom : int array;
  perm : row; (* wpr words: row A permuted by [pi] in the leaf test *)
  mutable backtracks : int; (* [subsumes_with] calls that searched *)
  mutable leaves : int; (* full permutations they tested *)
}

type t = {
  n : int;
  wpr : int; (* int64 words per row *)
  mutable cap : int; (* allocated rows (one extra staging row) *)
  mutable len : int; (* committed states *)
  mutable signed : int; (* rows [0, signed) carry their signatures *)
  mutable words : row; (* (cap + 1) * wpr; row [len] is the staging slot *)
  mutable card : int array;
  mutable level : int array;
  mutable hash : int array; (* 62-bit nonnegative row hash *)
  mutable sigs : int array; (* cap * sig_stride when with_sigs *)
  with_sigs : bool;
  (* a row's signature block: the key (level signature, then the
     sorted out- and in-degree words), the ones signature of every
     channel, then the profile and its transpose, each [prof_words]
     words of [prof_cpw] channels at n bits per channel *)
  sig_stride : int;
  lay : layout; (* level and ones signatures *)
  deg_lay : layout; (* degree words *)
  key_words : int;
  key_guards : int array;
  prof_off : int;
  prof_cpw : int;
  prof_words : int;
  mutable table : int array; (* open addressing: 0 = empty, else idx + 1 *)
  mutable mask : int; (* Array.length table - 1 *)
  (* precomputed per n *)
  sorted_row : int64 array;
  byte_pc : int array; (* popcount of each global byte index *)
  byte_hc : int array array; (* per byte position: its high channels 3+d *)
  own : scratch; (* the arena's domain: [commit] and [subsumes] *)
  (* local stats, flushed to Metrics by [record_metrics] *)
  mutable st_probes : int;
  mutable st_collisions : int;
  mutable st_resizes : int;
}

let c_states = Metrics.counter "arena.states"
let c_dups = Metrics.counter "arena.dups"
let c_probes = Metrics.counter "arena.probes"
let c_collisions = Metrics.counter "arena.collisions"
let c_resizes = Metrics.counter "arena.resizes"
let c_bytes = Metrics.counter "arena.bytes"

(* Byte tables for the packed signature counts. A mask [m] splits as
   byte position [P = m lsr 3] and in-byte bit [i = m land 7], with
   [popcount m = popcount P + popcount i]. For a row byte of value [v]
   at position [P], [byte_t1.(v)] holds, in four 8-bit fields, how many
   set bits [i] of [v] have [popcount i = 0, 1, 2, 3] — so one integer
   add per byte accumulates four level counts at once. [byte_t2.(c)]
   is the same restricted to bits [i] with bit [c] set (the in-byte
   channels 0-2); channels >= 3 are decided by [P] alone and reuse
   [byte_t1]. *)
let byte_t1 =
  Array.init 256 (fun v ->
      let acc = ref 0 in
      for i = 0 to 7 do
        if (v lsr i) land 1 = 1 then
          acc := !acc + (1 lsl (8 * Bitops.popcount i))
      done;
      !acc)

let byte_t2 =
  Array.init 3 (fun c ->
      Array.init 256 (fun v ->
          let acc = ref 0 in
          for i = 0 to 7 do
            if (v lsr i) land 1 = 1 && (i lsr c) land 1 = 1 then
              acc := !acc + (1 lsl (8 * Bitops.popcount i))
          done;
          !acc))

(* --- construction --- *)

let binomial n k =
  let k = min k (n - k) in
  let r = ref 1 in
  for i = 0 to k - 1 do
    r := !r * (n - i) / (i + 1)
  done;
  !r

let width_of_value v =
  let w = ref 1 in
  while v lsr !w <> 0 do
    incr w
  done;
  !w

(* pack fields [k] holding values up to [maxes.(k)] into as few
   <= 62-bit words as the guard bits allow *)
let make_layout maxes =
  let nf = Array.length maxes in
  let field_word = Array.make nf 0 in
  let field_shift = Array.make nf 0 in
  let guards = ref [] in
  let word = ref 0 and shift = ref 0 and guard = ref 0 in
  for k = 0 to nf - 1 do
    let w = width_of_value maxes.(k) in
    if !shift + w + 1 > 62 then begin
      guards := !guard :: !guards;
      incr word;
      shift := 0;
      guard := 0
    end;
    field_word.(k) <- !word;
    field_shift.(k) <- !shift;
    guard := !guard lor (1 lsl (!shift + w));
    shift := !shift + w + 1
  done;
  guards := !guard :: !guards;
  { sig_words = !word + 1;
    field_word;
    field_shift;
    guards = Array.of_list (List.rev !guards) }

let check_n n =
  if n < 2 || n > 16 then
    invalid_arg "Arena.create: n must be in [2, 16] (rows are 2^n bits)"

let make_scratch ~n ~wpr =
  { accl = Array.make (max 1 (n - 2)) 0;
    accc = Array.make_matrix n (max 1 (n - 2)) 0;
    lvl = Array.make (n + 1) 0;
    chan = Array.make_matrix n (n + 1) 0;
    prof = Array.make n 0;
    inv = Array.make n 0;
    hist = Array.make n 0;
    cand = Array.make n 0;
    order = Array.init n Fun.id;
    opc = Array.make n 0;
    pi = Array.make n 0;
    pa = Array.make n 0;
    pb = Array.make n 0;
    qb = Array.make n 0;
    dom = Array.make (n * n) 0;
    perm = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout wpr;
    backtracks = 0;
    leaves = 0 }

let scratch t = make_scratch ~n:t.n ~wpr:t.wpr

let create ?(with_sigs = true) ~n () =
  check_n n;
  if with_sigs && n > 10 then
    invalid_arg "Arena.create: signatures need n <= 10";
  let wpr = Maskset.words ~n in
  let cap = 1024 in
  let lay = make_layout (Array.init (n + 1) (binomial n)) in
  let deg_lay = make_layout (Array.make n (n - 1)) in
  let key_words = lay.sig_words + (2 * deg_lay.sig_words) in
  let prof_off = key_words + (n * lay.sig_words) in
  let prof_cpw = 62 / n in
  let prof_words = (n + prof_cpw - 1) / prof_cpw in
  let sig_stride = prof_off + (2 * prof_words) in
  let sorted_row =
    let r = Array.make wpr 0L in
    for k = 0 to n do
      let m = ((1 lsl k) - 1) lsl (n - k) in
      r.(m / 64) <- Int64.logor r.(m / 64) (Int64.shift_left 1L (m land 63))
    done;
    r
  in
  { n;
    wpr;
    cap;
    len = 0;
    signed = 0;
    words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout ((cap + 1) * wpr);
    card = Array.make cap 0;
    level = Array.make cap 0;
    hash = Array.make cap 0;
    sigs = (if with_sigs then Array.make (cap * sig_stride) 0 else [||]);
    with_sigs;
    sig_stride;
    lay;
    deg_lay;
    key_words;
    key_guards = Array.concat [ lay.guards; deg_lay.guards; deg_lay.guards ];
    prof_off;
    prof_cpw;
    prof_words;
    table = Array.make 4096 0;
    mask = 4095;
    sorted_row;
    byte_pc = Array.init (wpr * 8) Bitops.popcount;
    byte_hc =
      Array.init (wpr * 8) (fun p ->
          let l = ref [] in
          for d = 12 downto 0 do
            if (p lsr d) land 1 = 1 then l := (3 + d) :: !l
          done;
          Array.of_list !l);
    own = make_scratch ~n ~wpr;
    st_probes = 0;
    st_collisions = 0;
    st_resizes = 0 }

let n t = t.n
let length t = t.len
let card t idx = t.card.(idx)
let level t idx = t.level.(idx)

(* every per-state array, the dedup table and the per-byte-position
   tables, at 8 bytes per int or int64; the O(n^2)-word constants and
   the scratches are left out *)
let bytes t =
  let ints a = Array.length a in
  8
  * (Bigarray.Array1.dim t.words + ints t.card + ints t.level + ints t.hash
    + ints t.sigs + ints t.table + ints t.byte_pc
    + Array.fold_left (fun acc a -> acc + ints a) 0 t.byte_hc)

let record_metrics t =
  Metrics.add c_probes t.st_probes;
  Metrics.add c_collisions t.st_collisions;
  Metrics.add c_resizes t.st_resizes;
  Metrics.add c_bytes (bytes t);
  t.st_probes <- 0;
  t.st_collisions <- 0;
  t.st_resizes <- 0

let grow t =
  let cap' = t.cap * 2 in
  let words' =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout ((cap' + 1) * t.wpr)
  in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.words 0 ((t.cap + 1) * t.wpr))
    (Bigarray.Array1.sub words' 0 ((t.cap + 1) * t.wpr));
  t.words <- words';
  let grow_arr a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.card <- grow_arr t.card 0;
  t.level <- grow_arr t.level 0;
  t.hash <- grow_arr t.hash 0;
  if t.with_sigs then begin
    let s' = Array.make (cap' * t.sig_stride) 0 in
    Array.blit t.sigs 0 s' 0 (t.cap * t.sig_stride);
    t.sigs <- s'
  end;
  t.cap <- cap'

(* --- staging row (index [len]) --- *)

let stage_off t = t.len * t.wpr

let stage_state t st =
  if State.n st <> t.n then invalid_arg "Arena.stage_state: width mismatch";
  if t.len >= t.cap then grow t;
  let base = stage_off t in
  for w = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.words (base + w) 0L
  done;
  State.iter_masks
    (fun m ->
      let w = base + (m lsr 6) in
      Bigarray.Array1.unsafe_set t.words w
        (Int64.logor
           (Bigarray.Array1.unsafe_get t.words w)
           (Int64.shift_left 1L (m land 63))))
    st

(* Swap index bits [i < j] of the 2^n positions of the row at word
   offset [base] of [r]: the same butterfly structure as
   [Maskset.apply_cmp], but a swap instead of an OR-move. Positions
   with bits (i, j) = (1, 0) exchange with their (0, 1) partner at
   distance [2^j - 2^i]; (0, 0) and (1, 1) are fixed. *)
let transpose_row t (r : row) base i j =
  if j < 6 then begin
    (* delta-swap within each word; [Maskset.intra.(i).(j)] selects the
       lower position of every swapped pair *)
    let pat = Maskset.intra.(i).(j) in
    let delta = (1 lsl j) - (1 lsl i) in
    for w = 0 to t.wpr - 1 do
      let x = Bigarray.Array1.unsafe_get r (base + w) in
      let d =
        Int64.logand (Int64.logxor x (Int64.shift_right_logical x delta)) pat
      in
      Bigarray.Array1.unsafe_set r (base + w)
        (Int64.logxor (Int64.logxor x d) (Int64.shift_left d delta))
    done
  end
  else if i < 6 then begin
    (* word pair (w, w + 2^(j-6)): bit-i=1 positions of the low word
       exchange with bit-i=0 positions of the high word, 2^i apart *)
    let bi = Maskset.bitset.(i) and sh = 1 lsl i in
    let nbi = Int64.lognot bi in
    let dj = 1 lsl (j - 6) in
    for w = 0 to t.wpr - 1 do
      if (w lsr (j - 6)) land 1 = 0 then begin
        let a = Bigarray.Array1.unsafe_get r (base + w) in
        let b = Bigarray.Array1.unsafe_get r (base + w + dj) in
        Bigarray.Array1.unsafe_set r (base + w)
          (Int64.logor (Int64.logand a nbi)
             (Int64.shift_left (Int64.logand b nbi) sh));
        Bigarray.Array1.unsafe_set r (base + w + dj)
          (Int64.logor (Int64.logand b bi)
             (Int64.shift_right_logical (Int64.logand a bi) sh))
      end
    done
  end
  else begin
    (* whole-word swap w <-> w - 2^(i-6) + 2^(j-6) *)
    let di = 1 lsl (i - 6) and dj = 1 lsl (j - 6) in
    for w = 0 to t.wpr - 1 do
      if (w lsr (i - 6)) land 1 = 1 && (w lsr (j - 6)) land 1 = 0 then begin
        let w' = base + w - di + dj in
        let a = Bigarray.Array1.unsafe_get r (base + w) in
        Bigarray.Array1.unsafe_set r (base + w) (Bigarray.Array1.unsafe_get r w');
        Bigarray.Array1.unsafe_set r w' a
      end
    done
  end

(* Permute the positions of the row at word offset [base] of [r] by
   the channel permutation [pi] (bit [pi.(c)] of an image index = bit
   [c] of the source index), as a product of index-bit transpositions:
   each cycle (c1 c2 ... cl) of [pi] is T(c1,c2) then T(c1,c3) ...
   T(c1,cl) applied to the row in that order. Word-parallel — about
   (n - 1) * wpr word ops for a worst-case permutation, versus a
   per-bit loop over every mask of the row. *)
let permute_bits t (r : row) base pi =
  let visited = ref 0 in
  for c = 0 to t.n - 1 do
    if (!visited lsr c) land 1 = 0 then begin
      visited := !visited lor (1 lsl c);
      let d = ref pi.(c) in
      while !d <> c do
        visited := !visited lor (1 lsl !d);
        transpose_row t r base (min c !d) (max c !d);
        d := pi.(!d)
      done
    end
  done

let stage_child t ?perm ~parent pairs =
  if t.len >= t.cap then grow t;
  let src = parent * t.wpr and dst = stage_off t in
  for w = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.words (dst + w)
      (Bigarray.Array1.unsafe_get t.words (src + w))
  done;
  (match perm with Some pi -> permute_bits t t.words dst pi | None -> ());
  List.iter (fun (i, j) -> Maskset.apply_cmp t.words ~wpr:t.wpr dst i j) pairs

let row_subset t base_a base_b =
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < t.wpr do
    let a = Bigarray.Array1.unsafe_get t.words (base_a + !w) in
    let b = Bigarray.Array1.unsafe_get t.words (base_b + !w) in
    if Int64.logand a (Int64.lognot b) <> 0L then ok := false;
    incr w
  done;
  !ok

let staged_is_sorted t =
  let base = stage_off t in
  let ok = ref true in
  for w = 0 to t.wpr - 1 do
    if
      Int64.logand
        (Bigarray.Array1.unsafe_get t.words (base + w))
        (Int64.lognot t.sorted_row.(w))
      <> 0L
    then ok := false
  done;
  !ok

let row_card t base = Maskset.card t.words ~wpr:t.wpr base

(* --- hashing and open addressing --- *)

(* xxhash64-flavoured word mix: multiply-rotate accumulation over the
   row words, SplitMix64-style avalanche finish. Folded to 62 bits so
   the table index math stays on nonnegative ints. *)
let row_hash t base =
  let h = ref 0x9E3779B97F4A7C15L in
  for w = 0 to t.wpr - 1 do
    let x = Bigarray.Array1.unsafe_get t.words (base + w) in
    let acc = Int64.add !h (Int64.mul x 0xC2B2AE3D27D4EB4FL) in
    let acc =
      Int64.logor (Int64.shift_left acc 31) (Int64.shift_right_logical acc 33)
    in
    h := Int64.mul acc 0x9E3779B185EBCA87L
  done;
  let x = !h in
  let x = Int64.logxor x (Int64.shift_right_logical x 30) in
  let x = Int64.mul x 0xBF58476D1CE4E5B9L in
  let x = Int64.logxor x (Int64.shift_right_logical x 27) in
  let x = Int64.mul x 0x94D049BB133111EBL in
  let x = Int64.logxor x (Int64.shift_right_logical x 31) in
  Int64.to_int x land 0x3FFF_FFFF_FFFF_FFFF

let rows_equal t base_a base_b =
  let eq = ref true in
  let w = ref 0 in
  while !eq && !w < t.wpr do
    if
      Bigarray.Array1.unsafe_get t.words (base_a + !w)
      <> Bigarray.Array1.unsafe_get t.words (base_b + !w)
    then eq := false;
    incr w
  done;
  !eq

let rehash t =
  let size' = (t.mask + 1) * 2 in
  let table' = Array.make size' 0 in
  let mask' = size' - 1 in
  for idx = 0 to t.len - 1 do
    let s = ref (t.hash.(idx) land mask') in
    while table'.(!s) <> 0 do
      s := (!s + 1) land mask'
    done;
    table'.(!s) <- idx + 1
  done;
  t.table <- table';
  t.mask <- mask';
  t.st_resizes <- t.st_resizes + 1

(* --- signatures --- *)

let sig_base t idx = idx * t.sig_stride

(* pack [vals] (field k = vals.(k)) at [sigs.(off ..)]; runs n + 1
   times per committed state, so the single-word case builds the word
   in a register and stores once *)
let pack_fields lay vals sigs off =
  let nf = Array.length lay.field_shift in
  if lay.sig_words = 1 then begin
    let shift = lay.field_shift in
    let acc = ref 0 in
    for k = 0 to nf - 1 do
      acc := !acc lor (Array.unsafe_get vals k lsl Array.unsafe_get shift k)
    done;
    Array.unsafe_set sigs off !acc
  end
  else begin
    for w = 0 to lay.sig_words - 1 do
      sigs.(off + w) <- 0
    done;
    for k = 0 to nf - 1 do
      let w = lay.field_word.(k) and s = lay.field_shift.(k) in
      sigs.(off + w) <- sigs.(off + w) lor (vals.(k) lsl s)
    done
  end

(* A signed row has n <= 10, so every count fits 8 bits: one
   [byte_t1] add per nonzero row byte accumulates four level counts at
   once, keyed by the byte position's popcount; in-byte channels use
   [byte_t2], higher channels gate [byte_t1] on the position's bits *)
let compute_counts t sc rbase =
  let nn = t.n in
  let accl = sc.accl and accc = sc.accc in
  let asz = Array.length accl in
  Array.fill accl 0 asz 0;
  for c = 0 to nn - 1 do
    Array.fill accc.(c) 0 asz 0
  done;
  let nlow = min 3 nn in
  for w = 0 to t.wpr - 1 do
    let x = Bigarray.Array1.unsafe_get t.words (rbase + w) in
    if x <> 0L then
      for b = 0 to 7 do
        let v = Int64.to_int (Int64.shift_right_logical x (8 * b)) land 0xFF in
        if v <> 0 then begin
          let p = (w lsl 3) + b in
          let pc = Array.unsafe_get t.byte_pc p in
          let tv = Array.unsafe_get byte_t1 v in
          Array.unsafe_set accl pc (Array.unsafe_get accl pc + tv);
          for c = 0 to nlow - 1 do
            let a = Array.unsafe_get accc c in
            Array.unsafe_set a pc
              (Array.unsafe_get a pc
              + Array.unsafe_get (Array.unsafe_get byte_t2 c) v)
          done;
          let hc = Array.unsafe_get t.byte_hc p in
          for k = 0 to Array.length hc - 1 do
            let a = Array.unsafe_get accc (Array.unsafe_get hc k) in
            Array.unsafe_set a pc (Array.unsafe_get a pc + tv)
          done
        end
      done
  done;
  let lvl = sc.lvl and chan = sc.chan in
  Array.fill lvl 0 (nn + 1) 0;
  for pc = 0 to asz - 1 do
    let a = Array.unsafe_get accl pc in
    if a <> 0 then
      for j = 0 to min 3 (nn - pc) do
        let k = pc + j in
        Array.unsafe_set lvl k
          (Array.unsafe_get lvl k + ((a lsr (8 * j)) land 0xFF))
      done
  done;
  for c = 0 to nn - 1 do
    let row = chan.(c) and ac = accc.(c) in
    Array.fill row 0 (nn + 1) 0;
    for pc = 0 to asz - 1 do
      let a = Array.unsafe_get ac pc in
      if a <> 0 then
        for j = 0 to min 3 (nn - pc) do
          let k = pc + j in
          Array.unsafe_set row k
            (Array.unsafe_get row k + ((a lsr (8 * j)) land 0xFF))
        done
    done
  done

(* [half_pat.(c)], c < 5: the positions of a 32-bit half-word whose
   index has bit c set; index bit 5 selects the half *)
let half_pat = [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

(* 1 if [x], below 2^32, is nonzero, else 0 — without a branch *)
let[@inline] nz32 x = (x + 0xFFFF_FFFF) lsr 32

(* The pair-order profile of the row at [rbase]: [prof.(c)] gets every
   channel d such that some reachable mask has bit c set and bit d
   clear — the pairs whose comparator would still exchange, as
   [State.unordered_pairs] computes them — and [inv.(d)] the same
   relation transposed. One pass over the row words, on native-int
   half-words and without data-dependent branches (this runs for every
   signed row). Index bits 0-5 lie inside a word, so the pairs of two
   low channels come from the OR of all words. A word's index [w]
   fixes the high channels (6 + k is set in all of the word's masks iff
   bit k of [w] is), so the pass only ORs, into each high channel, the
   channels the word's masks clear (where it is set) or set (where it
   is clear); the pairs of a low and a high channel are then read off
   those sets. *)
let compute_profile t sc rbase =
  let nn = t.n in
  let prof = sc.prof and inv = sc.inv in
  Array.fill prof 0 nn 0;
  Array.fill inv 0 nn 0;
  let wmask = if nn > 6 then (1 lsl (nn - 6)) - 1 else 0 in
  let ulo = ref 0 and uhi = ref 0 in
  for w = 0 to t.wpr - 1 do
    let x = Bigarray.Array1.unsafe_get t.words (rbase + w) in
    if x <> 0L then begin
      let lo = Int64.to_int x land 0xFFFF_FFFF
      and hi = Int64.to_int (Int64.shift_right_logical x 32) in
      ulo := !ulo lor lo;
      uhi := !uhi lor hi;
      if nn > 6 then begin
        (* the channels some mask of this word sets, and clears *)
        let u = lo lor hi in
        let ones = ref ((nz32 hi lsl 5) lor (w lsl 6))
        and zeros = ref ((nz32 lo lsl 5) lor ((lnot w land wmask) lsl 6)) in
        for c = 0 to 4 do
          let p = Array.unsafe_get half_pat c in
          ones := !ones lor (nz32 (u land p) lsl c);
          zeros := !zeros lor (nz32 (u land (p lxor 0xFFFF_FFFF)) lsl c)
        done;
        let ones = !ones and zeros = !zeros in
        for c = 6 to nn - 1 do
          let b = (w lsr (c - 6)) land 1 in
          Array.unsafe_set prof c (Array.unsafe_get prof c lor (zeros land -b));
          Array.unsafe_set inv c (Array.unsafe_get inv c lor (ones land (b - 1)))
        done
      end
    end
  done;
  (* for a low channel c and a high one h, (c, h) is unordered iff
     some word with h clear has a mask setting c, and (h, c) iff some
     word with h set has a mask clearing c *)
  for h = 6 to nn - 1 do
    for c = 0 to 5 do
      prof.(c) <- prof.(c) lor (((inv.(h) lsr c) land 1) lsl h);
      inv.(c) <- inv.(c) lor (((prof.(h) lsr c) land 1) lsl h)
    done
  done;
  let ulo = !ulo and uhi = !uhi in
  let u = ulo lor uhi in
  for c = 0 to min 6 nn - 1 do
    (* the positions with bit c set; channel 5 selects the half *)
    let s = if c = 5 then uhi else u land half_pat.(c) in
    for d = 0 to min 6 nn - 1 do
      if c <> d then begin
        let hit =
          if d = 5 then nz32 (ulo land half_pat.(c))
          else nz32 (s land lnot half_pat.(d))
        in
        prof.(c) <- prof.(c) lor (hit lsl d);
        inv.(d) <- inv.(d) lor (hit lsl c)
      end
    done
  done

(* Pack the ascending sort of the degrees [popcount sets.(c)], c < n,
   as the degree fields at [sigs.(off ..)]: a counting sort whose
   output goes straight into the fields. *)
let pack_degrees t hist sets off =
  let nn = t.n and lay = t.deg_lay in
  Array.fill hist 0 nn 0;
  for c = 0 to nn - 1 do
    let d = Bitops.popcount (Array.unsafe_get sets c) in
    Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
  done;
  for w = 0 to lay.sig_words - 1 do
    t.sigs.(off + w) <- 0
  done;
  (* the first hist.(0) fields hold 0; then hist.(1) fields hold 1 ... *)
  let k = ref hist.(0) in
  for v = 1 to nn - 1 do
    for _ = 1 to hist.(v) do
      let w = off + lay.field_word.(!k) in
      t.sigs.(w) <- t.sigs.(w) lor (v lsl lay.field_shift.(!k));
      incr k
    done
  done

let pack_profile t prof off =
  let nn = t.n and cpw = t.prof_cpw in
  for w = 0 to t.prof_words - 1 do
    let acc = ref 0 in
    for k = 0 to min cpw (nn - (w * cpw)) - 1 do
      acc := !acc lor (prof.((w * cpw) + k) lsl (k * nn))
    done;
    t.sigs.(off + w) <- !acc
  done

let unpack_profile t off dst =
  let nn = t.n and cpw = t.prof_cpw in
  let fm = (1 lsl nn) - 1 in
  for w = 0 to t.prof_words - 1 do
    let x = Array.unsafe_get t.sigs (off + w) in
    for k = 0 to min cpw (nn - (w * cpw)) - 1 do
      Array.unsafe_set dst ((w * cpw) + k) ((x lsr (k * nn)) land fm)
    done
  done

let compute_sigs t sc idx =
  let nn = t.n in
  let rbase = idx * t.wpr in
  compute_counts t sc rbase;
  compute_profile t sc rbase;
  let sigs = t.sigs and sw = t.lay.sig_words in
  let base = sig_base t idx in
  pack_fields t.lay sc.lvl sigs base;
  (* a channel's zeros signature is level - ones, field by field, so
     only the ones are stored *)
  for c = 0 to nn - 1 do
    pack_fields t.lay sc.chan.(c) sigs (base + t.key_words + (c * sw))
  done;
  pack_degrees t sc.hist sc.prof (base + sw);
  pack_degrees t sc.hist sc.inv (base + sw + t.deg_lay.sig_words);
  pack_profile t sc.prof (base + t.prof_off);
  pack_profile t sc.inv (base + t.prof_off + t.prof_words)

(* The pre-filter: every key word of the signature block at [sa]
   (level signature, sorted out- and in-degrees) fieldwise <= its
   counterpart at [sb]. The three-word key of n <= 9 is unrolled: this
   is the filter's hottest test, and classic-mode ocamlopt does not
   inline a loop. *)
let key_le t sa sb =
  let sigs = t.sigs and g = t.key_guards in
  if t.key_words = 3 then begin
    let gl = Array.unsafe_get g 0 and gd = Array.unsafe_get g 1 in
    ((Array.unsafe_get sigs sb lor gl) - Array.unsafe_get sigs sa) land gl = gl
    && ((Array.unsafe_get sigs (sb + 1) lor gd) - Array.unsafe_get sigs (sa + 1))
       land gd
       = gd
    && ((Array.unsafe_get sigs (sb + 2) lor gd) - Array.unsafe_get sigs (sa + 2))
       land gd
       = gd
  end
  else begin
    let ok = ref true and w = ref 0 in
    while !ok && !w < t.key_words do
      let gw = Array.unsafe_get g !w in
      if
        ((Array.unsafe_get sigs (sb + !w) lor gw) - Array.unsafe_get sigs (sa + !w))
        land gw
        <> gw
      then ok := false;
      incr w
    done;
    !ok
  end

(* channel signatures at [oa] (of the block at [la]) fieldwise <= those
   at [ob] (of the block at [lb]): ones directly, zeros as level - ones *)
let chan_le t la oa lb ob =
  let sigs = t.sigs and guards = t.lay.guards in
  let ok = ref true and w = ref 0 in
  while !ok && !w < t.lay.sig_words do
    let g = guards.(!w) in
    let a1 = sigs.(oa + !w) and b1 = sigs.(ob + !w) in
    if
      ((b1 lor g) - a1) land g <> g
      || (((sigs.(lb + !w) - b1) lor g) - (sigs.(la + !w) - a1)) land g <> g
    then ok := false;
    incr w
  done;
  !ok

(* --- dedup insert --- *)

let commit_unsigned t ~level =
  let base = stage_off t in
  let h = row_hash t base in
  let slot = ref (h land t.mask) in
  let found = ref (-1) in
  t.st_probes <- t.st_probes + 1;
  let continue = ref true in
  while !continue do
    let e = Array.unsafe_get t.table !slot in
    if e = 0 then continue := false
    else begin
      let idx = e - 1 in
      if t.hash.(idx) = h && rows_equal t (idx * t.wpr) base then begin
        found := idx;
        continue := false
      end
      else begin
        t.st_collisions <- t.st_collisions + 1;
        slot := (!slot + 1) land t.mask
      end
    end
  done;
  if !found >= 0 then begin
    Metrics.incr c_dups;
    `Dup !found
  end
  else begin
    let idx = t.len in
    t.table.(!slot) <- idx + 1;
    t.hash.(idx) <- h;
    t.card.(idx) <- row_card t base;
    t.level.(idx) <- level;
    t.len <- idx + 1;
    (* keep the load factor <= 1/2 *)
    if 2 * t.len > t.mask then rehash t;
    Metrics.incr c_states;
    `Fresh idx
  end

(* --- signing --- *)

(* Signing one row costs a few microseconds at n = 8..10 and a domain
   spawn tens of them, so the pass fans out only once every domain
   gets at least [sign_min_per_domain] rows; [sign_chunk]-row chunks
   keep the domains balanced. *)
let sign_min_per_domain = 256
let sign_chunk = 64

let sign_pending t scratches =
  if Array.length scratches = 0 then invalid_arg "Arena.sign_pending: no scratch";
  if t.with_sigs && t.signed < t.len then begin
    let lo = t.signed and hi = t.len in
    let domains =
      max 1 (min (Array.length scratches) ((hi - lo) / sign_min_per_domain))
    in
    ignore
      (Par.iter_chunks ~domains ~chunk:sign_chunk ~lo ~hi (fun ~worker ~lo ~hi ->
           let sc = scratches.(worker) in
           for idx = lo to hi - 1 do
             compute_sigs t sc idx
           done));
    t.signed <- hi
  end

let commit t ~level =
  let r = commit_unsigned t ~level in
  sign_pending t [| t.own |];
  r

(* Dropping rows: the kept rows slide down over the gaps in index
   order (a destination never passes its source, so nothing is read
   after it is overwritten), their signature blocks with them, and the
   dedup table is rebuilt over what is left. *)
let retain t ~prefix rows =
  let m = Array.length rows in
  if prefix < 0 || prefix > t.len then invalid_arg "Arena.retain: bad prefix";
  Array.iteri
    (fun k r ->
      if r < prefix + k || r >= t.len || (k > 0 && r <= rows.(k - 1)) then
        invalid_arg "Arena.retain: rows must ascend within [prefix, length)")
    rows;
  let signed = ref (min prefix t.signed) in
  Array.iteri
    (fun k src ->
      let dst = prefix + k in
      if src < t.signed then incr signed;
      if src <> dst then begin
        let wpr = t.wpr in
        for w = 0 to wpr - 1 do
          Bigarray.Array1.unsafe_set t.words ((dst * wpr) + w)
            (Bigarray.Array1.unsafe_get t.words ((src * wpr) + w))
        done;
        t.card.(dst) <- t.card.(src);
        t.level.(dst) <- t.level.(src);
        t.hash.(dst) <- t.hash.(src);
        if t.with_sigs then
          Array.blit t.sigs (sig_base t src) t.sigs (sig_base t dst) t.sig_stride
      end)
    rows;
  t.len <- prefix + m;
  t.signed <- !signed;
  Array.fill t.table 0 (Array.length t.table) 0;
  for idx = 0 to t.len - 1 do
    let s = ref (t.hash.(idx) land t.mask) in
    while t.table.(!s) <> 0 do
      s := (!s + 1) land t.mask
    done;
    t.table.(!s) <- idx + 1
  done

(* --- conversions --- *)

let state_of_base t base =
  let masks = ref [] in
  Maskset.iter t.words ~wpr:t.wpr base (fun m -> masks := m :: !masks);
  State.of_masks ~n:t.n (List.rev !masks)

let to_state t idx = state_of_base t (idx * t.wpr)
let staged_state t = state_of_base t (stage_off t)
let iter_masks t idx f = Maskset.iter t.words ~wpr:t.wpr (idx * t.wpr) f

(* --- subsumption ---

   Row A subsumes row B iff some wire permutation pi carries every mask
   of A into B. Such a permutation maps A's masks injectively into B
   preserving ones-counts, so the card / level / channel filters are
   necessary pointwise <= tests (packed), and the leaf check is the
   mask-image inclusion itself. The extra union check below only
   refutes pairs the backtracking would refute anyway (a channel of B
   missing from every candidate set cannot be covered).

   It also maps A's pair-order profile into B's: a mask of A with bit c
   set and bit d clear lands on a mask of B with bit pi(c) set and bit
   pi(d) clear. So channel c's out- and in-degree in the profile are at
   most pi(c)'s in B, and the sorted degree vectors compare fieldwise
   (the k-th smallest degree of A is at most B's); and once c -> c' is
   assigned, a later channel d with (c, d) unordered in A may only go
   where (c', pi d) is unordered in B, and likewise for (d, c). Both
   prune only permutations the leaf test would refute, and the search
   still takes channels in the order of the unpruned candidate sets
   and images in ascending order, so the first witness it finds is the
   one the unpruned search finds. *)

exception No

(* Copy committed row [src] (word offset) into the scratch row and
   permute its positions by the channel permutation [pi]. *)
let permute_row t sc src pi =
  let r = sc.perm in
  for w = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set r w (Bigarray.Array1.unsafe_get t.words (src + w))
  done;
  permute_bits t r 0 pi

(* the scratch row is a subset of committed row [base_b] (word offset) *)
let perm_subset t sc base_b =
  let r = sc.perm in
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < t.wpr do
    let a = Bigarray.Array1.unsafe_get r !w in
    let b = Bigarray.Array1.unsafe_get t.words (base_b + !w) in
    if Int64.logand a (Int64.lognot b) <> 0L then ok := false;
    incr w
  done;
  !ok

(* [sc.cand.(c)]: the channels c' of B whose ones and zeros counts
   dominate channel c's of A at every level. Raises [No] when a channel
   of A has no image or a channel of B no preimage. *)
let candidates t sc sa sb =
  let nn = t.n and sw = t.lay.sig_words and sigs = t.sigs in
  let oa0 = sa + t.key_words and ob0 = sb + t.key_words in
  let cand = sc.cand in
  let union = ref 0 in
  if sw = 1 then begin
    (* n <= 9: one word per signature, inlined *)
    let g = t.lay.guards.(0) in
    let la = Array.unsafe_get sigs sa and lb = Array.unsafe_get sigs sb in
    for c = 0 to nn - 1 do
      let oa = Array.unsafe_get sigs (oa0 + c) in
      let za = la - oa in
      let m = ref 0 in
      for c' = 0 to nn - 1 do
        let ob = Array.unsafe_get sigs (ob0 + c') in
        if ((ob lor g) - oa) land g = g && (((lb - ob) lor g) - za) land g = g
        then m := !m lor (1 lsl c')
      done;
      if !m = 0 then raise No;
      cand.(c) <- !m;
      union := !union lor !m
    done
  end
  else
    for c = 0 to nn - 1 do
      let m = ref 0 in
      for c' = 0 to nn - 1 do
        if chan_le t sa (oa0 + (c * sw)) sb (ob0 + (c' * sw)) then
          m := !m lor (1 lsl c')
      done;
      if !m = 0 then raise No;
      cand.(c) <- !m;
      union := !union lor !m
    done;
  if !union <> (1 lsl nn) - 1 then raise No

(* Backtracking over the candidate sets: channels most constrained
   first, images in ascending order, every assignment narrowing the
   later channels' open images by the profiles (forward checking); a
   leaf permutes row A and tests inclusion in row B. *)
let permutation_search t sc a b sa sb =
  match candidates t sc sa sb with
  | exception No -> false
  | () ->
      let nn = t.n in
      let cand = sc.cand in
      (* most constrained channel first — insertion sort on the
         precomputed candidate popcounts ([Array.sort] with a closure
         is measurable at this call rate). The order steers which
         witness is found first, so it is taken from the unpruned
         candidate sets. *)
      let order = sc.order and opc = sc.opc in
      for c = 0 to nn - 1 do
        order.(c) <- c;
        opc.(c) <- Bitops.popcount (Array.unsafe_get cand c)
      done;
      for i = 1 to nn - 1 do
        let c = Array.unsafe_get order i in
        let k = Array.unsafe_get opc c in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get opc (Array.unsafe_get order !j) > k do
          Array.unsafe_set order (!j + 1) (Array.unsafe_get order !j);
          decr j
        done;
        Array.unsafe_set order (!j + 1) c
      done;
      sc.backtracks <- sc.backtracks + 1;
      (* [pa.(c)]: the channels d with (c, d) unordered in A (some
         mask has c = 1, d = 0); [pb] the same in B, and [qb.(c')] the
         channels e with (e, c') unordered in B *)
      let pa = sc.pa and pb = sc.pb and qb = sc.qb in
      unpack_profile t (sa + t.prof_off) pa;
      unpack_profile t (sb + t.prof_off) pb;
      unpack_profile t (sb + t.prof_off + t.prof_words) qb;
      (* [dom.(i * nn + j)]: the images open to channel [order.(j)]
         once the channels before position i are assigned; they
         exclude every image already taken *)
      let dom = sc.dom in
      for j = 0 to nn - 1 do
        dom.(j) <- cand.(order.(j))
      done;
      let pi = sc.pi in
      let ba = a * t.wpr and bb = b * t.wpr in
      let leaves = ref 0 in
      let rec assign i =
        if i = nn then begin
          (* image inclusion: every mask of A lands in B — permute
             the whole row A by pi into the scratch row and do one
             word-parallel subset scan *)
          incr leaves;
          permute_row t sc ba pi;
          perm_subset t sc bb
        end
        else begin
          let c = Array.unsafe_get order i in
          let row = i * nn in
          let next = row + nn in
          let out_c = Array.unsafe_get pa c in
          let avail = ref (Array.unsafe_get dom (row + i)) in
          let ok = ref false in
          while (not !ok) && !avail <> 0 do
            let bit = !avail land - !avail in
            let c' = Bitops.floor_log2 bit in
            pi.(c) <- c';
            let keep = lnot bit
            and fo = Array.unsafe_get pb c'
            and fi = Array.unsafe_get qb c' in
            (* a later channel d keeps the images still free that,
               where (c, d) is unordered in A, make (c', image)
               unordered in B, and where (d, c) is, (image, c') *)
            let alive = ref true and j = ref (i + 1) in
            while !alive && !j < nn do
              let d = Array.unsafe_get order !j in
              let m =
                Array.unsafe_get dom (row + !j)
                land keep
                land (fo lor (((out_c lsr d) land 1) - 1))
                land (fi lor (((Array.unsafe_get pa d lsr c) land 1) - 1))
              in
              if m = 0 then alive := false else Array.unsafe_set dom (next + !j) m;
              incr j
            done;
            if !alive && assign (i + 1) then ok := true
            else avail := !avail land keep
          done;
          !ok
        end
      in
      let found = assign 0 in
      sc.leaves <- sc.leaves + !leaves;
      found

let subsumes_with t sc a b =
  if a >= t.signed || b >= t.signed then
    invalid_arg "Arena.subsumes: row not signed";
  t.card.(a) <= t.card.(b)
  &&
  let sa = sig_base t a and sb = sig_base t b in
  key_le t sa sb
  && (row_subset t (a * t.wpr) (b * t.wpr) || permutation_search t sc a b sa sb)

let subsumes t a b = subsumes_with t t.own a b

(* [subsumes_with] leaves the witness in [pi] when the backtracking
   succeeds; the subset short-circuit leaves it stale *)
let subsumes_perm t a b =
  if not (subsumes t a b) then None
  else if row_subset t (a * t.wpr) (b * t.wpr) then Some (Array.init t.n Fun.id)
  else Some (Array.copy t.own.pi)

(* --- the pre-filter key and the search counters, for callers that
   keep their own index of candidate subsumers --- *)

let key_words t = t.key_words
let key_guards t = Array.copy t.key_guards

let blit_key t idx dst off =
  if idx >= t.signed then invalid_arg "Arena.blit_key: row not signed";
  Array.blit t.sigs (sig_base t idx) dst off t.key_words

let backtracks sc = sc.backtracks
let leaves sc = sc.leaves
