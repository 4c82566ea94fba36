(* One lane model: a block of 64 int64 rows, row [w] holding wire [w]'s
   value in each of 64 lanes (bit [j] = the test input in lane [j]). A
   comparator is (AND -> min row, OR -> max row), an exchange swaps two
   rows. OCaml's native compiler keeps [Int64] values unboxed across
   [Bigarray.Array1.unsafe_get]/[unsafe_set] chains, so the kernel runs
   at native word speed with no allocation per gate. Every call
   allocates its own block: calls on one domain can be interleaved by
   systhreads (serve's sessions reach [eval_masks] through the cache
   key), so a block is never shared. *)

module A = Bigarray.Array1

type block = (int64, Bigarray.int64_elt, Bigarray.c_layout) A.t

let lanes = 64

let block () : block = A.create Bigarray.int64 Bigarray.c_layout lanes

(* The kernel's unsafe row accesses need every wire below 64; test
   inputs and range bounds are OCaml ints, which caps wires at 61. *)
let check_wires fn (c : Compiled.t) =
  let n = c.Compiled.wires in
  if n >= 62 then
    invalid_arg (Printf.sprintf "Bitslice.%s: %d wires (2^n inputs)" fn n);
  n

(* Gates [lo, hi) of the instruction stream. Gate endpoints were
   checked against [wires] at compile time, so every row index is below
   64. *)
let run_range (c : Compiled.t) (rows : block) lo hi =
  let kinds = c.Compiled.kinds and ga = c.Compiled.ga and gb = c.Compiled.gb in
  for i = lo to hi - 1 do
    let a = Array.unsafe_get ga i and b = Array.unsafe_get gb i in
    let x = A.unsafe_get rows a and y = A.unsafe_get rows b in
    if Bytes.unsafe_get kinds i = '\000' then begin
      A.unsafe_set rows a (Int64.logand x y);
      A.unsafe_set rows b (Int64.logor x y)
    end
    else begin
      A.unsafe_set rows a y;
      A.unsafe_set rows b x
    end
  done

let run (c : Compiled.t) rows =
  run_range c rows 0 (Bytes.length c.Compiled.kinds)

(* Output register [r] reads row [outs.(r)]: the final routing map when
   the source network permutes its outputs, else the identity. *)
let outputs (c : Compiled.t) =
  match c.Compiled.take with
  | Some take -> take
  | None -> Array.init c.Compiled.wires Fun.id

(* Lanes whose output is out of order: ascending needs register [r] <=
   register [r + 1] in every lane. *)
let violations outs (rows : block) =
  let v = ref 0L in
  for r = 0 to Array.length outs - 2 do
    let x = A.unsafe_get rows (Array.unsafe_get outs r)
    and y = A.unsafe_get rows (Array.unsafe_get outs (r + 1)) in
    v := Int64.logor !v (Int64.logand x (Int64.lognot y))
  done;
  !v

let popcount x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* index of the lowest set bit of a nonzero word *)
let lowest_bit x = popcount (Int64.pred (Int64.logand x (Int64.neg x)))

(* --- range sweeps: consecutive test inputs ---------------------------

   Blocks start at multiples of 64, so lane [j] of the block at [base]
   is test input [base + j]. Its wire-[w] bit is bit [w] of [j] for
   [w < 6] — one fixed column per wire — and bit [w] of [base] above,
   the same in every lane. *)

let columns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let load_range (rows : block) n base =
  for w = 0 to n - 1 do
    A.unsafe_set rows w
      (if w < 6 then Array.unsafe_get columns w
       else if (base lsr w) land 1 = 1 then -1L
       else 0L)
  done

(* Lanes [j] of the block at [base] with [lo <= base + j < hi]. Lanes
   outside carry inputs just beyond the range (or, when [2^wires < 64],
   repeats of the inputs below [2^wires]); this mask discards them. *)
let lane_mask ~lo ~hi base =
  let below k =
    if k >= lanes then -1L else Int64.pred (Int64.shift_left 1L k)
  in
  Int64.logand
    (below (min lanes (hi - base)))
    (Int64.lognot (below (max 0 (lo - base))))

(* Unsorted lanes of the block at [base], restricted to [lo, hi). *)
let unsorted_lanes c outs rows ~lo ~hi base =
  load_range rows (Array.length outs) base;
  run c rows;
  Int64.logand (violations outs rows) (lane_mask ~lo ~hi base)

let check_range fn c ~lo ~hi =
  ignore (check_wires fn c : int);
  if lo < 0 || lo > hi then
    invalid_arg (Printf.sprintf "Bitslice.%s: bad range [%d, %d)" fn lo hi)

let find_unsorted_range ?stop c ~lo ~hi =
  check_range "find_unsorted_range" c ~lo ~hi;
  let outs = outputs c and rows = block () in
  let stopped () = match stop with None -> false | Some s -> Atomic.get s in
  let result = ref None in
  let base = ref (lo land lnot 63) in
  while Option.is_none !result && !base < hi && not (stopped ()) do
    let v = unsorted_lanes c outs rows ~lo ~hi !base in
    if v <> 0L then begin
      result := Some (!base + lowest_bit v);
      Option.iter (fun s -> Atomic.set s true) stop
    end;
    base := !base + lanes
  done;
  !result

let count_unsorted_range c ~lo ~hi =
  check_range "count_unsorted_range" c ~lo ~hi;
  let outs = outputs c and rows = block () in
  let count = ref 0 in
  let base = ref (lo land lnot 63) in
  while !base < hi do
    count := !count + popcount (unsorted_lanes c outs rows ~lo ~hi !base);
    base := !base + lanes
  done;
  !count

let count_sorted_range c ~lo ~hi = hi - lo - count_unsorted_range c ~lo ~hi

(* --- mask batches: arbitrary test inputs ---------------------------- *)

(* In-place 64x64 bit transpose by delta swaps (j = 32, 16, ..., 1):
   afterwards bit [j] of row [i] is the old bit [i] of row [j]. With
   mask [k] loaded into row [k], row [w] becomes wire [w]'s lane word
   (lane [k] = bit [w] of mask [k]); transposing output rows turns them
   back into masks. *)
let transpose (a : block) =
  let j = ref 32 and m = ref 0x00000000FFFFFFFFL in
  while !j <> 0 do
    let jv = !j and mv = !m in
    let k = ref 0 in
    while !k < lanes do
      let kv = !k in
      let x = A.unsafe_get a kv and y = A.unsafe_get a (kv + jv) in
      let t =
        Int64.logand (Int64.logxor (Int64.shift_right_logical x jv) y) mv
      in
      A.unsafe_set a (kv + jv) (Int64.logxor y t);
      A.unsafe_set a kv (Int64.logxor x (Int64.shift_left t jv));
      k := (kv + jv + 1) land lnot jv
    done;
    m := Int64.logxor mv (Int64.shift_left mv (jv lsr 1));
    j := jv lsr 1
  done

(* [lsr] is logical: a negative mask keeps high bits and fails too *)
let check_masks fn n masks =
  Array.iteri
    (fun j mask ->
      if mask lsr n <> 0 then
        invalid_arg
          (Printf.sprintf "Bitslice.%s: mask %d at lane %d out of [0, 2^%d)" fn
             mask j n))
    masks

(* Rows <- masks [off, off + cnt), zero-padded, in wire-row form. The
   padding lanes evaluate the all-zero input, which stays all-zero and
   sorted; rows at and above [wires] stay zero. *)
let load_masks (rows : block) masks ~off ~cnt =
  for k = 0 to cnt - 1 do
    A.unsafe_set rows k (Int64.of_int (Array.unsafe_get masks (off + k)))
  done;
  for k = cnt to lanes - 1 do
    A.unsafe_set rows k 0L
  done;
  transpose rows

let eval_masks c masks =
  let n = check_wires "eval_masks" c in
  check_masks "eval_masks" n masks;
  let outs = outputs c and rows = block () and routed = block () in
  let total = Array.length masks in
  let out = Array.make total 0 in
  let off = ref 0 in
  while !off < total do
    let cnt = min lanes (total - !off) in
    load_masks rows masks ~off:!off ~cnt;
    run c rows;
    for r = 0 to n - 1 do
      A.unsafe_set routed r (A.unsafe_get rows (Array.unsafe_get outs r))
    done;
    for r = n to lanes - 1 do
      A.unsafe_set routed r 0L
    done;
    transpose routed;
    for k = 0 to cnt - 1 do
      out.(!off + k) <- Int64.to_int (A.unsafe_get routed k)
    done;
    off := !off + cnt
  done;
  out

let count_sorted_masks c masks =
  let n = check_wires "count_sorted_masks" c in
  check_masks "count_sorted_masks" n masks;
  let outs = outputs c and rows = block () in
  let total = Array.length masks in
  let sorted = ref 0 and off = ref 0 in
  while !off < total do
    let cnt = min lanes (total - !off) in
    load_masks rows masks ~off:!off ~cnt;
    run c rows;
    sorted := !sorted + cnt - popcount (violations outs rows);
    off := !off + cnt
  done;
  !sorted

(* A 0-1 output is ascending by wire index iff its ones form one block
   ending at the top wire: adding its lowest set bit then carries the
   whole block out to bit [wires]. *)
let mask_sorted ~wires mask = mask = 0 || mask + (mask land -mask) = 1 lsl wires

(* --- full sweeps ----------------------------------------------------- *)

let find_unsorted ?(domains = 1) c =
  let n = check_wires "find_unsorted" c in
  let hi = 1 lsl n in
  if domains <= 1 then find_unsorted_range c ~lo:0 ~hi
  else begin
    let stop = Atomic.make false in
    let hits =
      Par.map_ranges ~domains ~lo:0 ~hi (fun ~lo ~hi ->
          find_unsorted_range ~stop c ~lo ~hi)
    in
    List.find_opt Option.is_some hits |> Option.join
  end

let count_unsorted ?(domains = 1) c =
  let n = check_wires "count_unsorted" c in
  let hi = 1 lsl n in
  if domains <= 1 then count_unsorted_range c ~lo:0 ~hi
  else
    Par.map_ranges ~domains ~lo:0 ~hi (fun ~lo ~hi ->
        count_unsorted_range c ~lo ~hi)
    |> List.fold_left ( + ) 0

let is_sorting_network ?domains c = find_unsorted ?domains c = None

(* --- whole-network facts for the static analyzer ---------------------

   Two more sweeps over all [2^wires] inputs in range blocks. Lanes past
   [2^wires] (when [wires < 6]) repeat inputs below it, so they may
   join any union over inputs. *)

type activity = { fires : bool array; least_unsorted : int option }

(* The least output mask among the lanes of [v] (nonzero): from the top
   register down, keep the lanes holding 0 there whenever any do; the
   lanes left all hold the minimum, so read it off the lowest. *)
let least_output outs (rows : block) v =
  let cand = ref v in
  for r = Array.length outs - 1 downto 0 do
    let out = A.unsafe_get rows (Array.unsafe_get outs r) in
    let zero = Int64.logand !cand (Int64.lognot out) in
    if zero <> 0L then cand := zero
  done;
  let k = lowest_bit !cand in
  let m = ref 0 in
  Array.iteri
    (fun r s ->
      if Int64.logand (Int64.shift_right_logical (A.unsafe_get rows s) k) 1L = 1L
      then m := !m lor (1 lsl r))
    outs;
  !m

(* [run] with one per-gate predicate read before the gate acts: some
   lane with 1 on [ga] and 0 on [gb]. [run] itself stays free of it,
   so verify sweeps do not pay for this. *)
let gate_activity c =
  let n = check_wires "gate_activity" c in
  let kinds = c.Compiled.kinds and ga = c.Compiled.ga and gb = c.Compiled.gb in
  let gates = Bytes.length kinds in
  let fires = Array.make gates false in
  let outs = outputs c and rows = block () in
  let hi = 1 lsl n in
  let least = ref None in
  let base = ref 0 in
  while !base < hi do
    load_range rows n !base;
    for i = 0 to gates - 1 do
      let a = Array.unsafe_get ga i and b = Array.unsafe_get gb i in
      let x = A.unsafe_get rows a and y = A.unsafe_get rows b in
      if Int64.logand x (Int64.lognot y) <> 0L then
        Array.unsafe_set fires i true;
      if Bytes.unsafe_get kinds i = '\000' then begin
        A.unsafe_set rows a (Int64.logand x y);
        A.unsafe_set rows b (Int64.logor x y)
      end
      else begin
        A.unsafe_set rows a y;
        A.unsafe_set rows b x
      end
    done;
    let v = Int64.logand (violations outs rows) (lane_mask ~lo:0 ~hi !base) in
    (if v <> 0L then
       let m = least_output outs rows v in
       match !least with
       | Some best when best <= m -> ()
       | _ -> least := Some m);
    base := !base + lanes
  done;
  { fires; least_unsorted = !least }

(* After each level, route the rows into register order through that
   level's slot map, transpose them into one mask per lane and mark the
   masks in the level's [2^wires] bitmap. *)
let level_images c =
  let n = check_wires "level_images" c in
  let size = 1 lsl n in
  let levels = Compiled.levels c in
  let level_off = c.Compiled.level_off in
  let identity = Array.init n Fun.id in
  let route li =
    match c.Compiled.slots with Some s -> s.(li) | None -> identity
  in
  let seen = Array.init levels (fun _ -> Bytes.make size '\000') in
  let rows = block () and routed = block () in
  let base = ref 0 in
  while !base < size do
    load_range rows n !base;
    for li = 0 to levels - 1 do
      run_range c rows level_off.(li) level_off.(li + 1);
      let slot = route li in
      for r = 0 to n - 1 do
        A.unsafe_set routed r (A.unsafe_get rows (Array.unsafe_get slot r))
      done;
      for r = n to lanes - 1 do
        A.unsafe_set routed r 0L
      done;
      transpose routed;
      let bitmap = seen.(li) in
      for k = 0 to min lanes size - 1 do
        Bytes.unsafe_set bitmap (Int64.to_int (A.unsafe_get routed k)) '\001'
      done
    done;
    base := !base + lanes
  done;
  Array.map
    (fun bitmap ->
      let masks = ref [] in
      for m = size - 1 downto 0 do
        if Bytes.unsafe_get bitmap m <> '\000' then masks := m :: !masks
      done;
      !masks)
    seen
