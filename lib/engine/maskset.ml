(* Sets of 0-1 vectors as bit rows, and the set-image kernel.

   A set of masks on n <= 16 wires is a row of [words ~n] int64 words,
   mask [m] being bit [m mod 64] of word [m / 64] (below six wires the
   set is the low 2^n bits of one word). Index bits 0-5 select the bit
   inside a word and the bits above select the word, so the image of
   the whole set under a comparator [(i, j)] is a butterfly on the row
   — an intra-word masked shift when [i, j < 6], a masked cross-word
   shift when one of them is below 6, and whole-word moves when
   neither is — O(words) word operations per comparator instead of a
   loop over the masks. *)

type row = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let words ~n = max 1 ((1 lsl n) / 64)

(* [intra.(i).(j)], i <> j < 6: the positions of a word with bit i set
   and bit j clear *)
let intra =
  Array.init 6 (fun i ->
      Array.init 6 (fun j ->
          if i = j then 0L
          else begin
            let p = ref 0L in
            for b = 0 to 63 do
              if (b lsr i) land 1 = 1 && (b lsr j) land 1 = 0 then
                p := Int64.logor !p (Int64.shift_left 1L b)
            done;
            !p
          end))

(* [bitset.(i)], i < 6: the positions of a word with bit i set *)
let bitset =
  Array.init 6 (fun i ->
      let p = ref 0L in
      for b = 0 to 63 do
        if (b lsr i) land 1 = 1 then p := Int64.logor !p (Int64.shift_left 1L b)
      done;
      !p)

let cube ~n =
  if n < 1 || n > 16 then invalid_arg "Maskset.cube: n must be in [1, 16]";
  let r = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (words ~n) in
  Bigarray.Array1.fill r
    (if n >= 6 then -1L else Int64.pred (Int64.shift_left 1L (1 lsl n)));
  r

(* apply one comparator (i, j), i <> j, to the row at [base]: the
   minimum goes to channel i and the maximum to channel j, so every mask
   with bit i set and bit j clear moves by 2^j - 2^i to the mask with
   those bits exchanged (up for an ascending pair, down for a reversed
   one); everything else stays. Butterfly by case on whether the
   affected index bits are intra-word; each direction has its own loop,
   so neither pays a branch per word. *)
let apply_cmp (words : row) ~wpr base i j =
  if i < 6 && j < 6 then begin
    let pat = intra.(i).(j) in
    if i < j then begin
      let delta = (1 lsl j) - (1 lsl i) in
      for w = 0 to wpr - 1 do
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        let mov = Int64.logand x pat in
        if mov <> 0L then
          Bigarray.Array1.unsafe_set words (base + w)
            (Int64.logor (Int64.logxor x mov) (Int64.shift_left mov delta))
      done
    end
    else begin
      let delta = (1 lsl i) - (1 lsl j) in
      for w = 0 to wpr - 1 do
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        let mov = Int64.logand x pat in
        if mov <> 0L then
          Bigarray.Array1.unsafe_set words (base + w)
            (Int64.logor (Int64.logxor x mov)
               (Int64.shift_right_logical mov delta))
      done
    end
  end
  else if i < 6 then begin
    (* i < 6 <= j: the bit-i movers of a word with bit j clear land in
       the word 2^(j-6) above, bit i cleared *)
    let pat = bitset.(i) in
    let dj = 1 lsl (j - 6) in
    let shift = 1 lsl i in
    for w = 0 to wpr - 1 do
      if w land dj = 0 then begin
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        let mov = Int64.logand x pat in
        if mov <> 0L then begin
          Bigarray.Array1.unsafe_set words (base + w) (Int64.logxor x mov);
          let w' = base + w + dj in
          Bigarray.Array1.unsafe_set words w'
            (Int64.logor
               (Bigarray.Array1.unsafe_get words w')
               (Int64.shift_right_logical mov shift))
        end
      end
    done
  end
  else if j < 6 then begin
    (* j < 6 <= i, reversed: the bit-j-clear positions of a word with
       bit i set land in the word 2^(i-6) below, bit j set *)
    let pat = Int64.lognot bitset.(j) in
    let di = 1 lsl (i - 6) in
    let shift = 1 lsl j in
    for w = 0 to wpr - 1 do
      if w land di <> 0 then begin
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        let mov = Int64.logand x pat in
        if mov <> 0L then begin
          Bigarray.Array1.unsafe_set words (base + w) (Int64.logxor x mov);
          let w' = base + w - di in
          Bigarray.Array1.unsafe_set words w'
            (Int64.logor
               (Bigarray.Array1.unsafe_get words w')
               (Int64.shift_left mov shift))
        end
      end
    done
  end
  else begin
    (* whole words move, up or down *)
    let di = 1 lsl (i - 6) and dj = 1 lsl (j - 6) in
    for w = 0 to wpr - 1 do
      if w land di <> 0 && w land dj = 0 then begin
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        if x <> 0L then begin
          let w' = base + w - di + dj in
          Bigarray.Array1.unsafe_set words w'
            (Int64.logor (Bigarray.Array1.unsafe_get words w') x);
          Bigarray.Array1.unsafe_set words (base + w) 0L
        end
      end
    done
  end

let pop64 x =
  Bitops.popcount (Int64.to_int (Int64.logand x 0x3FFF_FFFF_FFFF_FFFFL))
  + Bitops.popcount (Int64.to_int (Int64.shift_right_logical x 62))

let card (r : row) ~wpr base =
  let c = ref 0 in
  for w = 0 to wpr - 1 do
    c := !c + pop64 (Bigarray.Array1.unsafe_get r (base + w))
  done;
  !c

let debruijn64 = 0x03F79D71B4CB0A89L

let db_tab =
  let t = Array.make 64 0 in
  for i = 0 to 63 do
    t.(Int64.to_int
         (Int64.shift_right_logical
            (Int64.mul (Int64.shift_left 1L i) debruijn64)
            58)
       land 63) <- i
  done;
  t

(* index of the (single) set bit of [b] *)
let bit_index64 b =
  Array.unsafe_get db_tab
    (Int64.to_int (Int64.shift_right_logical (Int64.mul b debruijn64) 58)
     land 63)

let iter (r : row) ~wpr base f =
  for w = 0 to wpr - 1 do
    let x = ref (Bigarray.Array1.unsafe_get r (base + w)) in
    let wbase = w lsl 6 in
    while !x <> 0L do
      let b = Int64.logand !x (Int64.neg !x) in
      f (wbase + bit_index64 b);
      x := Int64.logand !x (Int64.sub !x 1L)
    done
  done

let elements r ~wpr base =
  let a = Array.make (card r ~wpr base) 0 and k = ref 0 in
  iter r ~wpr base (fun m ->
      Array.unsafe_set a !k m;
      incr k);
  a
