(* Packed bitset over the 2^n zero-one vectors. 62 masks per word keeps
   every word nonnegative, so Bitops.popcount and floor_log2 apply
   directly. *)

let bits_per_word = 62

type t = { n : int; words : int array }

let word_count n = (((1 lsl n) + bits_per_word - 1) / bits_per_word)

let check_n n =
  if n < 2 || n > 20 then
    invalid_arg "Search.State: n must be in [2, 20] (state is 2^n bits)"

let n st = st.n

let initial ~n =
  check_n n;
  let total = 1 lsl n in
  let words =
    Array.init (word_count n) (fun i ->
        let cnt = min bits_per_word (total - (i * bits_per_word)) in
        if cnt = bits_per_word then max_int else (1 lsl cnt) - 1)
  in
  { n; words }

let of_masks ~n masks =
  check_n n;
  let words = Array.make (word_count n) 0 in
  List.iter
    (fun m ->
      if m < 0 || m >= 1 lsl n then
        invalid_arg "Search.State.of_masks: mask out of range";
      let w = m / bits_per_word in
      words.(w) <- words.(w) lor (1 lsl (m mod bits_per_word)))
    masks;
  { n; words }

let mem st m = (st.words.(m / bits_per_word) lsr (m mod bits_per_word)) land 1 = 1

let card st = Array.fold_left (fun acc w -> acc + Bitops.popcount w) 0 st.words

let iter_masks f st =
  Array.iteri
    (fun i word ->
      let base = i * bits_per_word in
      let w = ref word in
      while !w <> 0 do
        let low = !w land - !w in
        f (base + Bitops.floor_log2 low);
        w := !w land (!w - 1)
      done)
    st.words

exception Early

let exists_mask p st =
  try
    iter_masks (fun m -> if p m then raise Early) st;
    false
  with Early -> true

let for_all_masks p st = not (exists_mask (fun m -> not (p m)) st)

let masks st =
  let acc = ref [] in
  iter_masks (fun m -> acc := m :: !acc) st;
  List.rev !acc

let equal a b = a.n = b.n && a.words = b.words

(* Short-circuits on the first violating word: this sits inside the
   subsumption inner loop, where almost every call is a refutation and
   the violation is overwhelmingly in an early word. *)
let subset a b =
  a.n = b.n
  &&
  let len = Array.length a.words in
  let i = ref 0 in
  while !i < len && a.words.(!i) land lnot b.words.(!i) = 0 do
    incr i
  done;
  !i = len

let key st = st.words

let of_key ~n words =
  check_n n;
  if Array.length words <> word_count n then
    invalid_arg "Search.State.of_key: wrong word count for this n";
  { n; words = Array.copy words }

let map_masks st f =
  let words = Array.make (Array.length st.words) 0 in
  iter_masks
    (fun m ->
      let m' = f m in
      let w = m' / bits_per_word in
      words.(w) <- words.(w) lor (1 lsl (m' mod bits_per_word)))
    st;
  { n = st.n; words }

let apply_comparators st layer =
  map_masks st (fun m ->
      List.fold_left
        (fun m (i, j) ->
          (* ascending comparator: only (1, 0) across (i, j) changes *)
          if (m lsr i) land 1 = 1 && (m lsr j) land 1 = 0 then
            m lxor ((1 lsl i) lor (1 lsl j))
          else m)
        m layer)

(* The n + 1 sorted vectors, cached per n so is_sorted is a word-wise
   subset test rather than a per-mask loop. *)
let sorted_states : t option array = Array.make 21 None

let sorted_state n =
  match sorted_states.(n) with
  | Some st -> st
  | None ->
      let st =
        of_masks ~n (List.init (n + 1) (fun k -> ((1 lsl k) - 1) lsl (n - k)))
      in
      sorted_states.(n) <- Some st;
      st

let is_sorted st = subset st (sorted_state st.n)

let unordered_pairs st =
  let n = st.n in
  let tbl = Bytes.make (n * n) '\000' in
  let total = n * (n - 1) in
  let seen = ref 0 in
  (try
     iter_masks
       (fun m ->
         for i = 0 to n - 1 do
           if m land (1 lsl i) <> 0 then
             for j = 0 to n - 1 do
               if m land (1 lsl j) = 0 && Bytes.unsafe_get tbl ((i * n) + j) = '\000'
               then begin
                 Bytes.unsafe_set tbl ((i * n) + j) '\001';
                 incr seen;
                 if !seen = total then raise Early
               end
             done
         done)
       st
   with Early -> ());
  tbl

let pair_unordered tbl ~n i j = Bytes.unsafe_get tbl ((i * n) + j) <> '\000'
