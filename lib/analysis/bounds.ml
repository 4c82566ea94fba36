type t = {
  n : int;
  r : Bytes.t;  (** [r.(i*n + j) <> 0] iff [v_i <= v_j] proved *)
  lo : int array;
  hi : int array;
}

let create n =
  if n < 1 then invalid_arg "Bounds.create";
  let r = Bytes.make (n * n) '\000' in
  for i = 0 to n - 1 do
    Bytes.unsafe_set r ((i * n) + i) '\001'
  done;
  { n; r; lo = Array.make n 0; hi = Array.make n (n - 1) }

let n t = t.n

let get t i j = Bytes.unsafe_get t.r ((i * t.n) + j) <> '\000'
let set t i j v = Bytes.unsafe_set t.r ((i * t.n) + j) (if v then '\001' else '\000')

let leq t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Bounds.leq";
  get t i j

let interval t w =
  if w < 0 || w >= t.n then invalid_arg "Bounds.interval";
  (t.lo.(w), t.hi.(w))

let transfer_compare t a b =
  (* a <- min, b <- max; snapshot the four lines first, the update
     reads and writes overlapping entries. *)
  let n = t.n in
  let row_a = Bytes.sub t.r (a * n) n and row_b = Bytes.sub t.r (b * n) n in
  let col_a = Bytes.create n and col_b = Bytes.create n in
  for c = 0 to n - 1 do
    Bytes.unsafe_set col_a c (Bytes.unsafe_get t.r ((c * n) + a));
    Bytes.unsafe_set col_b c (Bytes.unsafe_get t.r ((c * n) + b))
  done;
  let old rc i = Bytes.unsafe_get rc i <> '\000' in
  for c = 0 to n - 1 do
    if c <> a && c <> b then begin
      set t c a (old col_a c && old col_b c);
      set t a c (old row_a c || old row_b c);
      set t c b (old col_a c || old col_b c);
      set t b c (old row_a c && old row_b c)
    end
  done;
  set t a b true;
  set t b a (old row_a b && old col_a b);
  let la = t.lo.(a) and ha = t.hi.(a) and lb = t.lo.(b) and hb = t.hi.(b) in
  t.lo.(a) <- min la lb;
  t.hi.(a) <- min ha hb;
  t.lo.(b) <- max la lb;
  t.hi.(b) <- max ha hb

let swap_wires t a b =
  let n = t.n in
  for c = 0 to n - 1 do
    let x = Bytes.unsafe_get t.r ((a * n) + c)
    and y = Bytes.unsafe_get t.r ((b * n) + c) in
    Bytes.unsafe_set t.r ((a * n) + c) y;
    Bytes.unsafe_set t.r ((b * n) + c) x
  done;
  for c = 0 to n - 1 do
    let x = Bytes.unsafe_get t.r ((c * n) + a)
    and y = Bytes.unsafe_get t.r ((c * n) + b) in
    Bytes.unsafe_set t.r ((c * n) + a) y;
    Bytes.unsafe_set t.r ((c * n) + b) x
  done;
  let l = t.lo.(a) in
  t.lo.(a) <- t.lo.(b);
  t.lo.(b) <- l;
  let h = t.hi.(a) in
  t.hi.(a) <- t.hi.(b);
  t.hi.(b) <- h

let transfer_gate t = function
  | Gate.Compare { lo; hi } -> transfer_compare t lo hi
  | Gate.Exchange { a; b } -> swap_wires t a b

let transfer_perm t p =
  if Perm.n p <> t.n then invalid_arg "Bounds.transfer_perm: size mismatch";
  let n = t.n in
  let img = Perm.to_array p in
  let r' = Bytes.make (n * n) '\000' in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Bytes.unsafe_get t.r ((i * n) + j) <> '\000' then
        Bytes.unsafe_set r' ((img.(i) * n) + img.(j)) '\001'
    done
  done;
  Bytes.blit r' 0 t.r 0 (n * n);
  let lo' = Perm.permute_array p t.lo and hi' = Perm.permute_array p t.hi in
  Array.blit lo' 0 t.lo 0 n;
  Array.blit hi' 0 t.hi 0 n

let sorted_proved t =
  let ok = ref true in
  for w = 0 to t.n - 2 do
    if not (get t w (w + 1)) then ok := false
  done;
  !ok

let gate_dead t = function
  | Gate.Compare { lo; hi } -> get t lo hi || t.hi.(lo) <= t.lo.(hi)
  | Gate.Exchange _ -> false
