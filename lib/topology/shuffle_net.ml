let rotr ~width ~count x =
  let d = width in
  let k = count mod d in
  if k = 0 then x
  else ((x lsr k) lor (x lsl (d - k))) land ((1 lsl d) - 1)

let rotl ~width ~count x = rotr ~width ~count:(width - (count mod width)) x

let kind_of_op = function
  | Register_model.Plus -> Some Reverse_delta.Min_left
  | Register_model.Minus -> Some Reverse_delta.Min_right
  | Register_model.One -> Some Reverse_delta.Swap
  | Register_model.Zero -> None

(* The trees of one chunk of [f] shuffle stages on [n = 2^d] wires, one
   per class of the low [d - f] index bits, not yet validated. A cross
   of the node at recursion depth [j] goes to the bucket of that node's
   fixed low bits (bits [0, d-f+j) of its wires): depth [j] has
   2^(d-f+j) buckets, fewer than [n] over all depths. Each bucket lists
   its crosses newest first. *)
let trees_of_ops ~n opss =
  if not (Bitops.is_power_of_two n) || n < 2 then
    invalid_arg "Shuffle_net: n must be a power of two >= 2";
  let d = Bitops.log2_exact n in
  let f = List.length opss in
  if f < 1 || f > d then
    invalid_arg (Printf.sprintf "Shuffle_net: chunk of %d stages, want 1..%d" f d);
  List.iter
    (fun ops ->
      if Array.length ops <> n / 2 then
        invalid_arg "Shuffle_net: op vector length mismatch")
    opss;
  let buckets = Array.init f (fun j -> Array.make (1 lsl (d - f + j)) []) in
  List.iteri
    (fun k0 ops ->
      let k = k0 + 1 in
      let j = f - k in
      let split_bit = d - k in
      let key_mask = (1 lsl (d - f + j)) - 1 in
      let bucket = buckets.(j) in
      Array.iteri
        (fun m op ->
          match kind_of_op op with
          | None -> ()
          | Some kind ->
              let o_even = rotr ~width:d ~count:k (2 * m) in
              let o_odd = rotr ~width:d ~count:k ((2 * m) + 1) in
              assert (o_odd = o_even lxor (1 lsl split_bit));
              let key = o_even land key_mask in
              bucket.(key) <-
                { Reverse_delta.left = o_even; right = o_odd; kind } :: bucket.(key))
        ops)
    opss;
  let rec build j key =
    if j = f then Reverse_delta.Wire key
    else
      let bit = d - f + j in
      let sub0 = build (j + 1) key in
      let sub1 = build (j + 1) (key lor (1 lsl bit)) in
      Reverse_delta.Node { sub0; sub1; cross = buckets.(j).(key) }
  in
  List.init (1 lsl (d - f)) (build 0)

let forest_of_ops ~n opss =
  let trees = trees_of_ops ~n opss in
  List.iter Reverse_delta.validate trees;
  trees

let block_of_ops ~n opss =
  let d = Bitops.log2_exact n in
  if List.length opss <> d then
    invalid_arg
      (Printf.sprintf "Shuffle_net.block_of_ops: %d stages, want %d"
         (List.length opss) d);
  match forest_of_ops ~n opss with
  | [ rd ] -> rd
  | _ -> assert false

let chunk_ops prog ~f =
  let n = Register_model.n prog in
  if not (Bitops.is_power_of_two n) then
    invalid_arg "Shuffle_net.chunk_ops: n must be a power of two";
  let sh = Perm.shuffle n in
  let opss =
    List.map
      (fun st ->
        if not (Perm.equal st.Register_model.perm sh) then
          invalid_arg "Shuffle_net.chunk_ops: program is not shuffle-based";
        st.Register_model.ops)
      (Register_model.stages prog)
  in
  if f < 1 then invalid_arg "Shuffle_net.chunk_ops: f must be >= 1";
  if List.length opss mod f <> 0 then
    invalid_arg
      (Printf.sprintf "Shuffle_net.chunk_ops: %d stages not divisible by f=%d"
         (List.length opss) f);
  let rec chunks acc cur k = function
    | [] ->
        assert (k = 0);
        List.rev acc
    | ops :: rest ->
        if k = f - 1 then chunks (List.rev (ops :: cur) :: acc) [] 0 rest
        else chunks acc (ops :: cur) (k + 1) rest
  in
  chunks [] [] 0 opss

let inter_chunk_perm ~n ~f =
  let d = Bitops.log2_exact n in
  Perm.of_array (Array.init n (fun o -> rotl ~width:d ~count:f o))

(* [Iterated.uniform] validates each block, so the trees are built
   unvalidated *)
let to_iterated prog =
  let n = Register_model.n prog in
  let d = Bitops.log2_exact n in
  let chunks = chunk_ops prog ~f:d in
  Iterated.uniform
    (List.map
       (fun opss ->
         match trees_of_ops ~n opss with [ rd ] -> rd | _ -> assert false)
       chunks)

let random_program rng ~n ~stages =
  Register_model.shuffle_program ~n
    (List.init stages (fun _ -> Register_model.random_ops rng ~n))

let all_plus_program ~n ~stages =
  Register_model.shuffle_program ~n
    (List.init stages (fun _ -> Register_model.comparator_ops ~n))
