(* Tests for reverse delta networks, butterflies, shuffle decomposition
   and iterated networks. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* reverse delta structure *)

let wire w = Reverse_delta.Wire w

let node sub0 sub1 cross = Reverse_delta.Node { sub0; sub1; cross }

let cross l r kind = { Reverse_delta.left = l; right = r; kind }

let test_validate_accepts_wellformed () =
  let rd =
    node
      (node (wire 0) (wire 1) [ cross 0 1 Reverse_delta.Min_left ])
      (node (wire 2) (wire 3) [])
      [ cross 1 2 Reverse_delta.Min_right; cross 0 3 Reverse_delta.Swap ]
  in
  Reverse_delta.validate rd;
  check_int "levels" 2 (Reverse_delta.levels rd);
  check_int "inputs" 4 (Reverse_delta.inputs rd);
  check_int "cross_count" 3 (Reverse_delta.cross_count rd);
  check_int "comparator_count" 2 (Reverse_delta.comparator_count rd);
  Alcotest.(check (array int)) "leaves" [| 0; 1; 2; 3 |] (Reverse_delta.leaves rd)

let test_validate_rejects () =
  check_bool "unbalanced" true
    (raises (fun () ->
         Reverse_delta.validate (node (wire 0) (node (wire 1) (wire 2) []) [])));
  check_bool "shared wire" true
    (raises (fun () -> Reverse_delta.validate (node (wire 0) (wire 0) [])));
  check_bool "cross from wrong side" true
    (raises (fun () ->
         Reverse_delta.validate
           (node (wire 0) (wire 1) [ cross 1 0 Reverse_delta.Min_left ])));
  check_bool "wire reused in level" true
    (raises (fun () ->
         Reverse_delta.validate
           (node
              (node (wire 0) (wire 1) [])
              (node (wire 2) (wire 3) [])
              [ cross 0 2 Reverse_delta.Min_left;
                cross 0 3 Reverse_delta.Min_left ])))

let test_to_network_time_order () =
  (* deepest cross levels fire first *)
  let rd =
    node
      (node (wire 0) (wire 1) [ cross 0 1 Reverse_delta.Min_left ])
      (node (wire 2) (wire 3) [ cross 2 3 Reverse_delta.Min_left ])
      [ cross 0 2 Reverse_delta.Min_left; cross 1 3 Reverse_delta.Min_left ]
  in
  let nw = Reverse_delta.to_network ~wires:4 rd in
  check_int "levels" 2 (List.length (Network.levels nw));
  (match Network.levels nw with
  | [ first; second ] ->
      check_int "level 1 has the leaf-node gates" 2 (List.length first.Network.gates);
      check_int "level 2 has the root gates" 2 (List.length second.Network.gates)
  | _ -> Alcotest.fail "expected 2 levels");
  (* this particular rd is the 2-level ascending butterfly = bitonic
     merger of 4 wires in reverse-delta (ascend) direction *)
  Alcotest.(check (array int)) "eval" [| 1; 2; 3; 4 |] (Network.eval nw [| 4; 3; 2; 1 |])

let test_map_wires () =
  let rd = node (wire 0) (wire 1) [ cross 0 1 Reverse_delta.Min_left ] in
  let rd' = Reverse_delta.map_wires (fun w -> w + 5) rd in
  Alcotest.(check (array int)) "leaves shifted" [| 5; 6 |] (Reverse_delta.leaves rd');
  check_bool "non-injective rejected" true
    (raises (fun () -> ignore (Reverse_delta.map_wires (fun _ -> 3) rd)))

(* butterfly *)

let test_butterfly_structure () =
  List.iter
    (fun levels ->
      let bf = Butterfly.ascending ~levels in
      Reverse_delta.validate bf;
      check_int "levels" levels (Reverse_delta.levels bf);
      check_int "comparators" (levels * (1 lsl (levels - 1)))
        (Reverse_delta.comparator_count bf))
    [ 1; 2; 3; 4; 5; 6 ]

let test_butterfly_level_bits () =
  (* time step k compares wires differing in bit k-1 *)
  let bf = Butterfly.network ~levels:3 in
  List.iteri
    (fun k lvl ->
      List.iter
        (fun g ->
          let a, b = Gate.wires g in
          check_int (Printf.sprintf "level %d bit" k) (1 lsl k) (a lxor b))
        lvl.Network.gates)
    (Network.levels bf)

let test_delta_butterfly_is_bitonic_merger () =
  let rng = Xoshiro.of_seed 11 in
  List.iter
    (fun levels ->
      let n = 1 lsl levels in
      let nw = Butterfly.delta_network ~levels in
      for _ = 1 to 50 do
        let input = Workload.bitonic_input rng ~n in
        check_bool "merges bitonic" true
          (Sortedness.is_sorted (Network.eval nw input))
      done)
    [ 1; 2; 3; 4; 5 ]

(* shuffle decomposition *)

let test_block_of_ops_roundtrip () =
  let rng = Xoshiro.of_seed 21 in
  List.iter
    (fun d ->
      let n = 1 lsl d in
      let prog = Shuffle_net.random_program rng ~n ~stages:d in
      let opss =
        List.map (fun st -> st.Register_model.ops) (Register_model.stages prog)
      in
      let rd = Shuffle_net.block_of_ops ~n opss in
      Reverse_delta.validate rd;
      check_int "levels = d" d (Reverse_delta.levels rd);
      let nw_rd = Reverse_delta.to_network ~wires:n rd in
      let nw = Network.flatten (Register_model.to_network prog) in
      for _ = 1 to 20 do
        let input = Workload.random_permutation rng ~n in
        Alcotest.(check (array int)) "same function"
          (Network.eval nw input) (Network.eval nw_rd input)
      done)
    [ 1; 2; 3; 4; 5; 6 ]

let test_forest_of_ops_partition () =
  let rng = Xoshiro.of_seed 31 in
  let n = 64 in
  let d = 6 in
  List.iter
    (fun f ->
      let prog = Shuffle_net.random_program rng ~n ~stages:f in
      let opss =
        List.map (fun st -> st.Register_model.ops) (Register_model.stages prog)
      in
      let forest = Shuffle_net.forest_of_ops ~n opss in
      check_int "tree count" (1 lsl (d - f)) (List.length forest);
      (* leaves partition all wires *)
      let all =
        List.concat_map (fun rd -> Array.to_list (Reverse_delta.leaves rd)) forest
      in
      Alcotest.(check (list int)) "partition" (List.init n (fun i -> i))
        (List.sort compare all);
      List.iter
        (fun rd -> check_int "tree levels" f (Reverse_delta.levels rd))
        forest)
    [ 1; 2; 3; 6 ]

(* [reference_forest] is the forest builder [Shuffle_net] used before
   it bucketed crosses in per-depth arrays, kept verbatim (with its
   helpers) as the oracle: it buckets them in a [Hashtbl] keyed by
   [(j, key)] tuples. *)
let reference_forest ~n opss =
  let rotr ~width ~count x =
    let d = width in
    let k = count mod d in
    if k = 0 then x
    else ((x lsr k) lor (x lsl (d - k))) land ((1 lsl d) - 1)
  in
  let kind_of_op = function
    | Register_model.Plus -> Some Reverse_delta.Min_left
    | Register_model.Minus -> Some Reverse_delta.Min_right
    | Register_model.One -> Some Reverse_delta.Swap
    | Register_model.Zero -> None
  in
  let d = Bitops.log2_exact n in
  let f = List.length opss in
  let crosses : (int * int, Reverse_delta.cross list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add_cross j key c =
    let cur = Option.value ~default:[] (Hashtbl.find_opt crosses (j, key)) in
    Hashtbl.replace crosses (j, key) (c :: cur)
  in
  List.iteri
    (fun k0 ops ->
      let k = k0 + 1 in
      let j = f - k in
      let split_bit = d - k in
      let key_mask = (1 lsl (d - f + j)) - 1 in
      Array.iteri
        (fun m op ->
          match kind_of_op op with
          | None -> ()
          | Some kind ->
              let o_even = rotr ~width:d ~count:k (2 * m) in
              let o_odd = rotr ~width:d ~count:k ((2 * m) + 1) in
              assert (o_odd = o_even lxor (1 lsl split_bit));
              add_cross j (o_even land key_mask)
                { Reverse_delta.left = o_even; right = o_odd; kind })
        ops)
    opss;
  let rec build j key =
    if j = f then Reverse_delta.Wire key
    else
      let bit = d - f + j in
      let sub0 = build (j + 1) key in
      let sub1 = build (j + 1) (key lor (1 lsl bit)) in
      let cross =
        Option.value ~default:[] (Hashtbl.find_opt crosses (j, key))
      in
      Reverse_delta.Node { sub0; sub1; cross }
  in
  let trees =
    List.init (1 lsl (d - f)) (fun c ->
        let rd = build 0 c in
        Reverse_delta.validate rd;
        rd)
  in
  trees

(* the same trees, cross lists in the same order, for every chunk
   length at n = 2^2..2^12; and [to_iterated]'s blocks are the
   reference's whole-block trees *)
let test_forest_matches_reference () =
  let rng = Xoshiro.of_seed 51 in
  for d = 2 to 12 do
    let n = 1 lsl d in
    for f = 1 to d do
      let prog = Shuffle_net.random_program rng ~n ~stages:f in
      let opss =
        List.map (fun st -> st.Register_model.ops) (Register_model.stages prog)
      in
      check_bool
        (Printf.sprintf "n=%d f=%d" n f)
        true
        (Shuffle_net.forest_of_ops ~n opss = reference_forest ~n opss)
    done;
    let prog = Shuffle_net.random_program rng ~n ~stages:(2 * d) in
    check_bool
      (Printf.sprintf "to_iterated n=%d" n)
      true
      (List.map (fun b -> b.Iterated.body) (Iterated.blocks (Shuffle_net.to_iterated prog))
      = List.concat_map (reference_forest ~n) (Shuffle_net.chunk_ops prog ~f:d))
  done

let test_forest_chunk_evaluation () =
  (* Gluing the chunk circuits with the inter-chunk permutation must
     reproduce the register program exactly. *)
  let rng = Xoshiro.of_seed 41 in
  let n = 32 in
  let f = 5 in
  let chunks_count = 3 in
  let prog = Shuffle_net.random_program rng ~n ~stages:(chunks_count * f) in
  let chunks = Shuffle_net.chunk_ops prog ~f in
  let glue = Shuffle_net.inter_chunk_perm ~n ~f in
  let chunk_net opss =
    let forest = Shuffle_net.forest_of_ops ~n opss in
    List.fold_left
      (fun acc rd -> Network.serial acc (Reverse_delta.to_network ~wires:n rd))
      (Network.empty n) forest
  in
  let composed =
    List.fold_left
      (fun (acc, first) opss ->
        let net = chunk_net opss in
        if first then (Network.serial acc net, false)
        else (Network.serial acc (Network.serial (Network.permutation_level glue) net), false))
      (Network.empty n, true) chunks
    |> fst
  in
  (* outputs of the composed chunk circuits are in final-chunk wire
     coordinates; map back to register coordinates by applying glue once
     more at the end *)
  let composed = Network.serial composed (Network.permutation_level glue) in
  for _ = 1 to 50 do
    let input = Workload.random_permutation rng ~n in
    Alcotest.(check (array int)) "chunked = direct"
      (Register_model.eval prog input)
      (Network.eval composed input)
  done

let test_chunk_ops_validation () =
  let rng = Xoshiro.of_seed 51 in
  let n = 16 in
  let prog = Shuffle_net.random_program rng ~n ~stages:8 in
  check_bool "non-divisible" true (raises (fun () -> Shuffle_net.chunk_ops prog ~f:3));
  check_int "divisible" 2 (List.length (Shuffle_net.chunk_ops prog ~f:4));
  (* non-shuffle program rejected *)
  let bad =
    Register_model.create ~n
      [ { Register_model.perm = Perm.identity n;
          ops = Array.make (n / 2) Register_model.Plus } ]
  in
  check_bool "not shuffle-based" true (raises (fun () -> Shuffle_net.chunk_ops bad ~f:1))

let test_inter_chunk_perm_full_block_is_identity () =
  check_bool "rotl^d = id" true
    (Perm.is_identity (Shuffle_net.inter_chunk_perm ~n:64 ~f:6))

(* iterated *)

let test_iterated_validation () =
  let rd = Butterfly.ascending ~levels:2 in
  let it = Iterated.uniform [ rd; rd ] in
  check_int "blocks" 2 (Iterated.block_count it);
  check_int "levels per block" 2 (Iterated.levels_per_block it);
  check_int "depth" 4 (Iterated.depth it);
  check_bool "wrong size block" true
    (raises (fun () ->
         ignore
           (Iterated.create ~n:8 [ { Iterated.pre = None; body = rd } ])))

let test_iterated_with_permutation () =
  let rd = Butterfly.ascending ~levels:2 in
  let p = Perm.of_array [| 3; 2; 1; 0 |] in
  let it = Iterated.create ~n:4 [ { Iterated.pre = Some p; body = rd } ] in
  let nw = Iterated.to_network it in
  (* reversal then ascending 2-level butterfly sorts a sorted input
     after reversal: [1;2;3;4] -> reversed -> sorted again *)
  Alcotest.(check (array int)) "perm applied first" [| 1; 2; 3; 4 |]
    (Network.eval nw [| 1; 2; 3; 4 |])

(* random nets *)

let test_random_reverse_delta_valid () =
  let rng = Xoshiro.of_seed 61 in
  for levels = 1 to 7 do
    let rd = Random_net.reverse_delta rng ~levels ~density:0.7 ~swap_prob:0.2 in
    Reverse_delta.validate rd;
    check_int "levels" levels (Reverse_delta.levels rd)
  done

let test_random_iterated_valid () =
  let rng = Xoshiro.of_seed 71 in
  let it = Random_net.iterated rng ~n:32 ~blocks:3 ~density:0.5 ~swap_prob:0.1 ~permute:true in
  check_int "blocks" 3 (Iterated.block_count it);
  ignore (Iterated.to_network it)

let prop_shuffle_block_equivalence =
  QCheck.Test.make ~name:"to_iterated preserves the function" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, d) ->
      let n = 1 lsl d in
      let rng = Xoshiro.of_seed seed in
      let blocks = 1 + Xoshiro.int rng ~bound:3 in
      let prog = Shuffle_net.random_program rng ~n ~stages:(blocks * d) in
      let it = Shuffle_net.to_iterated prog in
      let nw_it = Iterated.to_network it in
      let nw = Network.flatten (Register_model.to_network prog) in
      let input = Workload.random_permutation rng ~n in
      Network.eval nw input = Network.eval nw_it input)

(* --- oracles for the linear flattening and validation: the earlier
   quadratic builder (each node's gates appended to its level with [@])
   and the [Int_set] validator, kept verbatim as references --- *)

let reference_gate_of_cross (c : Reverse_delta.cross) =
  match c.kind with
  | Reverse_delta.Min_left -> Gate.Compare { lo = c.left; hi = c.right }
  | Reverse_delta.Min_right -> Gate.Compare { lo = c.right; hi = c.left }
  | Reverse_delta.Swap -> Gate.Exchange { a = c.left; b = c.right }

let reference_to_network ~wires rd =
  let l = Reverse_delta.levels rd in
  let time_levels = Array.make l [] in
  let rec walk depth = function
    | Reverse_delta.Wire _ -> ()
    | Reverse_delta.Node { sub0; sub1; cross } ->
        let step = l - depth - 1 in
        time_levels.(step) <-
          time_levels.(step) @ List.map reference_gate_of_cross cross;
        walk (depth + 1) sub0;
        walk (depth + 1) sub1
  in
  walk 0 rd;
  Network.of_gate_levels ~wires (Array.to_list time_levels)

module Int_set = Set.Make (Int)

let reference_validate rd =
  let rec go = function
    | Reverse_delta.Wire w ->
        if w < 0 then invalid_arg "Reverse_delta.validate: negative wire id";
        (Int_set.singleton w, 0)
    | Reverse_delta.Node { sub0; sub1; cross } ->
        let s0, l0 = go sub0 and s1, l1 = go sub1 in
        if l0 <> l1 then
          invalid_arg
            (Printf.sprintf "Reverse_delta.validate: subnetworks of depth %d and %d" l0 l1);
        if not (Int_set.is_empty (Int_set.inter s0 s1)) then
          invalid_arg "Reverse_delta.validate: subnetworks share a wire";
        let used = Hashtbl.create 16 in
        let touch w =
          if Hashtbl.mem used w then
            invalid_arg
              (Printf.sprintf "Reverse_delta.validate: wire %d used twice in a cross level" w)
          else Hashtbl.add used w ()
        in
        List.iter
          (fun (c : Reverse_delta.cross) ->
            if not (Int_set.mem c.left s0) then
              invalid_arg
                (Printf.sprintf "Reverse_delta.validate: left wire %d not in sub0" c.left);
            if not (Int_set.mem c.right s1) then
              invalid_arg
                (Printf.sprintf "Reverse_delta.validate: right wire %d not in sub1" c.right);
            touch c.left;
            touch c.right)
          cross;
        (Int_set.union s0 s1, l0 + 1)
  in
  ignore (go rd)

let level_lists nw =
  List.map (fun (l : Network.level) -> (l.pre, l.gates)) (Network.levels nw)

let prop_to_network_random_trees =
  QCheck.Test.make ~name:"to_network = quadratic reference (random trees)" ~count:120
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, levels) ->
      let rng = Xoshiro.of_seed seed in
      let density = Xoshiro.float rng in
      let rd = Random_net.reverse_delta rng ~levels ~density ~swap_prob:0.3 in
      let wires = 1 lsl levels in
      level_lists (Reverse_delta.to_network ~wires rd)
      = level_lists (reference_to_network ~wires rd))

let prop_to_network_shuffle_blocks =
  QCheck.Test.make ~name:"to_network = quadratic reference (shuffle blocks)" ~count:120
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, d) ->
      let rng = Xoshiro.of_seed seed in
      let n = 1 lsl d in
      let prog = Shuffle_net.random_program rng ~n ~stages:d in
      let opss = List.map (fun st -> st.Register_model.ops) (Register_model.stages prog) in
      let rd = Shuffle_net.block_of_ops ~n opss in
      level_lists (Reverse_delta.to_network ~wires:n rd)
      = level_lists (reference_to_network ~wires:n rd))

let outcome f =
  match f () with () -> None | exception Invalid_argument msg -> Some msg

(* Rebuilds [rd] with [f] applied to its [k]-th subtree in pre-order. *)
let edit_subtree k f rd =
  let i = ref (-1) in
  let rec go t =
    incr i;
    if !i = k then f t
    else
      match t with
      | Reverse_delta.Wire _ -> t
      | Reverse_delta.Node { sub0; sub1; cross } ->
          let sub0 = go sub0 in
          let sub1 = go sub1 in
          Reverse_delta.Node { sub0; sub1; cross }
  in
  go rd

let subtrees rd =
  let rec go acc t =
    match t with
    | Reverse_delta.Wire _ -> t :: acc
    | Reverse_delta.Node { sub0; sub1; _ } -> go (go (t :: acc) sub0) sub1
  in
  List.rev (go [] rd)

let pick rng l = List.nth l (Xoshiro.int rng ~bound:(List.length l))

(* The pre-order index and cross list of every node with at least [k]
   cross elements. *)
let crossed_nodes rd k =
  List.filter_map Fun.id
    (List.mapi
       (fun i t ->
         match t with
         | Reverse_delta.Node { cross; _ } when List.length cross >= k ->
             Some (i, Array.of_list cross)
         | _ -> None)
       (subtrees rd))

let set_cross rd i j (f : Reverse_delta.cross -> Reverse_delta.cross) =
  edit_subtree i
    (function
      | Reverse_delta.Node n ->
          Reverse_delta.Node
            { n with cross = List.mapi (fun k c -> if k = j then f c else c) n.cross }
      | t -> t)
    rd

(* Rebuilds [rd] with [f] applied to the wire of its [k]-th leaf. *)
let edit_leaf k f rd =
  let pos = ref (-1) in
  let rec go = function
    | Reverse_delta.Wire w ->
        incr pos;
        Reverse_delta.Wire (if !pos = k then f w else w)
    | Reverse_delta.Node { sub0; sub1; cross } ->
        let sub0 = go sub0 in
        let sub1 = go sub1 in
        Reverse_delta.Node { sub0; sub1; cross }
  in
  go rd

(* One injected fault: a repeated leaf, a depth mismatch (a subtree one
   level too shallow, or a leaf one level too deep, through a fresh
   wire id far above the rest), a cross endpoint on the wrong side, a
   wire used twice in one cross level, or a negative wire. *)
let inject rng rd =
  let leaves = Reverse_delta.leaves rd in
  let count = Array.length leaves in
  let repeated_leaf () =
    let i = Xoshiro.int rng ~bound:count in
    let j = (i + 1 + Xoshiro.int rng ~bound:(count - 1)) mod count in
    edit_leaf j (fun _ -> leaves.(i)) rd
  in
  match Xoshiro.int rng ~bound:5 with
  | 0 -> repeated_leaf ()
  | 1 ->
      let k = 1 + Xoshiro.int rng ~bound:(List.length (subtrees rd) - 1) in
      edit_subtree k
        (function
          | Reverse_delta.Node { sub0; _ } -> sub0
          | Reverse_delta.Wire w ->
              Reverse_delta.Node
                { sub0 = Reverse_delta.Wire w;
                  sub1 = Reverse_delta.Wire (1_000_000 + w);
                  cross = [] })
        rd
  | 2 -> (
      match crossed_nodes rd 1 with
      | [] -> repeated_leaf ()
      | ns ->
          let i, cross = pick rng ns in
          set_cross rd i (Xoshiro.int rng ~bound:(Array.length cross)) (fun c ->
              { c with left = c.right; right = c.left }))
  | 3 -> (
      match crossed_nodes rd 2 with
      | [] -> repeated_leaf ()
      | ns ->
          let i, cross = pick rng ns in
          let len = Array.length cross in
          let a = Xoshiro.int rng ~bound:len in
          let b = (a + 1 + Xoshiro.int rng ~bound:(len - 1)) mod len in
          if Xoshiro.bool rng then
            set_cross rd i b (fun c -> { c with left = cross.(a).left })
          else set_cross rd i b (fun c -> { c with right = cross.(a).right }))
  | _ -> (
      match (Xoshiro.bool rng, crossed_nodes rd 1) with
      | true, (_ :: _ as ns) ->
          let i, _ = pick rng ns in
          set_cross rd i 0 (fun c -> { c with right = -1 - c.right })
      | _ -> edit_leaf (Xoshiro.int rng ~bound:count) (fun w -> -1 - w) rd)

let prop_validate_single_fault =
  QCheck.Test.make ~name:"validate = Int_set reference on one injected fault" ~count:600
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (seed, levels) ->
      let rng = Xoshiro.of_seed seed in
      let rd =
        Random_net.reverse_delta rng ~levels ~density:(0.3 +. (0.7 *. Xoshiro.float rng))
          ~swap_prob:0.2
      in
      let bad = inject rng rd in
      let expected = outcome (fun () -> reference_validate bad) in
      outcome (fun () -> Reverse_delta.validate rd) = None
      && expected <> None
      && outcome (fun () -> Reverse_delta.validate bad) = expected)

let () =
  Alcotest.run "topology"
    [ ( "reverse delta",
        [ Alcotest.test_case "validate wellformed" `Quick test_validate_accepts_wellformed;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "to_network time order" `Quick test_to_network_time_order;
          Alcotest.test_case "map_wires" `Quick test_map_wires ] );
      ( "butterfly",
        [ Alcotest.test_case "structure" `Quick test_butterfly_structure;
          Alcotest.test_case "level k touches bit k-1" `Quick test_butterfly_level_bits;
          Alcotest.test_case "delta direction merges bitonic" `Quick
            test_delta_butterfly_is_bitonic_merger ] );
      ( "shuffle decomposition",
        [ Alcotest.test_case "block_of_ops roundtrip" `Quick test_block_of_ops_roundtrip;
          Alcotest.test_case "forest partitions wires" `Quick test_forest_of_ops_partition;
          Alcotest.test_case "forest = Hashtbl reference" `Quick test_forest_matches_reference;
          Alcotest.test_case "chunk evaluation with glue" `Quick test_forest_chunk_evaluation;
          Alcotest.test_case "chunk_ops validation" `Quick test_chunk_ops_validation;
          Alcotest.test_case "full-block glue is identity" `Quick
            test_inter_chunk_perm_full_block_is_identity ] );
      ( "iterated",
        [ Alcotest.test_case "validation and depth" `Quick test_iterated_validation;
          Alcotest.test_case "inter-block permutation" `Quick test_iterated_with_permutation ] );
      ( "random",
        [ Alcotest.test_case "random reverse delta valid" `Quick test_random_reverse_delta_valid;
          Alcotest.test_case "random iterated valid" `Quick test_random_iterated_valid ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shuffle_block_equivalence;
            prop_to_network_random_trees;
            prop_to_network_shuffle_blocks;
            prop_validate_single_fault ] ) ]
