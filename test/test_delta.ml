(* Tests for the delta-network dual and the Kruskal-Snir signature. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_flip_roundtrip () =
  let rng = Xoshiro.of_seed 9 in
  let rd = Random_net.reverse_delta rng ~levels:4 ~density:0.8 ~swap_prob:0.1 in
  let d = Delta_net.of_reverse_delta rd in
  check_bool "roundtrip" true (Delta_net.to_reverse_delta d == rd);
  check_int "levels" 4 (Delta_net.levels d);
  check_int "inputs" 16 (Delta_net.inputs d)

(* [Delta_net.to_network]'s contract written out: level k (1-based)
   holds the cross elements of recursion depth k-1, in walk order *)
let root_first ~wires rd =
  let gate (c : Reverse_delta.cross) =
    match c.kind with
    | Reverse_delta.Min_left -> Gate.Compare { lo = c.left; hi = c.right }
    | Reverse_delta.Min_right -> Gate.Compare { lo = c.right; hi = c.left }
    | Reverse_delta.Swap -> Gate.Exchange { a = c.left; b = c.right }
  in
  let by_depth = Array.make (Reverse_delta.levels rd) [] in
  let rec walk depth = function
    | Reverse_delta.Wire _ -> ()
    | Reverse_delta.Node { sub0; sub1; cross } ->
        by_depth.(depth) <- by_depth.(depth) @ List.map gate cross;
        walk (depth + 1) sub0;
        walk (depth + 1) sub1
  in
  walk 0 rd;
  Network.of_gate_levels ~wires (Array.to_list by_depth)

let test_delta_levels_reversed () =
  (* flattening a delta network = flattening the reverse delta with
     levels reversed, gate order included *)
  let rng = Xoshiro.of_seed 11 in
  for i = 0 to 449 do
    let levels = i mod 9 in
    let wires = 1 lsl levels in
    let rd = Random_net.reverse_delta rng ~levels ~density:0.7 ~swap_prob:0.2 in
    let fwd = Delta_net.to_network ~wires (Delta_net.of_reverse_delta rd) in
    let bwd = Reverse_delta.to_network ~wires rd in
    check_bool "root-first levels" true
      (Network.levels fwd = Network.levels (root_first ~wires rd));
    check_bool "mirrored levels" true
      (Network.levels fwd = List.rev (Network.levels bwd))
  done

let test_delta_butterfly_is_bitonic_merger () =
  let rng = Xoshiro.of_seed 13 in
  List.iter
    (fun levels ->
      let n = 1 lsl levels in
      let nw = Delta_net.to_network ~wires:n (Delta_net.butterfly ~levels) in
      for _ = 1 to 40 do
        let input = Workload.bitonic_input rng ~n in
        check_bool "merges" true (Sortedness.is_sorted (Network.eval nw input))
      done;
      (* agrees with the Butterfly module's own delta direction *)
      let reference = Butterfly.delta_network ~levels in
      for _ = 1 to 20 do
        let input = Workload.random_permutation rng ~n in
        Alcotest.(check (array int)) "same circuit"
          (Network.eval reference input) (Network.eval nw input)
      done)
    [ 1; 2; 3; 4; 5 ]

let test_butterfly_shape_signature () =
  (* Kruskal-Snir: the butterfly's full positional matching is what
     makes it simultaneously delta and reverse delta *)
  check_bool "butterfly has the shape" true
    (Delta_net.is_butterfly_shape (Butterfly.ascending ~levels:4));
  (* a shuffle block with any 0-op (missing pair) does not *)
  let rng = Xoshiro.of_seed 15 in
  let rec find_non_full tries =
    if tries = 0 then None
    else
      let rd = Random_net.reverse_delta rng ~levels:3 ~density:0.6 ~swap_prob:0.0 in
      if Delta_net.is_butterfly_shape rd then find_non_full (tries - 1) else Some rd
  in
  (match find_non_full 20 with
  | Some _ -> ()
  | None -> Alcotest.fail "density 0.6 should yield a non-butterfly shape");
  (* a full matching with a twist (non-positional) is not butterfly *)
  let twisted =
    Reverse_delta.Node
      { sub0 = Reverse_delta.Node { sub0 = Wire 0; sub1 = Wire 1; cross = [] };
        sub1 = Reverse_delta.Node { sub0 = Wire 2; sub1 = Wire 3; cross = [] };
        cross =
          [ { Reverse_delta.left = 0; right = 3; kind = Reverse_delta.Min_left };
            { Reverse_delta.left = 1; right = 2; kind = Reverse_delta.Min_left } ] }
  in
  check_bool "twisted matching is not butterfly" false
    (Delta_net.is_butterfly_shape twisted)

let test_all_plus_block_is_butterfly_shaped () =
  (* the shuffle-block parse of the all-plus program is exactly the
     butterfly, in reverse-delta clothing *)
  let n = 16 in
  let prog = Shuffle_net.all_plus_program ~n ~stages:4 in
  let opss = List.map (fun st -> st.Register_model.ops) (Register_model.stages prog) in
  let rd = Shuffle_net.block_of_ops ~n opss in
  check_bool "butterfly-shaped" true (Delta_net.is_butterfly_shape rd)

let () =
  Alcotest.run "delta"
    [ ( "delta networks",
        [ Alcotest.test_case "flip roundtrip" `Quick test_flip_roundtrip;
          Alcotest.test_case "levels mirrored" `Quick test_delta_levels_reversed;
          Alcotest.test_case "delta butterfly merges bitonic" `Quick
            test_delta_butterfly_is_bitonic_merger;
          Alcotest.test_case "Kruskal-Snir shape signature" `Quick
            test_butterfly_shape_signature;
          Alcotest.test_case "all-plus block is the butterfly" `Quick
            test_all_plus_block_is_butterfly_shaped ] ) ]
