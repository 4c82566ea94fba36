(* Exact correctness (0-1 principle) and structural properties of every
   baseline sorting network. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pow2_sizes = [ 2; 4; 8; 16 ]
let general_sizes = [ 1; 2; 3; 5; 7; 12; 16 ]

let exact_cases =
  List.concat_map
    (fun e ->
      let sizes = if e.Sorter_registry.pow2_only then pow2_sizes else general_sizes in
      List.map
        (fun n ->
          Alcotest.test_case
            (Printf.sprintf "%s sorts all 0-1 inputs, n=%d" e.Sorter_registry.name n)
            `Quick
            (fun () ->
              let nw = e.Sorter_registry.build n in
              check_bool "0-1 exact" true (Zero_one.is_sorting_network nw)))
        sizes)
    Sorter_registry.all

let permutation_cases =
  List.map
    (fun e ->
      Alcotest.test_case
        (Printf.sprintf "%s sorts all permutations, n=6" e.Sorter_registry.name)
        `Quick
        (fun () ->
          let n = if e.Sorter_registry.pow2_only then 8 else 6 in
          check_bool "exhaustive perms" true
            (Exhaustive.sorts_all_permutations (e.Sorter_registry.build n));
          check_bool "constant output assignment" true
            (Exhaustive.constant_output_assignment (e.Sorter_registry.build n))))
    Sorter_registry.all

(* Every builder rejects a width it cannot build with [Invalid_argument]
   and nothing else: the CLI turns exactly that exception into a usage
   error (exit 2), so any other exception would surface as a crash. *)
let rejected_width_cases =
  List.map
    (fun e ->
      let name = e.Sorter_registry.name in
      let smallest = if e.Sorter_registry.pow2_only then 2 else 1 in
      let rejected =
        [ -1; smallest - 1 ] @ if e.Sorter_registry.pow2_only then [ 3; 6; 12 ] else []
      in
      Alcotest.test_case
        (Printf.sprintf "%s rejects n=%d with Invalid_argument" name (smallest - 1))
        `Quick
        (fun () ->
          List.iter
            (fun n ->
              match e.Sorter_registry.build n with
              | _ -> Alcotest.failf "%s built a network at n=%d" name n
              | exception Invalid_argument _ -> ())
            rejected;
          check_int
            (Printf.sprintf "%s builds n=%d" name smallest)
            smallest
            (Network.wires (e.Sorter_registry.build smallest))))
    Sorter_registry.all

let test_bitonic_depth_formula () =
  List.iter
    (fun n ->
      check_int (Printf.sprintf "n=%d" n)
        (Bitonic.depth_formula ~n)
        (Network.depth (Bitonic.network ~n)))
    [ 2; 4; 8; 16; 32; 64; 128 ]

let test_oem_size_formula () =
  List.iter
    (fun n ->
      check_int (Printf.sprintf "n=%d" n)
        (Odd_even_merge.size_formula ~n)
        (Network.size (Odd_even_merge.network ~n)))
    [ 4; 8; 16; 32; 64 ]

let test_oem_smaller_than_bitonic () =
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "n=%d" n) true
        (Network.size (Odd_even_merge.network ~n) < Network.size (Bitonic.network ~n)))
    [ 8; 16; 32; 64 ]

let test_bitonic_shuffle_equals_circuit () =
  let rng = Xoshiro.of_seed 77 in
  List.iter
    (fun n ->
      let prog = Bitonic.shuffle_program ~n in
      let circ = Bitonic.network ~n in
      check_int "stage count = lg^2 n"
        (let d = Bitops.log2_exact n in d * d)
        (Register_model.stage_count prog);
      check_int "comparator depth matches Batcher"
        (Bitonic.depth_formula ~n)
        (Register_model.depth prog);
      for _ = 1 to 30 do
        let input = Workload.random_permutation rng ~n in
        Alcotest.(check (array int)) "same result"
          (Network.eval circ input)
          (Register_model.eval prog input)
      done)
    [ 2; 4; 8; 16; 32 ]

let test_bitonic_as_iterated_structure () =
  let n = 32 in
  let it = Bitonic.as_iterated ~n in
  check_int "lg n blocks" 5 (Iterated.block_count it);
  check_int "lg n levels each" 5 (Iterated.levels_per_block it);
  check_bool "sorts" true (Zero_one.is_sorting_network (Iterated.to_network (Bitonic.as_iterated ~n:16)))

let test_pratt_increments () =
  Alcotest.(check (list int)) "3-smooth decreasing below 10"
    [ 9; 8; 6; 4; 3; 2; 1 ] (Pratt.increments ~n:10);
  (* all are of the form 2^p 3^q *)
  List.iter
    (fun h ->
      let rec strip d x = if x mod d = 0 then strip d (x / d) else x in
      check_int (Printf.sprintf "3-smooth %d" h) 1 (strip 3 (strip 2 h)))
    (Pratt.increments ~n:1000)

let test_pratt_depth_loglog () =
  (* depth = 2 * #increments ~ lg^2 n *)
  let d64 = Network.depth (Pratt.network ~n:64) in
  let d256 = Network.depth (Pratt.network ~n:256) in
  check_bool "grows superlinearly in lg n" true (d256 > d64);
  (* passes whose odd half is empty (large h) contribute one level *)
  check_bool "depth <= 2 * increments" true
    (d64 <= 2 * List.length (Pratt.increments ~n:64));
  check_bool "depth > increments" true
    (d64 > List.length (Pratt.increments ~n:64))

let test_periodic_block_structure () =
  let n = 16 in
  let b = Periodic.block ~n in
  check_int "lg n levels" 4 (List.length (Network.levels b));
  check_int "n/2 comparators per level" (4 * 8) (Network.size b);
  let full = Periodic.network ~n in
  check_int "lg n blocks" (4 * 4) (Network.depth full)

let test_transposition_depth () =
  List.iter
    (fun n -> check_int (Printf.sprintf "n=%d" n) n (List.length (Network.levels (Transposition.network ~n))))
    [ 1; 2; 5; 9; 16 ]

let test_insertion_depth () =
  List.iter
    (fun n ->
      check_int (Printf.sprintf "n=%d" n) (max 0 ((2 * n) - 3))
        (List.length (Network.levels (Insertion_net.network ~n))))
    [ 2; 3; 8; 13 ]

let test_registry_lookup () =
  check_bool "find bitonic" true (Sorter_registry.find "bitonic" <> None);
  check_bool "unknown" true (Sorter_registry.find "quicksort" = None);
  check_int "names count" (List.length Sorter_registry.all)
    (List.length Sorter_registry.names)

let prop_sorters_on_random_inputs =
  QCheck.Test.make ~name:"every sorter sorts random inputs (n=32/30)" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      List.for_all
        (fun e ->
          let n = if e.Sorter_registry.pow2_only then 32 else 30 in
          let nw = e.Sorter_registry.build n in
          let input = Workload.random_permutation rng ~n in
          Sortedness.is_sorted (Network.eval nw input))
        Sorter_registry.all)

let prop_sorters_with_duplicates =
  QCheck.Test.make ~name:"sorters handle duplicate keys" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      List.for_all
        (fun e ->
          let n = if e.Sorter_registry.pow2_only then 16 else 15 in
          let nw = e.Sorter_registry.build n in
          let input = Array.init n (fun _ -> Xoshiro.int rng ~bound:4) in
          Sortedness.is_sorted (Network.eval nw input))
        Sorter_registry.all)

let () =
  Alcotest.run "sorters"
    [ ("zero-one exact", exact_cases);
      ("exhaustive permutations", permutation_cases);
      ("rejected widths", rejected_width_cases);
      ( "structure",
        [ Alcotest.test_case "bitonic depth formula" `Quick test_bitonic_depth_formula;
          Alcotest.test_case "odd-even-merge size formula" `Quick test_oem_size_formula;
          Alcotest.test_case "oem smaller than bitonic" `Quick test_oem_smaller_than_bitonic;
          Alcotest.test_case "bitonic shuffle = circuit" `Quick test_bitonic_shuffle_equals_circuit;
          Alcotest.test_case "bitonic as iterated" `Quick test_bitonic_as_iterated_structure;
          Alcotest.test_case "pratt increments" `Quick test_pratt_increments;
          Alcotest.test_case "pratt depth" `Quick test_pratt_depth_loglog;
          Alcotest.test_case "periodic block" `Quick test_periodic_block_structure;
          Alcotest.test_case "transposition depth" `Quick test_transposition_depth;
          Alcotest.test_case "insertion depth" `Quick test_insertion_depth;
          Alcotest.test_case "registry" `Quick test_registry_lookup ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sorters_on_random_inputs; prop_sorters_with_duplicates ] ) ]
