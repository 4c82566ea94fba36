(* Tests for the exact-bounds search subsystem (lib/search): packed
   state arithmetic, the arena's subsumption against its brute-force
   definition, layer generation up to symmetry, and the BFS driver
   against both the known optimal depths and the subsumption-free
   reference search. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- State --- *)

let test_state_initial () =
  let st = State.initial ~n:4 in
  check_int "card" 16 (State.card st);
  check_bool "mem 0" true (State.mem st 0);
  check_bool "mem 15" true (State.mem st 15);
  check_bool "not sorted" false (State.is_sorted st);
  let st2 = State.initial ~n:2 in
  (* one ascending comparator sorts two wires: image {00, 01r.. } *)
  let st2' = State.apply_comparators st2 [ (0, 1) ] in
  check_int "n=2 sorted card" 3 (State.card st2');
  check_bool "n=2 sorted" true (State.is_sorted st2');
  check_bool "masks" true (State.masks st2' = [ 0b00; 0b10; 0b11 ])

let test_state_of_masks () =
  let st = State.of_masks ~n:4 [ 0b0011; 0b0101; 0b0011 ] in
  check_int "dups collapse" 2 (State.card st);
  check_bool "roundtrip" true (State.masks st = [ 0b0011; 0b0101 ]);
  let img = State.map_masks st (fun m -> m lxor 0b1111) in
  check_bool "map" true (State.masks img = [ 0b1010; 0b1100 ]);
  check_bool "subset" true
    (State.subset st (State.of_masks ~n:4 [ 0b0011; 0b0101; 0b1000 ]));
  check_bool "not subset" false
    (State.subset st (State.of_masks ~n:4 [ 0b0011 ]));
  check_bool "equal" true (State.equal st (State.of_masks ~n:4 [ 0b0101; 0b0011 ]));
  check_bool "invalid mask rejected" true
    (match State.of_masks ~n:4 [ 16 ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* the driver's redundant-move table: after an ascending (0,1) no
   mask has bit 0 set and bit 1 clear, so a comparator 0->1 placed
   there is dead; 1->0 and 2->3 can still exchange *)
let test_unordered_pairs () =
  let n = 4 in
  let st =
    State.of_masks ~n
      (List.filter (fun m -> m land 0b01 = 0 || m land 0b10 <> 0)
         (List.init 16 Fun.id))
  in
  let tbl = State.unordered_pairs st in
  check_bool "0->1 ordered" false (State.pair_unordered tbl ~n 0 1);
  check_bool "1->0 unordered" true (State.pair_unordered tbl ~n 1 0);
  check_bool "2->3 unordered" true (State.pair_unordered tbl ~n 2 3)

let test_state_subset_short_circuit () =
  (* n=7 states span multiple packed words; a violation found in the
     first word must answer false through the early-exit path even
     though every later word is a subset *)
  let n = 7 in
  let a = State.of_masks ~n [ 1; 100; 120 ] in
  let b = State.of_masks ~n [ 2; 100; 120 ] in
  check_bool "violation in word 0" false (State.subset a b);
  check_bool "reflexive" true (State.subset a a);
  check_bool "subset of full" true (State.subset a (State.initial ~n));
  check_bool "full not subset" false (State.subset (State.initial ~n) a);
  (* violation only in the last word: the scan must still find it *)
  let c = State.of_masks ~n [ 1; 100 ] in
  let d = State.of_masks ~n [ 1; 100; 127 ] in
  check_bool "late extra mask" false (State.subset d c)

let test_state_sorted_recognition () =
  (* exactly the n+1 sorted vectors: ones packed at the high wires *)
  let n = 5 in
  let sorted = List.init (n + 1) (fun k -> ((1 lsl k) - 1) lsl (n - k)) in
  check_bool "sorted set" true (State.is_sorted (State.of_masks ~n sorted));
  check_bool "unsorted vector" false
    (State.is_sorted (State.of_masks ~n (0b00001 :: sorted)))

(* --- Subsumption: [Arena.subsumes] on states committed to a fresh
   arena, held to its definition checked by brute force --- *)

let st4 = State.of_masks ~n:4

let permute_mask pi m =
  let img = ref 0 in
  for c = 0 to Array.length pi - 1 do
    if (m lsr c) land 1 = 1 then img := !img lor (1 lsl pi.(c))
  done;
  !img

(* some wire permutation carries every mask of [a] into [b]; every
   permutation preserves the per-popcount counts, so those refute
   first, and [a]'s masks are tried sparsest level of [b] first, where
   a wrong permutation most likely misses *)
let brute_subsumes a b =
  let n = State.n a in
  let counts st =
    let c = Array.make (n + 1) 0 in
    State.iter_masks
      (fun m ->
        let k = Bitops.popcount m in
        c.(k) <- c.(k) + 1)
      st;
    c
  in
  let cb = counts b in
  Array.for_all2 ( <= ) (counts a) cb
  &&
  let level m = cb.(Bitops.popcount m) in
  let ma = Array.of_list (State.masks a) in
  Array.stable_sort (fun x y -> compare (level x) (level y)) ma;
  let exception Found in
  match
    Exhaustive.iter_permutations n (fun pi ->
        if Array.for_all (fun m -> State.mem b (permute_mask pi m)) ma then
          raise Found)
  with
  | () -> false
  | exception Found -> true

let subsumes a b =
  let arena = Arena.create ~n:(State.n a) () in
  let row st =
    Arena.stage_state arena st;
    match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i
  in
  let ia = row a in
  Arena.subsumes arena ia (row b)

let test_subsume_permuted_positive () =
  (* {0011} maps to {0101} by the wire swap 1 <-> 2 *)
  let a = st4 [ 0b0011 ] and b = st4 [ 0b0101 ] in
  check_bool "a subsumes b" true (subsumes a b);
  check_bool "b subsumes a" true (subsumes b a);
  (* plain subset: identity permutation fast path *)
  check_bool "subset path" true (subsumes (st4 [ 0b0011 ]) (st4 [ 0b0011; 0b1000 ]))

let test_subsume_card_filter () =
  let a = st4 [ 0b0001; 0b0010 ] and b = st4 [ 0b0001 ] in
  check_bool "larger cannot subsume" false (subsumes a b)

let test_subsume_level_filter () =
  (* equal cardinality but level profiles differ: (1,2) vs (1,1) ones *)
  let a = st4 [ 0b0001; 0b0011 ] and b = st4 [ 0b0001; 0b0010 ] in
  check_bool "level filter refutes" false (subsumes a b)

let test_subsume_channel_filter () =
  (* same level profile (two level-2 vectors) but A's wire 0 lies in
     both vectors and no wire of B does: no candidate for wire 0 *)
  let a = st4 [ 0b0011; 0b0101 ] and b = st4 [ 0b0011; 0b1100 ] in
  check_bool "channel filter refutes" false (subsumes a b)

let test_subsume_backtracking_negative () =
  (* level-2 vectors are graph edges; a 6-cycle and two triangles have
     identical degree histograms (every filter passes) yet are not
     isomorphic, so only the exhaustive matching refutes this one *)
  let c6 =
    State.of_masks ~n:6
      [ 0b000011; 0b000110; 0b001100; 0b011000; 0b110000; 0b100001 ]
  and triangles =
    State.of_masks ~n:6
      [ 0b000011; 0b000110; 0b000101; 0b011000; 0b110000; 0b101000 ]
  in
  check_bool "C6 !~ 2xC3" false (subsumes c6 triangles);
  check_bool "2xC3 !~ C6" false (subsumes triangles c6)

let test_subsume_permutation_property =
  QCheck.Test.make ~name:"any permuted image subsumes both ways" ~count:200
    QCheck.(pair (int_range 3 6) int)
    (fun (n, seed) ->
      let rng = Xoshiro.of_seed seed in
      let pi = Perm.random rng n in
      let nmasks = 1 + Xoshiro.int rng ~bound:10 in
      let masks = List.init nmasks (fun _ -> Xoshiro.int rng ~bound:(1 lsl n)) in
      let image m =
        List.fold_left
          (fun acc w -> if (m lsr w) land 1 = 1 then acc lor (1 lsl Perm.apply pi w) else acc)
          0
          (List.init n Fun.id)
      in
      let a = State.of_masks ~n masks in
      let b = State.of_masks ~n (List.map image masks) in
      subsumes a b && subsumes b a)

(* --- Layers --- *)

let test_layer_counts () =
  check_int "n=4 all" 9 (List.length (Layers.all ~n:4));
  check_int "n=5 all" 25 (List.length (Layers.all ~n:5));
  check_int "n=6 all" 75 (List.length (Layers.all ~n:6));
  check_bool "first n=5" true (Layers.first ~n:5 = [ (0, 1); (2, 3) ]);
  check_int "n=4 second" 4 (List.length (Layers.second ~n:4));
  check_int "n=6 second" 9 (List.length (Layers.second ~n:6));
  List.iter
    (fun layer ->
      check_bool "second is a matching from all" true
        (List.mem layer (Layers.all ~n:6)))
    (Layers.second ~n:6)

(* The fold [Layers.second] replaced, kept as its oracle: a layer is
   its orbit's representative iff no image under the first layer's
   stabilizer (permute the pairs, flip within a pair) is smaller. *)
let reference_second ~n =
  let k = n / 2 in
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  let group =
    List.concat_map
      (fun sigma ->
        let sigma = Array.of_list sigma in
        List.init (1 lsl k) (fun flips ->
            Array.init n (fun c ->
                if c >= 2 * k then c
                else
                  let p = c / 2 and b = c land 1 in
                  (2 * sigma.(p)) + (b lxor ((flips lsr p) land 1)))))
      (perms (List.init k Fun.id))
  in
  let image g layer =
    List.sort compare
      (List.map
         (fun (i, j) ->
           let i' = g.(i) and j' = g.(j) in
           (min i' j', max i' j'))
         layer)
  in
  let canonical layer =
    List.fold_left
      (fun best g ->
        let img = image g layer in
        if compare img best < 0 then img else best)
      layer group
  in
  List.filter (fun l -> canonical l = l) (Layers.all ~n)

let test_second_orbits () =
  for n = 2 to 9 do
    check_bool
      (Printf.sprintf "n=%d: second = the group fold" n)
      true
      (Layers.second ~n = reference_second ~n)
  done

(* --- Driver --- *)

let optimal n =
  match Driver.optimal_depth ~n () with
  | Driver.Sorted { depth; moves; stats } -> (depth, moves, stats)
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.failf "n=%d: search did not return a witness" n

let test_known_optimal_depths () =
  List.iter
    (fun (n, want) ->
      let depth, moves, _ = optimal n in
      check_int (Printf.sprintf "n=%d optimal" n) want depth;
      check_int "witness length" want (List.length moves);
      check_bool "witness verifies" true (Driver.verify_witness ~n moves);
      check_int "network depth" want
        (Network.depth (Driver.witness_network ~n moves)))
    [ (2, 1); (3, 3); (4, 3); (5, 5); (6, 5) ]

let test_reference_agreement () =
  (* the subsumption-pruned search agrees with the equality-dedup
     reference, and at n=6 expands over 10x fewer nodes *)
  List.iter
    (fun n ->
      let depth, _, stats = optimal n in
      match Driver.optimal_depth ~restrict:false ~n () with
      | Driver.Sorted { depth = ref_depth; stats = ref_stats; _ } ->
          check_int (Printf.sprintf "n=%d reference depth" n) depth ref_depth;
          if n = 6 then
            check_bool
              (Printf.sprintf "pruning ratio %d/%d >= 10" ref_stats.Driver.nodes
                 stats.Driver.nodes)
              true
              (ref_stats.Driver.nodes >= 10 * stats.Driver.nodes)
      | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
          Alcotest.failf "n=%d: reference search failed" n)
    [ 2; 3; 4; 5; 6 ]

let test_redundant_hook_agreement () =
  (* the static-analysis move filter must not change any verdict: the
     same system with the hook disabled finds the same optimal depth,
     and the hook actually fires (skips are counted, never as nodes) *)
  List.iter
    (fun n ->
      let sys = Driver.network_system ~n () in
      let sys_off = { sys with Driver.redundant_of = Driver.no_redundant } in
      let depth_of = function
        | Driver.Sorted { depth; stats; _ } -> (depth, stats)
        | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
            Alcotest.failf "n=%d: search failed" n
      in
      let d_on, s_on = depth_of (Driver.run ~max_depth:n sys) in
      let d_off, s_off = depth_of (Driver.run ~max_depth:n sys_off) in
      check_int (Printf.sprintf "n=%d depth, hook on vs off" n) d_off d_on;
      check_int (Printf.sprintf "n=%d hook-off skips nothing" n) 0
        s_off.Driver.redundant;
      if n >= 5 then
        check_bool (Printf.sprintf "n=%d hook fires" n) true
          (s_on.Driver.redundant > 0);
      (* skipped moves are not applications: with the hook on, the
         search can only expand fewer or equal nodes *)
      check_bool (Printf.sprintf "n=%d hook never adds nodes" n) true
        (s_on.Driver.nodes <= s_off.Driver.nodes))
    [ 3; 4; 5; 6 ]

let test_unsorted_exhaustive () =
  match Driver.optimal_depth ~max_depth:4 ~n:5 () with
  | Driver.Unsorted stats ->
      check_int "all 4 levels completed" 4 stats.Driver.completed_levels
  | Driver.Sorted _ -> Alcotest.fail "no depth-4 network sorts n=5"
  | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.fail "must be decidable"

let test_budget_inconclusive () =
  match
    Driver.optimal_depth ~budget:{ Driver.max_nodes = 100; max_seconds = None }
      ~n:6 ()
  with
  | Driver.Inconclusive stats ->
      check_bool "some levels refuted" true (stats.Driver.completed_levels >= 1);
      check_bool "stopped early" true (stats.Driver.completed_levels < 5)
  | Driver.Sorted _ | Driver.Unsorted _ | Driver.Interrupted _ ->
      Alcotest.fail "100 nodes cannot certify n=6"

let test_wall_clock_budget () =
  (* the n=7 reference search needs minutes, so a 0.3 s wall budget
     must trip it — after roughly the same wall time whether 1 or 4
     domains expand.  The old CPU-summed budget (Sys.time across
     domains) tripped the 4-domain run ~4x early, well under the
     lower bound asserted here. *)
  let budget = { Driver.max_nodes = 1_000_000_000; max_seconds = Some 0.3 } in
  let run domains =
    let t0 = Clock.wall () in
    let outcome =
      Driver.optimal_depth ~domains ~budget ~restrict:false ~n:7 ()
    in
    let wall = Clock.wall () -. t0 in
    match outcome with
    | Driver.Inconclusive stats -> (wall, stats)
    | Driver.Sorted _ | Driver.Unsorted _ | Driver.Interrupted _ ->
        Alcotest.fail "0.3 s cannot decide the n=7 reference search"
  in
  let wall1, stats1 = run 1 in
  let wall4, stats4 = run 4 in
  List.iter
    (fun (domains, wall, stats) ->
      check_bool
        (Printf.sprintf "domains=%d ran up to the budget (%.3f s)" domains wall)
        true (wall > 0.25);
      check_bool
        (Printf.sprintf "domains=%d stopped within 2x the budget (%.3f s)"
           domains wall)
        true (wall < 0.6);
      check_bool "stats.elapsed is wall-clock" true
        (stats.Driver.elapsed <= wall +. 0.05);
      check_bool "cpu elapsed also reported" true
        (stats.Driver.elapsed_cpu >= 0.))
    [ (1, wall1, stats1); (4, wall4, stats4) ];
  check_bool "equal wall budgets complete comparable levels" true
    (abs (stats4.Driver.completed_levels - stats1.Driver.completed_levels) <= 1)

let test_multi_domain_agreement () =
  (* same optimum through the parallel expansion / filter path *)
  match Driver.optimal_depth ~domains:2 ~n:5 () with
  | Driver.Sorted { depth; moves; _ } ->
      check_int "n=5 at 2 domains" 5 depth;
      check_bool "witness verifies" true (Driver.verify_witness ~n:5 moves)
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.fail "n=5 must be certified at 2 domains"

(* --- canonical wire-permutation form (Scache's cache key) --- *)

let conjugate p nw =
  let levels =
    List.map
      (fun lvl ->
        { Network.pre = None;
          gates = List.map (Gate.map_wires (Perm.apply p)) lvl.Network.gates })
      (Network.levels nw)
  in
  Network.create ~wires:(Network.wires nw) levels

let reachable_masks nw =
  let n = Network.wires nw in
  List.sort_uniq compare
    (List.init (1 lsl n) (fun m ->
         let out = Network.eval nw (Array.init n (fun w -> (m lsr w) land 1)) in
         let r = ref 0 in
         Array.iteri (fun w v -> if v = 1 then r := !r lor (1 lsl w)) out;
         !r))

let rec all_perms = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (all_perms (List.filter (( <> ) x) xs)))
        xs

let canonical_of_state st =
  Scache.canonical_masks ~n:(State.n st) (Array.of_list (State.masks st))

let prop_canonical_masks_invariant =
  QCheck.Test.make ~name:"canonical_masks invariant under channel permutation"
    ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 6))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let card = 1 + Xoshiro.int rng ~bound:40 in
      let masks = List.init card (fun _ -> Xoshiro.int rng ~bound:(1 lsl n)) in
      let st = State.of_masks ~n masks in
      let pi = Perm.to_array (Perm.random rng n) in
      let img = State.map_masks st (permute_mask pi) in
      canonical_of_state st = canonical_of_state img)

(* the canonical form of a network's reachable set, swept here by
   [Network.eval], and the text [Scache.key] gives a standard network
   with that form *)
let canonical_of_net nw =
  Scache.canonical_masks ~n:(Network.wires nw) (Array.of_list (reachable_masks nw))

let canonical_key_text n canon =
  String.concat ":" (("c:" ^ string_of_int n) :: List.map string_of_int (Array.to_list canon))

let test_canonical_isomorphic () =
  (* conjugated networks (wires relabeled end to end) must collide,
     across widths and for both random circuits and the classics; a
     conjugate is rarely standard, so it is compared by its form *)
  let rng = Xoshiro.of_seed 7 in
  for _ = 1 to 30 do
    let n = 4 + Xoshiro.int rng ~bound:3 in
    let nlayers = 1 + Xoshiro.int rng ~bound:3 in
    let nw =
      Network.of_gate_levels ~wires:n
        (List.init nlayers (fun _ ->
             let order = Perm.to_array (Perm.random rng n) in
             let npairs = 1 + Xoshiro.int rng ~bound:(n / 2) in
             List.init npairs (fun i ->
                 Gate.compare_up order.(2 * i) order.((2 * i) + 1))))
    in
    let p = Perm.random rng n in
    let canon = canonical_of_net (conjugate p nw) in
    check_bool "conjugate collides" true (canonical_of_net nw = canon);
    check_bool "conjugate key collides" true
      (Scache.key nw = canonical_key_text n canon)
  done;
  (* every true sorter of one width has reachable set = the thresholds,
     so all of them share a single canonical entry (bitonic's
     descending comparators make it non-standard) *)
  let canon = canonical_of_net (Bitonic.network ~n:8) in
  check_bool "all n=8 sorters share the form" true
    (canonical_of_net (Odd_even_merge.network ~n:8) = canon);
  check_bool "all n=8 sorters share the key" true
    (Scache.key (Odd_even_merge.network ~n:8) = canonical_key_text 8 canon)

let test_canonical_exhaustive_n4 () =
  (* ground truth by brute force over all 4! wire permutations: the
     key must collide exactly on reachable-set-isomorphic networks *)
  let n = 4 in
  let pairs =
    List.concat_map
      (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
      (List.init n Fun.id)
  in
  let nets =
    List.map (fun p -> [ [ p ] ]) pairs
    @ List.concat_map
        (fun p1 -> List.map (fun p2 -> [ [ p1 ]; [ p2 ] ]) pairs)
        pairs
  in
  let nets =
    List.map
      (fun layers ->
        Network.of_gate_levels ~wires:n
          (List.map (List.map (fun (a, b) -> Gate.compare_up a b)) layers))
      nets
  in
  let perms = List.map Array.of_list (all_perms [ 0; 1; 2; 3 ]) in
  let data =
    List.map (fun nw -> (reachable_masks nw, Scache.key nw)) nets
  in
  let iso ra rb =
    List.exists
      (fun pi -> List.sort compare (List.map (permute_mask pi) ra) = rb)
      perms
  in
  List.iter
    (fun (ra, ha) ->
      List.iter
        (fun (rb, hb) ->
          check_bool "key collides exactly on isomorphs" (iso ra rb) (ha = hb))
        data)
    data

(* --- Arena: the packed frontier must be decision-identical to the
   boxed State reference and the brute-force subsumption --- *)

let random_layer rng n =
  let order = Perm.to_array (Perm.random rng n) in
  let npairs = 1 + Xoshiro.int rng ~bound:(n / 2) in
  List.sort compare
    (List.init npairs (fun k ->
         let a = order.(2 * k) and b = order.((2 * k) + 1) in
         (min a b, max a b)))

(* grow a random frontier, committing every child into [arena] and
   mirroring it in a reference list of (state, arena index) pairs *)
let random_frontier rng arena n steps =
  let states = ref [] in
  Arena.stage_state arena (State.initial ~n);
  (match Arena.commit arena ~level:0 with
  | `Fresh idx -> states := [ (State.initial ~n, idx) ]
  | `Dup _ -> Alcotest.fail "initial state cannot be a duplicate");
  let ok = ref true in
  for _ = 1 to steps do
    let st, idx =
      List.nth !states (Xoshiro.int rng ~bound:(List.length !states))
    in
    let layer = random_layer rng n in
    let st' = State.apply_comparators st layer in
    Arena.stage_child arena ~parent:idx layer;
    ok := !ok && Arena.staged_is_sorted arena = State.is_sorted st';
    match Arena.commit arena ~level:1 with
    | `Fresh idx' ->
        ok := !ok && State.equal (Arena.to_state arena idx') st';
        states := (st', idx') :: !states
    | `Dup idx' -> ok := !ok && State.equal (Arena.to_state arena idx') st'
  done;
  (!ok, !states)

let prop_arena_dedup_agrees =
  QCheck.Test.make
    ~name:"arena open-addressing dedup = Hashtbl dedup (n=4..8)" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let seen = Hashtbl.create 64 in
      let states = ref [ State.initial ~n ] in
      Hashtbl.replace seen (State.key (State.initial ~n)) (State.initial ~n);
      Arena.stage_state arena (State.initial ~n);
      let ok = ref (Arena.commit arena ~level:0 = `Fresh 0) in
      for _ = 1 to 150 do
        let st =
          List.nth !states (Xoshiro.int rng ~bound:(List.length !states))
        in
        let st' = State.apply_comparators st (random_layer rng n) in
        let key = State.key st' in
        let fresh_ref = not (Hashtbl.mem seen key) in
        Arena.stage_state arena st';
        (match Arena.commit arena ~level:1 with
        | `Fresh idx ->
            ok :=
              !ok && fresh_ref && State.equal (Arena.to_state arena idx) st';
            Hashtbl.replace seen key st';
            states := st' :: !states
        | `Dup idx ->
            ok :=
              !ok && (not fresh_ref)
              && State.equal (Arena.to_state arena idx) st');
        ok := !ok && Arena.length arena = Hashtbl.length seen
      done;
      (* identical survivor sets, and (spot-checked — canonical_masks
         enumerates permutations) identical canonical forms *)
      let arena_survivors =
        List.init (Arena.length arena) (fun i -> Arena.to_state arena i)
      in
      let arena_keys = List.sort compare (List.map State.key arena_survivors) in
      let ref_keys =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) seen [])
      in
      !ok && arena_keys = ref_keys
      && List.for_all
           (fun st ->
             canonical_of_state st
             = canonical_of_state (Hashtbl.find seen (State.key st)))
           (List.filteri (fun i _ -> i < 3) arena_survivors))

let prop_arena_stage_directed =
  QCheck.Test.make
    ~name:"Arena.stage_child perm + directed comparators = per-mask reference (n=2..10)"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let masks =
        List.init
          (1 + Xoshiro.int rng ~bound:64)
          (fun _ -> Xoshiro.int rng ~bound:(1 lsl n))
      in
      let st = State.of_masks ~n masks in
      let perm = Perm.to_array (Perm.random rng n) in
      (* a random layer with each pair's direction drawn at random *)
      let pairs =
        List.map
          (fun (i, j) -> if Xoshiro.int rng ~bound:2 = 0 then (i, j) else (j, i))
          (random_layer rng n)
      in
      let moved m =
        let acc = ref 0 in
        for c = 0 to n - 1 do
          if (m lsr c) land 1 = 1 then acc := !acc lor (1 lsl perm.(c))
        done;
        !acc
      in
      let reference = State.apply_comparators (State.map_masks st moved) pairs in
      let arena = Arena.create ~with_sigs:false ~n () in
      Arena.stage_state arena st;
      let parent = match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i in
      Arena.stage_child arena ~perm ~parent pairs;
      let with_perm = State.equal (Arena.staged_state arena) reference in
      Arena.stage_child arena ~parent pairs;
      with_perm
      && State.equal (Arena.staged_state arena) (State.apply_comparators st pairs))

let prop_arena_subsumes_parity =
  QCheck.Test.make
    ~name:"Arena.subsumes = brute-force subsumption on random frontiers (n=4..8)"
    ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let ok, states = random_frontier rng arena n 80 in
      let arr = Array.of_list states in
      let m = Array.length arr in
      ok
      && List.for_all
           (fun _ ->
             let sa, ia = arr.(Xoshiro.int rng ~bound:m)
             and sb, ib = arr.(Xoshiro.int rng ~bound:m) in
             Arena.subsumes arena ia ib = brute_subsumes sa sb)
           (List.init 250 Fun.id))

let prop_arena_subsumes_perm =
  QCheck.Test.make
    ~name:"Arena.subsumes_perm: a permutation carrying a into b, None iff brute force refutes (n=4..8)"
    ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let ok, states = random_frontier rng arena n 80 in
      let arr = Array.of_list states in
      let m = Array.length arr in
      let witnessed sa sb = function
        | Some pi ->
            List.sort compare (Array.to_list pi) = List.init n Fun.id
            && State.for_all_masks (fun x -> State.mem sb (permute_mask pi x)) sa
        | None -> not (brute_subsumes sa sb)
      in
      ok
      && List.for_all
           (fun _ ->
             let sa, ia = arr.(Xoshiro.int rng ~bound:m)
             and sb, ib = arr.(Xoshiro.int rng ~bound:m) in
             (* and a relabeled copy of [sa], which unless the
                relabeling fixes [sa] needs a non-identity witness *)
             let perm = Perm.to_array (Perm.random rng n) in
             Arena.stage_child arena ~perm ~parent:ia [];
             let ic = match Arena.commit arena ~level:1 with `Fresh i | `Dup i -> i in
             let to_copy = Arena.subsumes_perm arena ia ic in
             witnessed sa sb (Arena.subsumes_perm arena ia ib)
             && to_copy <> None
             && witnessed sa (State.map_masks sa (permute_mask perm)) to_copy)
           (List.init 250 Fun.id))

(* The arena's permutation search without its profile pruning (no
   degree check, no forward checking): channel c may map to any channel
   c' of [b] whose ones and zeros counts dominate c's at every level;
   channels are taken by fewest candidates (ties by index), images in
   ascending order, and every full permutation is tested on the whole
   state. [None] when it finds no witness, [Some pi] with the first one
   otherwise, and [Some identity] when [a] is a subset of [b]. The
   pruning may only skip permutations that fail, so
   [Arena.subsumes_perm] must return this very permutation. *)
let reference_subsumes_perm a b =
  let n = State.n a in
  let counts st keep =
    let k = Array.make (n + 1) 0 in
    State.iter_masks
      (fun m ->
        let l = Bitops.popcount m in
        if keep m then k.(l) <- k.(l) + 1)
      st;
    k
  in
  let le x y = Array.for_all2 ( <= ) x y in
  let bit c v m = (m lsr c) land 1 = v in
  let all _ = true in
  if State.card a > State.card b || not (le (counts a all) (counts b all)) then None
  else if State.subset a b then Some (Array.init n Fun.id)
  else begin
    let cand =
      Array.init n (fun c ->
          let m = ref 0 in
          for c' = 0 to n - 1 do
            if
              le (counts a (bit c 1)) (counts b (bit c' 1))
              && le (counts a (bit c 0)) (counts b (bit c' 0))
            then m := !m lor (1 lsl c')
          done;
          !m)
    in
    if Array.exists (( = ) 0) cand || Array.fold_left ( lor ) 0 cand <> (1 lsl n) - 1
    then None
    else begin
      let order =
        List.stable_sort
          (fun x y -> compare (Bitops.popcount cand.(x)) (Bitops.popcount cand.(y)))
          (List.init n Fun.id)
      in
      let pi = Array.make n 0 in
      let rec assign used = function
        | [] -> State.for_all_masks (fun x -> State.mem b (permute_mask pi x)) a
        | c :: rest ->
            List.exists
              (fun c' ->
                (cand.(c) lsr c') land 1 = 1
                && used land (1 lsl c') = 0
                && begin
                     pi.(c) <- c';
                     assign (used lor (1 lsl c')) rest
                   end)
              (List.init n Fun.id)
      in
      if assign 0 order then Some (Array.copy pi) else None
    end
  end

let prop_arena_witness_identity =
  QCheck.Test.make
    ~name:"Arena.subsumes_perm = the unpruned search's first witness (n=4..10)"
    ~count:28
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 10))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let ok, states = random_frontier rng arena n 60 in
      let arr = Array.of_list states in
      let m = Array.length arr in
      let commit st =
        Arena.stage_state arena st;
        match Arena.commit arena ~level:1 with `Fresh i | `Dup i -> i
      in
      let agrees sa ia sb ib =
        let want = reference_subsumes_perm sa sb in
        Arena.subsumes_perm arena ia ib = want
        && Arena.subsumes arena ia ib = (want <> None)
      in
      ok
      && List.for_all
           (fun _ ->
             let sa, ia = arr.(Xoshiro.int rng ~bound:m)
             and sb, ib = arr.(Xoshiro.int rng ~bound:m) in
             (* and a relabeled copy of [sa] with a few masks added, which
                [sa] subsumes, often through several permutations *)
             let perm = Perm.to_array (Perm.random rng n) in
             let extra =
               List.init (Xoshiro.int rng ~bound:4) (fun _ ->
                   Xoshiro.int rng ~bound:(1 lsl n))
             in
             let sc =
               State.of_masks ~n (extra @ List.map (permute_mask perm) (State.masks sa))
             in
             let ic = commit sc in
             agrees sa ia sb ib && agrees sa ia sc ic
             && Arena.subsumes_perm arena ia ic <> None)
           (List.init 60 Fun.id))

(* Outcomes recorded when a second, boxed search engine still
   cross-checked this one decision for decision: the depth, every
   decision counter and the frontier sizes of [optimal_depth ~n] must
   not move. Since the filter drops the rows it rejects, a child equal
   to one of them counts as subsumed, not deduped: n=7 moved from
   362 / 2273 and n=8 from 680 / 5328, sums unchanged. *)
let test_pinned_optimal_depths () =
  List.iter
    (fun (n, want, (nodes, deduped, subsumed, redundant, peak), sizes) ->
      let what = Printf.sprintf "n=%d" n in
      match Driver.optimal_depth ~n () with
      | Driver.Sorted { depth; moves; stats = s } ->
          check_int (what ^ ": depth") want depth;
          check_bool (what ^ ": witness verifies") true
            (Driver.verify_witness ~n moves);
          check_int (what ^ ": nodes") nodes s.Driver.nodes;
          check_int (what ^ ": pruned") 0 s.Driver.pruned;
          check_int (what ^ ": deduped") deduped s.Driver.deduped;
          check_int (what ^ ": subsumed") subsumed s.Driver.subsumed;
          check_int (what ^ ": redundant") redundant s.Driver.redundant;
          check_int (what ^ ": peak frontier") peak s.Driver.peak_frontier;
          check_bool (what ^ ": frontier sizes") true
            (s.Driver.frontier_sizes = sizes)
      | _ -> Alcotest.failf "%s must certify the optimum" what)
    [ (4, 3, (6, 2, 1, 8, 1), [ 1; 1 ]);
      (5, 5, (46, 7, 28, 162, 5), [ 1; 2; 5; 2 ]);
      (6, 5, (165, 17, 136, 520, 5), [ 1; 3; 5; 2 ]);
      (7, 6, (2707, 359, 2276, 12557, 39), [ 1; 3; 39; 23; 3 ]);
      (8, 6, (6075, 675, 5333, 39725, 29), [ 1; 4; 29; 26; 4 ]) ];
  (* the equality-dedup (unrestricted) system, witness included *)
  match Driver.optimal_depth ~restrict:false ~n:4 () with
  | Driver.Sorted { depth; moves; stats = s } ->
      check_int "unrestricted depth" 3 depth;
      check_bool "unrestricted witness" true
        (moves = [ [ (0, 1); (2, 3) ]; [ (0, 2); (1, 3) ]; [ (1, 2) ] ]);
      check_int "unrestricted nodes" 46 s.Driver.nodes;
      check_int "unrestricted deduped" 3 s.Driver.deduped;
      check_int "unrestricted subsumed" 0 s.Driver.subsumed;
      check_bool "unrestricted frontier sizes" true
        (s.Driver.frontier_sizes = [ 1; 6 ])
  | _ -> Alcotest.fail "n=4 unrestricted must certify the optimum"

(* --- Arena across domain counts: the parallel signature pass and
   subsumption filter must not change a single decision --- *)

let prop_arena_subsumes_other_domain =
  QCheck.Test.make
    ~name:"Arena.subsumes_with on a second domain = own scratch = brute force"
    ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let ok, states = random_frontier rng arena n 80 in
      let arr = Array.of_list states in
      let m = Array.length arr in
      let pairs =
        Array.init 250 (fun _ ->
            (Xoshiro.int rng ~bound:m, Xoshiro.int rng ~bound:m))
      in
      let test sub = Array.map (fun (i, j) -> sub (snd arr.(i)) (snd arr.(j))) pairs in
      (* the second domain runs while this one uses the arena's own
         scratch on the same rows *)
      let sc = Arena.scratch arena in
      let remote = Domain.spawn (fun () -> test (Arena.subsumes_with arena sc)) in
      let own = test (Arena.subsumes arena) in
      let remote = Domain.join remote in
      let reference =
        Array.map (fun (i, j) -> brute_subsumes (fst arr.(i)) (fst arr.(j))) pairs
      in
      ok && remote = own && own = reference)

let test_arena_unsigned_rows_refused () =
  let n = 5 in
  let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let arena = Arena.create ~n () in
  Arena.stage_state arena (State.initial ~n);
  ignore (Arena.commit arena ~level:0);
  Arena.stage_child arena ~parent:0 [ (0, 1); (2, 3) ];
  let child =
    match Arena.commit_unsigned arena ~level:1 with
    | `Fresh idx -> idx
    | `Dup _ -> Alcotest.fail "the child differs from the initial state"
  in
  check_bool "unsigned row refused" true
    (refused (fun () -> Arena.subsumes arena child 0));
  check_bool "unsigned row refused on a private scratch" true
    (refused (fun () -> Arena.subsumes_with arena (Arena.scratch arena) 0 child));
  check_bool "sign_pending needs a scratch" true
    (refused (fun () -> Arena.sign_pending arena [||]));
  Arena.sign_pending arena [| Arena.scratch arena; Arena.scratch arena |];
  check_bool "signed child subsumes the initial state" true
    (Arena.subsumes arena child 0);
  check_bool "dropped rows are refused" true
    (Arena.retain arena ~prefix:1 [||];
     refused (fun () -> Arena.subsumes arena 0 child));
  (* an arena without signatures never signs a row *)
  let plain = Arena.create ~with_sigs:false ~n () in
  Arena.stage_state plain (State.initial ~n);
  ignore (Arena.commit plain ~level:0);
  Arena.sign_pending plain [| Arena.scratch plain |];
  check_bool "no signatures, no subsumption" true
    (refused (fun () -> Arena.subsumes plain 0 0))

(* Dropping rows: the kept rows keep their masks, card, key, dedup
   hits and subsumes answers under their new numbers; the dropped rows
   are gone from the dedup table and past the arena's end; an unsigned
   row stays unsigned. *)
let prop_arena_retain =
  QCheck.Test.make
    ~name:"Arena.retain keeps rows, keys, dedup and subsumes; drops the rest (n=4..8)"
    ~count:30
    QCheck.(pair (int_range 0 1_000_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Xoshiro.of_seed seed in
      let arena = Arena.create ~n () in
      let ok, _ = random_frontier rng arena n 60 in
      (* a few unsigned rows at the end *)
      let parent = Xoshiro.int rng ~bound:(Arena.length arena) in
      for _ = 1 to 5 do
        Arena.stage_child arena ~parent (random_layer rng n);
        ignore (Arena.commit_unsigned arena ~level:2)
      done;
      let len = Arena.length arena in
      let prefix = Xoshiro.int rng ~bound:(len + 1) in
      let rows =
        Array.of_list
          (List.filter
             (fun _ -> Xoshiro.int rng ~bound:3 > 0)
             (List.init (len - prefix) (fun i -> prefix + i)))
      in
      let kept = Array.append (Array.init prefix Fun.id) rows in
      let signed r =
        match Arena.subsumes arena r r with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      let key r =
        let k = Array.make (Arena.key_words arena) 0 in
        if signed r then Arena.blit_key arena r k 0;
        k
      in
      let snapshot r = (Arena.to_state arena r, Arena.card arena r, signed r, key r) in
      (* row [kept.(i)] becomes row [i] *)
      let answers rows =
        Array.map
          (fun a ->
            Array.map
              (fun b ->
                match Arena.subsumes arena a b with
                | v -> Some v
                | exception Invalid_argument _ -> None)
              rows)
          rows
      in
      let before = Array.map snapshot kept and subsumes_before = answers kept in
      let dropped =
        List.filter_map
          (fun r -> if Array.mem r kept then None else Some (Arena.to_state arena r))
          (List.init len Fun.id)
      in
      Arena.retain arena ~prefix rows;
      let m = Array.length kept in
      let same =
        Arena.length arena = m
        && Array.for_all2
             (fun (st, card, sg, k) (st', card', sg', k') ->
               State.equal st st' && card = card' && sg = sg' && k = k')
             before
             (Array.init m snapshot)
        && answers (Array.init m Fun.id) = subsumes_before
      in
      let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
      let past_end = refused (fun () -> Arena.subsumes arena 0 m) in
      let dedup_kept =
        Array.for_all
          (fun i ->
            let st, _, _, _ = before.(i) in
            Arena.stage_state arena st;
            Arena.commit_unsigned arena ~level:3 = `Dup i)
          (Array.init m Fun.id)
      in
      let dedup_dropped =
        List.for_all
          (fun st ->
            Arena.stage_state arena st;
            match Arena.commit_unsigned arena ~level:3 with
            | `Fresh i -> i >= m
            | `Dup _ -> false)
          dropped
      in
      ok && same && past_end && dedup_kept && dedup_dropped)

let test_arena_signatures_stop_at_10 () =
  let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "n=11 with signatures refused" true
    (refused (fun () -> Arena.create ~n:11 ()));
  check_bool "n=16 with signatures refused" true
    (refused (fun () -> Arena.create ~with_sigs:true ~n:16 ()));
  check_bool "n=10 with signatures" false (refused (fun () -> Arena.create ~n:10 ()));
  check_bool "n=16 without signatures" false
    (refused (fun () -> Arena.create ~with_sigs:false ~n:16 ()))

(* outcome, witness and stats without the elapsed times *)
let outcome_key o =
  let key (s : Driver.stats) =
    ( ( s.Driver.nodes,
        s.Driver.pruned,
        s.Driver.deduped,
        s.Driver.subsumed,
        s.Driver.redundant ),
      (s.Driver.frontier_sizes, s.Driver.peak_frontier, s.Driver.completed_levels) )
  in
  match o with
  | Driver.Sorted { depth; moves; stats } -> (`Sorted (depth, moves), key stats)
  | Driver.Unsorted s -> (`Unsorted, key s)
  | Driver.Inconclusive s -> (`Inconclusive, key s)
  | Driver.Interrupted s -> (`Interrupted, key s)

(* one arena run with a frontier log and a memory sink: the outcome
   key, the log as (level, state keys) and the most domains any level's
   filter used *)
let logged_run ?budget ?checkpoint ?resume ?cancel ?on_level ~domains
    ~max_depth sys =
  let log = ref [] in
  let frontier_log ~level states =
    log := (level, List.map State.key states) :: !log
  in
  let sink, events = Sink.memory () in
  let o =
    Driver.run ~domains ?budget ?checkpoint ?resume ?cancel
      ?on_level ~sink ~frontier_log ~max_depth sys
  in
  let filter_domains =
    List.fold_left
      (fun acc e ->
        match List.assoc_opt "filter_domains" e.Sink.fields with
        | Some (Sink.Int d) when e.Sink.name = "search/level" -> max acc d
        | _ -> acc)
      0 (events ())
  in
  (outcome_key o, List.rev !log, filter_domains)

let test_arena_domain_identity () =
  let parallel = ref false in
  List.iter
    (fun n ->
      let sys = Driver.network_system ~n () in
      let key1, log1, fd1 = logged_run ~domains:1 ~max_depth:n sys in
      check_bool (Printf.sprintf "n=%d: one domain filters alone" n) true (fd1 <= 1);
      List.iter
        (fun domains ->
          let what = Printf.sprintf "n=%d domains=%d" n domains in
          let key, log, fd = logged_run ~domains ~max_depth:n sys in
          check_bool (what ^ ": outcome, witness and stats") true (key = key1);
          check_bool (what ^ ": frontier log") true (log = log1);
          check_bool (what ^ ": filter_domains <= domains") true (fd <= domains);
          if fd > 1 then parallel := true)
        [ 2; 3 ])
    [ 6; 7; 8 ];
  check_bool "some level filtered on more than one domain" true !parallel

let test_filter_hit_counts () =
  (* the filter's counts over the scans that ended on a subsumer are
     parts of its totals and repeat at every domain count, like them *)
  let counts ~domains =
    let sink, events = Sink.memory () in
    ignore (Driver.run ~domains ~sink ~max_depth:8 (Driver.network_system ~n:8 ()));
    List.filter_map
      (fun e ->
        let int k =
          match List.assoc_opt k e.Sink.fields with Some (Sink.Int v) -> v | _ -> -1
        in
        if e.Sink.name <> "search/level" then None
        else
          Some
            ( List.map int
                [ "filter_scanned"; "filter_calls"; "filter_hit_scanned";
                  "filter_hit_calls" ],
              int "filter_domains" ))
      (events ())
  in
  let one = counts ~domains:1 and two = counts ~domains:2 in
  check_bool "counts repeat at 1 and 2 domains" true (List.map fst one = List.map fst two);
  check_bool "a level filtered on 2 domains" true (List.exists (fun (_, d) -> d > 1) two);
  List.iter
    (function
      | [ scanned; calls; hit_scanned; hit_calls ], _ ->
          check_bool "hit scans within the scans" true
            (0 <= hit_scanned && hit_scanned <= scanned);
          check_bool "hit calls within the calls" true
            (0 <= hit_calls && hit_calls <= calls && hit_calls <= hit_scanned)
      | _ -> Alcotest.fail "four counts per level")
    one;
  check_bool "some scan ended on a subsumer, and some did not" true
    (List.exists
       (function
         | [ scanned; _; hit_scanned; _ ], _ -> 0 < hit_scanned && hit_scanned < scanned
         | _ -> false)
       one)

let test_arena_domain_identity_budget () =
  (* n=8 spends 4832 nodes on levels 1-4 and 1240 on level 5: this
     budget trips in level 5, after the parallel level 4 *)
  let sys = Driver.network_system ~n:8 () in
  let budget = { Driver.max_nodes = 5000; max_seconds = None } in
  let key1, log1, _ = logged_run ~budget ~domains:1 ~max_depth:8 sys in
  (match fst key1 with
  | `Inconclusive -> ()
  | _ -> Alcotest.fail "the budget must trip");
  List.iter
    (fun domains ->
      let key, log, fd = logged_run ~budget ~domains ~max_depth:8 sys in
      check_bool "budget trip: outcome and stats" true (key = key1);
      check_bool "budget trip: frontier log" true (log = log1);
      check_bool "budget trip: a level filtered in parallel" true (fd > 1))
    [ 2; 3 ]

let test_arena_checkpoint_across_domains () =
  (* cut at the level-3 boundary on one domain, finish on two *)
  let n = 8 in
  let sys = Driver.network_system ~n () in
  let key1, log1, _ = logged_run ~domains:1 ~max_depth:n sys in
  let path = Filename.temp_file "snlb-arena" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Atomic_file.backup_path path ])
  @@ fun () ->
  let cancel = Cancel.create () in
  let on_level ~level ~frontier:_ _ = if level = 3 then Cancel.cancel cancel in
  (match logged_run ~checkpoint:(path, 0.) ~cancel ~on_level ~domains:1 ~max_depth:n sys with
  | (`Interrupted, _), _, _ -> ()
  | _ -> Alcotest.fail "the cancelled run must stop at the level-3 boundary");
  let resumes = Metrics.counter "checkpoint.resumes" in
  let before = Metrics.value resumes in
  let key, log, fd =
    logged_run ~checkpoint:(path, 0.) ~resume:true ~domains:2 ~max_depth:n sys
  in
  check_int "resume succeeded" (before + 1) (Metrics.value resumes);
  check_bool "resumed at 2 domains: outcome and stats" true (key = key1);
  check_bool "resumed at 2 domains: levels 4+ of the log" true
    (log = List.filter (fun (l, _) -> l > 3) log1);
  check_bool "resumed run filtered in parallel" true (fd > 1)

(* Hex MD5 of a logged frontier: each state's key words in decimal,
   a comma after each word and a semicolon after each state. *)
let frontier_digest keys =
  let b = Buffer.create 4096 in
  List.iter
    (fun key ->
      Array.iter
        (fun w ->
          Buffer.add_string b (string_of_int w);
          Buffer.add_char b ',')
        key;
      Buffer.add_char b ';')
    keys;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* n = 10 through level 3: 23,886 children, the first 19,092 fresh ones
   filtered as one chunk after the fifth of the six level-2 parents and
   the rest after the sixth; the budget trips early in level 4. *)
let n10_budget = { Driver.max_nodes = 30_000; max_seconds = None }

(* the level-3 frontier (2314 states) and the counts, except the
   deduped / subsumed split, recorded when the filter still ran once
   over the whole level (deduped 816, subsumed 20785: the same sum) *)
let n10_level3_digest = "c1669b4d96f3598b918237034cdb232f"

let n10_key =
  (`Inconclusive, ((30817, 0, 447, 21154, 56289), ([ 1; 6; 2314 ], 2314, 3)))

let n10_level3_logged log =
  match log with
  | [ (3, keys) ] -> frontier_digest keys = n10_level3_digest
  | _ -> false

let test_chunked_level () =
  let sys = Driver.network_system ~n:10 () in
  let run domains =
    let sink, events = Sink.memory () in
    let log = ref [] in
    let frontier_log ~level states =
      log := (level, List.map State.key states) :: !log
    in
    let o =
      Driver.run ~domains ~budget:n10_budget ~sink ~frontier_log ~max_depth:6 sys
    in
    let chunks =
      List.filter_map
        (fun (e : Sink.event) ->
          match (e.name, List.assoc_opt "level" e.fields) with
          | "search/chunk", Some (Sink.Int 3) -> List.assoc_opt "candidates" e.fields
          | _ -> None)
        (events ())
    in
    (outcome_key o, List.rev !log, chunks)
  in
  let key1, log1, chunks1 = run 1 in
  check_bool "n=10 level 3 ran in two chunks" true
    (chunks1 = [ Sink.Int 19092; Sink.Int 4352 ]);
  check_bool "level-3 frontier = the whole-level filter's" true
    (n10_level3_logged (List.filter (fun (l, _) -> l = 3) log1));
  check_bool "outcome and counts" true (key1 = n10_key);
  let key2, log2, chunks2 = run 2 in
  check_bool "2 domains: outcome and counts" true (key2 = key1);
  check_bool "2 domains: frontier log" true (log2 = log1);
  check_bool "2 domains: chunks" true (chunks2 = chunks1)

(* A run cancelled in level 3 after its first chunk was filtered rolls
   the chunk's rows and reps back before its boundary snapshot is
   written (the interval keeps it from being written earlier), and
   resumes to the uninterrupted run. *)
let test_chunk_cancel_resume () =
  let sys = Driver.network_system ~n:10 () in
  let path = Filename.temp_file "snlb-chunk" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Atomic_file.backup_path path ])
  @@ fun () ->
  let cancel = Cancel.create () and parents = ref 0 in
  (* the hook runs once per expanded parent; the sixth level-3 parent
     comes after the first chunk *)
  let cancelling =
    { sys with
      Driver.redundant_of =
        (fun ~level st ->
          if level = 3 then begin
            incr parents;
            if !parents = 6 then Cancel.cancel cancel
          end;
          sys.Driver.redundant_of ~level st) }
  in
  let sink, events = Sink.memory () in
  (match
     Driver.run ~budget:n10_budget ~sink ~checkpoint:(path, 3600.) ~cancel
       ~max_depth:6 cancelling
   with
  | Driver.Interrupted s -> check_int "levels 1-2 completed" 2 s.Driver.completed_levels
  | _ -> Alcotest.fail "the cancelled run must stop in level 3");
  check_int "one chunk filtered before the cancel" 1
    (List.length
       (List.filter
          (fun (e : Sink.event) ->
            e.name = "search/chunk" && List.assoc_opt "level" e.fields = Some (Sink.Int 3))
          (events ())));
  let resumes = Metrics.counter "checkpoint.resumes" in
  let before = Metrics.value resumes in
  let key, log, _ =
    logged_run ~budget:n10_budget ~checkpoint:(path, 3600.) ~resume:true
      ~domains:2 ~max_depth:6 sys
  in
  check_int "resume succeeded" (before + 1) (Metrics.value resumes);
  check_bool "resumed: outcome and stats" true (key = n10_key);
  check_bool "resumed: level 3 of the log" true (n10_level3_logged log)

let test_domains2_no_regression () =
  (* The fan-out thresholds of the signature pass and the subsumption
     filter keep small levels on one domain: domains=2 at n=6 once ran
     ~10x slower than domains=1 (BENCH_search.json, 11.5k vs 123k
     nodes/s) because every tiny level paid domain spawns. Min-of-3
     runs each to absorb scheduler noise; the bound is deliberately
     loose (2x + 50ms) — the point is catching a return of the
     order-of-magnitude cliff, not micro-benchmarking. *)
  let wall d =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      (match Driver.optimal_depth ~domains:d ~n:6 () with
      | Driver.Sorted { depth = 5; _ } -> ()
      | _ -> Alcotest.fail "n=6 optimum must be 5");
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t1 = wall 1 in
  let t2 = wall 2 in
  check_bool
    (Printf.sprintf "domains=2 (%.4fs) within 2x of domains=1 (%.4fs)" t2 t1)
    true
    (t2 <= (2. *. t1) +. 0.05)

let () =
  Alcotest.run "search"
    [ ( "state",
        [ Alcotest.test_case "initial and comparators" `Quick test_state_initial;
          Alcotest.test_case "of_masks/map/subset" `Quick test_state_of_masks;
          Alcotest.test_case "unordered-pairs" `Quick test_unordered_pairs;
          Alcotest.test_case "sortedness" `Quick test_state_sorted_recognition;
          Alcotest.test_case "subset short-circuits" `Quick
            test_state_subset_short_circuit ] );
      ( "subsume",
        [ Alcotest.test_case "permuted positive" `Quick test_subsume_permuted_positive;
          Alcotest.test_case "cardinality filter" `Quick test_subsume_card_filter;
          Alcotest.test_case "level filter" `Quick test_subsume_level_filter;
          Alcotest.test_case "channel filter" `Quick test_subsume_channel_filter;
          Alcotest.test_case "backtracking negative" `Quick
            test_subsume_backtracking_negative;
          QCheck_alcotest.to_alcotest test_subsume_permutation_property ] );
      ( "canonical",
        [ QCheck_alcotest.to_alcotest prop_canonical_masks_invariant;
          Alcotest.test_case "isomorphic networks collide" `Quick
            test_canonical_isomorphic;
          Alcotest.test_case "n=4 exhaustive: collide iff isomorphic" `Quick
            test_canonical_exhaustive_n4 ] );
      ( "layers",
        [ Alcotest.test_case "counts" `Quick test_layer_counts;
          Alcotest.test_case "second by orbits = group fold, n=2..9" `Quick
            test_second_orbits ] );
      ( "arena",
        [ QCheck_alcotest.to_alcotest prop_arena_dedup_agrees;
          QCheck_alcotest.to_alcotest prop_arena_stage_directed;
          QCheck_alcotest.to_alcotest prop_arena_subsumes_parity;
          QCheck_alcotest.to_alcotest prop_arena_subsumes_perm;
          QCheck_alcotest.to_alcotest prop_arena_witness_identity;
          Alcotest.test_case "pinned optima and counts n=4..8" `Quick
            test_pinned_optimal_depths;
          QCheck_alcotest.to_alcotest prop_arena_subsumes_other_domain;
          Alcotest.test_case "unsigned rows never reach subsumes" `Quick
            test_arena_unsigned_rows_refused;
          QCheck_alcotest.to_alcotest prop_arena_retain;
          Alcotest.test_case "arena signatures stop at n=10" `Quick
            test_arena_signatures_stop_at_10;
          Alcotest.test_case "n=6,7,8 identical at 1, 2, 3 domains" `Quick
            test_arena_domain_identity;
          Alcotest.test_case "filter hit counts repeat at 1 and 2 domains" `Quick
            test_filter_hit_counts;
          Alcotest.test_case "budget trip identical at 1, 2, 3 domains" `Quick
            test_arena_domain_identity_budget;
          Alcotest.test_case "checkpoint at 1 domain resumes at 2" `Quick
            test_arena_checkpoint_across_domains;
          Alcotest.test_case "n=10 level 3 in two chunks = whole-level filter"
            `Quick test_chunked_level;
          Alcotest.test_case "cancel after a chunk rolls back and resumes" `Quick
            test_chunk_cancel_resume ] );
      ( "driver",
        [ Alcotest.test_case "known optima n<=6" `Quick test_known_optimal_depths;
          Alcotest.test_case "reference agreement + 10x pruning" `Quick
            test_reference_agreement;
          Alcotest.test_case "redundant hook on/off agreement" `Quick
            test_redundant_hook_agreement;
          Alcotest.test_case "exhaustive refutation" `Quick test_unsorted_exhaustive;
          Alcotest.test_case "budget inconclusive" `Quick test_budget_inconclusive;
          Alcotest.test_case "wall-clock time budget" `Quick
            test_wall_clock_budget;
          Alcotest.test_case "two domains agree" `Quick test_multi_domain_agreement;
          Alcotest.test_case "domains=2 within 2x of domains=1 at n=6" `Quick
            test_domains2_no_regression ] ) ]
