(* Tests for the compiled evaluation engine: the scalar compiled
   executor, the 64-lane bit-sliced 0-1 executor and the structural
   compile cache, all cross-checked against the interpretive
   Network.eval (the reference semantics). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- randomized networks: gates (both orientations), exchanges, pre
   permutations, and gate-free permutation levels --- *)

let random_network rng =
  let n = 2 + Xoshiro.int rng ~bound:9 in
  let nlevels = Xoshiro.int rng ~bound:7 in
  let levels =
    List.init nlevels (fun _ ->
        let pre =
          if Xoshiro.int rng ~bound:3 = 0 then Some (Perm.random rng n)
          else None
        in
        let gates =
          if Xoshiro.int rng ~bound:5 = 0 then [] (* permutation-only level *)
          else begin
            let order = Perm.to_array (Perm.random rng n) in
            let npairs = Xoshiro.int rng ~bound:((n / 2) + 1) in
            List.init npairs (fun i ->
                let a = order.(2 * i) and b = order.((2 * i) + 1) in
                match Xoshiro.int rng ~bound:3 with
                | 0 -> Gate.compare_up a b
                | 1 -> Gate.compare_down a b
                | _ -> Gate.exchange a b)
          end
        in
        { Network.pre; gates })
  in
  Network.create ~wires:n levels

let random_input rng n =
  Array.init n (fun _ -> Xoshiro.int rng ~bound:8)

let zero_one_input n t = Array.init n (fun w -> (t lsr w) land 1)

(* --- scalar compiled eval --- *)

let prop_compiled_eval_agrees =
  QCheck.Test.make ~name:"compiled eval = Network.eval" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let n = Network.wires nw in
      let c = Compiled.of_network nw in
      List.for_all
        (fun () ->
          let input = random_input rng n in
          Compiled.eval c input = Network.eval nw input)
        (List.init 5 (fun _ -> ())))

let prop_compiled_shape =
  QCheck.Test.make ~name:"compiled depth/size match network" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let c = Compiled.of_network nw in
      Compiled.wires c = Network.wires nw
      && Compiled.depth c = Network.depth nw
      && Compiled.comparators c = Network.size nw
      && Compiled.levels c = List.length (Network.levels nw))

let prop_eval_many_agrees =
  QCheck.Test.make ~name:"eval_many = per-input eval (incl. domains)"
    ~count:100
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 3))
    (fun (seed, domains) ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let n = Network.wires nw in
      let c = Compiled.of_network nw in
      let inputs = Array.init 17 (fun _ -> random_input rng n) in
      let batch = Compiled.eval_many ~domains c inputs in
      Array.for_all2
        (fun out input -> out = Network.eval nw input)
        batch inputs)

(* --- bit-sliced 0-1 executor --- *)

let direct_unsorted_indices nw =
  let n = Network.wires nw in
  let bad = ref [] in
  for t = (1 lsl n) - 1 downto 0 do
    if not (Sortedness.is_sorted (Network.eval nw (zero_one_input n t))) then
      bad := t :: !bad
  done;
  !bad

let prop_bitslice_agrees =
  QCheck.Test.make ~name:"bit-sliced count/find = direct 0-1 enumeration"
    ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let c = Compiled.of_network nw in
      let bad = direct_unsorted_indices nw in
      Bitslice.count_unsorted c = List.length bad
      && Bitslice.find_unsorted c = (match bad with [] -> None | t :: _ -> Some t))

(* A random mask batch of 0..300 inputs: empty, partial, exactly one
   block (64) and non-multiples of 64 all occur. *)
let random_masks rng n =
  Array.init (Xoshiro.int rng ~bound:301) (fun _ ->
      Xoshiro.int rng ~bound:(1 lsl n))

let direct_output nw mask =
  let n = Network.wires nw in
  Network.eval nw (Array.init n (fun w -> (mask lsr w) land 1))

let prop_eval_masks_agrees =
  (* arbitrary non-consecutive masks match per-input Network.eval,
     including networks with pre permutations (output routing through
     [take]) and the sortedness-per-lane helper *)
  QCheck.Test.make ~name:"eval_masks = per-mask Network.eval" ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let n = Network.wires nw in
      let c = Compiled.of_network nw in
      let masks = random_masks rng n in
      let out = Bitslice.eval_masks c masks in
      Array.length out = Array.length masks
      && Array.for_all2
           (fun mask o ->
             let direct = direct_output nw mask in
             let direct_mask = ref 0 in
             Array.iteri
               (fun w v ->
                 if v = 1 then direct_mask := !direct_mask lor (1 lsl w))
               direct;
             o = !direct_mask
             && Bitslice.mask_sorted ~wires:n o = Sortedness.is_sorted direct)
           masks out)

let prop_count_sorted_masks_agrees =
  QCheck.Test.make ~name:"count_sorted_masks = Network.eval sorted count"
    ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let masks = random_masks rng (Network.wires nw) in
      let direct =
        Array.fold_left
          (fun acc mask ->
            if Sortedness.is_sorted (direct_output nw mask) then acc + 1
            else acc)
          0 masks
      in
      Bitslice.count_sorted_masks (Compiled.of_network nw) masks = direct)

let prop_bitslice_windows_agree =
  (* random [lo, hi) windows, both ends generally off the 64-input
     block grid, on networks of 2..10 wires (so also 2^wires < 64) *)
  QCheck.Test.make ~name:"range sweeps = direct enumeration on any window"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let c = Compiled.of_network nw in
      let total = 1 lsl Network.wires nw in
      let a = Xoshiro.int rng ~bound:(total + 1)
      and b = Xoshiro.int rng ~bound:(total + 1) in
      let lo = min a b and hi = max a b in
      let bad =
        List.filter (fun t -> lo <= t && t < hi) (direct_unsorted_indices nw)
      in
      Bitslice.count_unsorted_range c ~lo ~hi = List.length bad
      && Bitslice.count_sorted_range c ~lo ~hi = hi - lo - List.length bad
      && Bitslice.find_unsorted_range c ~lo ~hi
         = (match bad with [] -> None | t :: _ -> Some t))

let prop_bitslice_ranges_partition =
  (* arbitrary (non-lane-aligned) range splits cover exactly once *)
  QCheck.Test.make ~name:"bit-sliced range sweeps partition"
    ~count:80
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 200))
    (fun (seed, cut) ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let n = Network.wires nw in
      let c = Compiled.of_network nw in
      let hi = 1 lsl n in
      let mid = cut mod (hi + 1) in
      Bitslice.count_unsorted_range c ~lo:0 ~hi:mid
      + Bitslice.count_unsorted_range c ~lo:mid ~hi
      = Bitslice.count_unsorted c)

let prop_bitslice_domains_agree =
  QCheck.Test.make ~name:"bit-sliced verdicts independent of domain count"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 5))
    (fun (seed, domains) ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let c = Compiled.of_network nw in
      Bitslice.count_unsorted ~domains c = Bitslice.count_unsorted c
      && Bitslice.is_sorting_network ~domains c
         = Bitslice.is_sorting_network c)

(* --- sorted depth: engine-backed Sort_depth vs an interpretive
   oracle (the pre-engine reference implementation) --- *)

let oracle_sorted_depth nw input =
  let target = Array.copy input in
  Array.sort compare target;
  let values = ref (Array.copy input) in
  let matches = ref [] in
  let comparator_levels = ref 0 in
  if !values = target then matches := [ 0 ];
  List.iter
    (fun lvl ->
      (match lvl.Network.pre with
      | None -> ()
      | Some p -> values := Perm.permute_array p !values);
      let has_comparator =
        List.exists Gate.is_comparator lvl.Network.gates
      in
      List.iter
        (fun g ->
          let v = !values in
          match g with
          | Gate.Compare { lo; hi } ->
              if v.(lo) > v.(hi) then begin
                let t = v.(lo) in
                v.(lo) <- v.(hi);
                v.(hi) <- t
              end
          | Gate.Exchange { a; b } ->
              let t = v.(a) in
              v.(a) <- v.(b);
              v.(b) <- t)
        lvl.Network.gates;
      if has_comparator then incr comparator_levels;
      if !values = target then matches := !comparator_levels :: !matches
      else matches := [])
    (Network.levels nw);
  match List.rev !matches with
  | first :: _ when !values = target -> Some first
  | _ -> None

let prop_sorted_depth_agrees =
  QCheck.Test.make ~name:"engine sorted_depth = interpretive oracle"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let nw = random_network rng in
      let n = Network.wires nw in
      List.for_all
        (fun input -> Sort_depth.sorted_depth nw input = oracle_sorted_depth nw input)
        (List.init 4 (fun i ->
             if i = 0 then Array.init n (fun j -> j) (* already sorted *)
             else random_input rng n)))

(* --- exhaustive agreement on every registry sorter --- *)

let registry_agreement n =
  List.iter
    (fun e ->
      let nw = e.Sorter_registry.build n in
      let c = Cache.compile nw in
      for t = 0 to (1 lsl n) - 1 do
        let input = zero_one_input n t in
        if Compiled.eval c input <> Network.eval nw input then
          Alcotest.failf "%s n=%d: compiled eval disagrees on input %d"
            e.Sorter_registry.name n t
      done;
      check_bool
        (Printf.sprintf "%s n=%d bit-sliced verdict" e.Sorter_registry.name n)
        true
        (Bitslice.is_sorting_network c);
      check_int
        (Printf.sprintf "%s n=%d unsorted count" e.Sorter_registry.name n)
        0 (Bitslice.count_unsorted c))
    Sorter_registry.all

let test_registry_n8 () = registry_agreement 8
let test_registry_n16 () = registry_agreement 16

(* --- compile cache --- *)

let test_cache_hits () =
  Cache.clear ();
  let nw = Bitonic.network ~n:8 in
  let c1 = Cache.compile nw in
  (* structurally equal but independently constructed network *)
  let c2 = Cache.compile (Bitonic.network ~n:8) in
  check_bool "same compiled object" true (c1 == c2);
  let s = Cache.stats () in
  check_int "one miss" 1 s.Cache.misses;
  check_int "one hit" 1 s.Cache.hits;
  check_int "one entry" 1 s.Cache.entries;
  let _ = Cache.compile (Bitonic.network ~n:16) in
  check_int "distinct networks get distinct entries" 2 (Cache.stats ()).Cache.entries;
  Cache.clear ();
  check_int "clear empties" 0 (Cache.stats ()).Cache.entries

let test_cache_distinguishes_structure () =
  Cache.clear ();
  (* same gates, different pre permutation: must not share an entry *)
  let gates = [ [ Gate.compare_up 0 1 ] ] in
  let plain = Network.of_gate_levels ~wires:4 gates in
  let routed =
    Network.create ~wires:4
      [ { Network.pre = Some (Perm.shuffle 4); gates = [ Gate.compare_up 0 1 ] } ]
  in
  let cp = Cache.compile plain and cr = Cache.compile routed in
  check_bool "different structures, different compiled" true (cp != cr);
  check_int "two entries" 2 (Cache.stats ()).Cache.entries

let test_cache_eviction () =
  Cache.clear ();
  Cache.set_capacity 8;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_capacity 512;
      Cache.clear ())
    (fun () ->
      let hot = Bitonic.network ~n:8 in
      let c_hot = Cache.compile hot in
      (* flood with distinct single-gate networks, touching the hot
         entry between insertions so its used bit stays set *)
      for i = 1 to 40 do
        ignore
          (Cache.compile
             (Network.of_gate_levels ~wires:64 [ [ Gate.compare_up 0 i ] ]));
        ignore (Cache.compile hot)
      done;
      let s = Cache.stats () in
      check_bool "evictions happened" true (s.Cache.evictions > 0);
      check_bool "table stays bounded" true (s.Cache.entries <= 8);
      let c_hot' = Cache.compile hot in
      check_bool "hot entry survived every sweep" true (c_hot == c_hot');
      check_int "hot re-lookup was a hit, not a recompile" s.Cache.misses
        (Cache.stats ()).Cache.misses)

let test_cache_concurrent_compile () =
  Cache.clear ();
  (* all domains compile the same (structurally equal) network; the
     duplicate-compile race must resolve to one shared entry with
     consistent counters *)
  let handles =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Cache.compile (Bitonic.network ~n:16)))
  in
  let results = List.map Domain.join handles in
  let s = Cache.stats () in
  check_int "one entry" 1 s.Cache.entries;
  check_int "every call counted once" 4 (s.Cache.hits + s.Cache.misses);
  check_bool "at least one miss" true (s.Cache.misses >= 1);
  (match results with
  | first :: rest ->
      List.iter
        (fun c -> check_bool "same physical compiled form" true (c == first))
        rest
  | [] -> assert false);
  Cache.clear ()

(* --- witness path through Zero_one --- *)

let test_zero_one_verify_witness () =
  let broken =
    Network.of_gate_levels ~wires:6 [ [ Gate.compare_up 0 1 ] ]
  in
  (match Zero_one.verify broken with
  | Ok () -> Alcotest.fail "expected a failing input"
  | Error w ->
      check_bool "witness is 0-1" true (Array.for_all (fun v -> v = 0 || v = 1) w);
      check_bool "witness really fails" false
        (Sortedness.is_sorted (Network.eval broken w)));
  check_bool "sorter verifies Ok" true
    (Zero_one.verify (Bitonic.network ~n:8) = Ok ())

(* --- engine boundary: inputs the unsafe 64-row kernel must never see --- *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_bitslice_rejects_bad_masks () =
  let c = Compiled.of_network (Bitonic.network ~n:8) in
  List.iter
    (fun mask ->
      check_bool
        (Printf.sprintf "eval_masks rejects %d" mask)
        true
        (raises_invalid (fun () -> Bitslice.eval_masks c [| 3; mask |]));
      check_bool
        (Printf.sprintf "count_sorted_masks rejects %d" mask)
        true
        (raises_invalid (fun () -> Bitslice.count_sorted_masks c [| mask |])))
    [ -1; min_int; 256; 257; max_int ]

let test_bitslice_rejects_wide_networks () =
  List.iter
    (fun wires ->
      let c =
        Compiled.of_network
          (Network.of_gate_levels ~wires [ [ Gate.compare_up 0 (wires - 1) ] ])
      in
      let entry name f =
        check_bool
          (Printf.sprintf "%s rejects %d wires" name wires)
          true (raises_invalid f)
      in
      entry "find_unsorted_range" (fun () ->
          Bitslice.find_unsorted_range c ~lo:0 ~hi:64);
      entry "count_unsorted_range" (fun () ->
          Bitslice.count_unsorted_range c ~lo:0 ~hi:64);
      entry "count_sorted_range" (fun () ->
          Bitslice.count_sorted_range c ~lo:0 ~hi:64);
      entry "eval_masks" (fun () -> Bitslice.eval_masks c [| 1 |]);
      entry "count_sorted_masks" (fun () ->
          Bitslice.count_sorted_masks c [| 1 |]);
      entry "find_unsorted" (fun () -> Bitslice.find_unsorted c);
      entry "count_unsorted" (fun () -> Bitslice.count_unsorted c);
      entry "is_sorting_network" (fun () -> Bitslice.is_sorting_network c))
    [ 62; 64 ]

let test_bitslice_rejects_bad_ranges () =
  let c = Compiled.of_network (Bitonic.network ~n:8) in
  List.iter
    (fun (lo, hi) ->
      let entry name f =
        check_bool
          (Printf.sprintf "%s rejects [%d, %d)" name lo hi)
          true (raises_invalid f)
      in
      entry "find_unsorted_range" (fun () ->
          Bitslice.find_unsorted_range c ~lo ~hi);
      entry "count_unsorted_range" (fun () ->
          Bitslice.count_unsorted_range c ~lo ~hi);
      entry "count_sorted_range" (fun () ->
          Bitslice.count_sorted_range c ~lo ~hi))
    [ (-1, 10); (-64, 0); (11, 10); (200, 0) ]

let () =
  Alcotest.run "engine"
    [ ( "registry",
        [ Alcotest.test_case "exhaustive agreement n=8" `Quick test_registry_n8;
          Alcotest.test_case "exhaustive agreement n=16" `Slow test_registry_n16 ] );
      ( "cache",
        [ Alcotest.test_case "hits and clear" `Quick test_cache_hits;
          Alcotest.test_case "structural discrimination" `Quick
            test_cache_distinguishes_structure;
          Alcotest.test_case "second-chance eviction" `Quick
            test_cache_eviction;
          Alcotest.test_case "concurrent duplicate compile" `Quick
            test_cache_concurrent_compile ] );
      ( "zero-one",
        [ Alcotest.test_case "verify returns witness" `Quick
            test_zero_one_verify_witness ] );
      ( "boundary",
        [ Alcotest.test_case "masks outside [0, 2^wires)" `Quick
            test_bitslice_rejects_bad_masks;
          Alcotest.test_case "62 and 64 wires" `Quick
            test_bitslice_rejects_wide_networks;
          Alcotest.test_case "bad ranges" `Quick
            test_bitslice_rejects_bad_ranges ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compiled_eval_agrees; prop_compiled_shape;
            prop_eval_many_agrees; prop_bitslice_agrees;
            prop_eval_masks_agrees; prop_count_sorted_masks_agrees;
            prop_bitslice_windows_agree; prop_bitslice_ranges_partition;
            prop_bitslice_domains_agree;
            prop_sorted_depth_agrees ] ) ]
