(* Tests for lib/evolve: genome operators, the batch fitness kernel,
   the generational driver's determinism and checkpoint/resume, the
   island model, and the differential fuzzer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- genome invariants --- *)

(* the structural contract of Genome.t, checked from outside: pairs
   oriented and in range, channels disjoint per level, levels sorted
   by lower channel *)
let valid g =
  let w = Genome.wires g in
  Array.for_all
    (fun level ->
      let used = Hashtbl.create 8 in
      let ok = ref true in
      let last_lo = ref (-1) in
      Array.iter
        (fun (lo, hi) ->
          if not (0 <= lo && lo < hi && hi < w) then ok := false;
          if Hashtbl.mem used lo || Hashtbl.mem used hi then ok := false;
          Hashtbl.replace used lo ();
          Hashtbl.replace used hi ();
          if lo < !last_lo then ok := false;
          last_lo := lo)
        level;
      !ok)
    g.Genome.levels

let genome_of (seed, wires, depth) =
  let rng = Xoshiro.of_seed seed in
  Genome.random rng ~wires ~depth ~density:(0.2 +. (0.7 *. Xoshiro.float rng)) ()

let genome_params = QCheck.(triple (int_range 0 100_000) (int_range 2 10) (int_range 0 6))

let qcheck_random_valid =
  QCheck.Test.make ~name:"random genomes are valid" ~count:300 genome_params
    (fun p ->
      let g = genome_of p in
      valid g
      && Genome.shape g = (let _, _, d = p in d)
      && Genome.wires g = (let _, w, _ = p in w))

let qcheck_mutate_valid =
  QCheck.Test.make ~name:"mutate preserves validity, wires and shape"
    ~count:300 genome_params (fun p ->
      let _, w, d = p in
      let g = genome_of p in
      let rng = Xoshiro.of_seed 7 in
      let m = ref g in
      for _ = 1 to 20 do
        m := Genome.mutate rng !m
      done;
      valid !m && Genome.wires !m = w && Genome.shape !m = d)

let qcheck_crossover_valid =
  QCheck.Test.make ~name:"crossover preserves validity, wires and shape"
    ~count:300
    QCheck.(pair genome_params (int_range 0 100_000))
    (fun (p, seed2) ->
      let _, w, d = p in
      let a = genome_of p in
      let b = genome_of (seed2, w, d) in
      let rng = Xoshiro.of_seed 13 in
      let c = Genome.crossover rng a b in
      valid c && Genome.wires c = w && Genome.shape c = d)

let qcheck_repair_no_dead =
  QCheck.Test.make ~name:"repair leaves no analyzer-provable dead comparator"
    ~count:200
    QCheck.(triple (int_range 0 100_000) (int_range 2 8) (int_range 1 6))
    (fun p ->
      let g = genome_of p in
      let r = Genome.repair g in
      let facts = (Analysis.analyze (Genome.to_network r)).Analysis.facts in
      valid r && facts.Analysis.dead = []
      && Genome.shape r = Genome.shape g
      && Genome.wires r = Genome.wires g)

let qcheck_repair_extensional =
  QCheck.Test.make ~name:"repair preserves 0-1 behaviour" ~count:100
    QCheck.(triple (int_range 0 100_000) (int_range 2 8) (int_range 1 5))
    (fun p ->
      let g = genome_of p in
      let r = Genome.repair g in
      let c = Compiled.of_network (Genome.to_network g) in
      let c' = Compiled.of_network (Genome.to_network r) in
      let n = Genome.wires g in
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        if
          (Bitslice.eval_masks c [| m |]).(0)
          <> (Bitslice.eval_masks c' [| m |]).(0)
        then ok := false
      done;
      !ok)

let qcheck_repair_grow_valid =
  QCheck.Test.make ~name:"repair_grow preserves validity and shape" ~count:200
    QCheck.(triple (int_range 0 100_000) (int_range 2 8) (int_range 1 6))
    (fun p ->
      let g = genome_of p in
      let r = Genome.repair_grow (Xoshiro.of_seed 3) g in
      valid r && Genome.wires r = Genome.wires g
      && Genome.shape r = Genome.shape g)

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string round-trips" ~count:300
    genome_params (fun p ->
      let g = genome_of p in
      match Genome.of_string (Genome.to_string g) with
      | Ok g' -> Genome.equal g g'
      | Error _ -> false)

(* --- fitness kernel --- *)

let test_fitness_sorter () =
  let nw = Odd_even_merge.network ~n:8 in
  let c = Compiled.of_network nw in
  check_int "sorter has max fitness" (Fitness.max_fitness ~wires:8)
    (Fitness.compiled c)

let test_fitness_empty () =
  (* the empty network sorts exactly the n+1 already-sorted 0-1 ramps *)
  let g = Genome.create ~wires:6 (Array.make 3 [||]) in
  check_int "empty genome sorts the ramps only" 7 (Fitness.genome g)

let test_fitness_population_matches () =
  let rng = Xoshiro.of_seed 5 in
  let gs = Array.init 40 (fun _ -> Genome.random rng ~wires:7 ~depth:4 ()) in
  let single = Array.map Fitness.genome gs in
  let batch1 = Fitness.population ~domains:1 gs in
  let batch4 = Fitness.population ~domains:4 gs in
  check_bool "population = per-genome map" true (batch1 = single);
  check_bool "independent of domains" true (batch1 = batch4)

let test_fitness_population_subranges () =
  (* two wide genomes at domains=4 force the (genome, subrange) split:
     each 2^13 sweep is cut up and the per-genome counts summed back,
     which must be invisible in the results *)
  let rng = Xoshiro.of_seed 11 in
  let gs = Array.init 2 (fun _ -> Genome.random rng ~wires:13 ~depth:3 ()) in
  let single = Array.map Fitness.genome gs in
  check_bool "subrange-split population = per-genome map" true
    (Fitness.population ~domains:4 gs = single)

let test_fitness_population_sample () =
  let rng = Xoshiro.of_seed 23 in
  let gs = Array.init 33 (fun _ -> Genome.random rng ~wires:9 ~depth:4 ()) in
  let masks = Array.init 500 (fun _ -> Xoshiro.int rng ~bound:(1 lsl 9)) in
  let single = Array.map (fun g -> Fitness.sample g ~masks) gs in
  check_bool "population_sample = per-genome sample" true
    (Fitness.population_sample ~domains:1 gs ~masks = single);
  check_bool "independent of domains" true
    (Fitness.population_sample ~domains:3 gs ~masks = single);
  (* against the interpretive evaluator, mask by mask *)
  let oracle g =
    let nw = Genome.to_network g in
    Array.fold_left
      (fun acc mask ->
        let input =
          Array.init (Network.wires nw) (fun w -> (mask lsr w) land 1)
        in
        if Sortedness.is_sorted (Network.eval nw input) then acc + 1 else acc)
      0 masks
  in
  check_bool "sample = Network.eval sorted count" true
    (single = Array.map oracle gs)

let test_count_sorted_consistency () =
  let rng = Xoshiro.of_seed 11 in
  for _ = 1 to 20 do
    let g = Genome.random rng ~wires:7 ~depth:3 ~density:0.5 () in
    let c = Compiled.of_network (Genome.to_network g) in
    let total = 1 lsl 7 in
    let sorted = Bitslice.count_sorted_range c ~lo:0 ~hi:total in
    let unsorted = Bitslice.count_unsorted c in
    check_int "sorted + unsorted = 2^n" total (sorted + unsorted);
    let masks = Array.init total (fun t -> t) in
    check_int "count_sorted_masks agrees" sorted
      (Bitslice.count_sorted_masks c masks)
  done

(* --- generational driver --- *)

let digest_of_run ?checkpoint ?resume cfg =
  let r = Evolve.run ?checkpoint ?resume cfg in
  (Evolve.population_digest r.Evolve.population, r)

let test_evolve_deterministic () =
  let cfg =
    { (Evolve.default_config ~wires:6 ~depth:5) with Evolve.pop = 64; gens = 8 }
  in
  let d1, r1 = digest_of_run cfg in
  let d2, r2 = digest_of_run cfg in
  check_string "same seed, same population" d1 d2;
  check_bool "same trajectory" true (r1.Evolve.found_at = r2.Evolve.found_at);
  let d3, _ = digest_of_run { cfg with Evolve.seed = 2 } in
  check_bool "different seed, different population" true (d1 <> d3)

let test_evolve_domains_independent () =
  let cfg =
    { (Evolve.default_config ~wires:6 ~depth:5) with
      Evolve.pop = 64;
      gens = 6;
      domains = 1;
    }
  in
  let d1, _ = digest_of_run cfg in
  let d4, _ = digest_of_run { cfg with Evolve.domains = 4 } in
  check_string "domains only parallelize fitness" d1 d4

let test_evolve_finds_small_sorters () =
  List.iter
    (fun (n, pop) ->
      let depth = Option.get (Evolve.known_optimal_depth n) in
      let cfg =
        { (Evolve.default_config ~wires:n ~depth) with
          Evolve.pop;
          gens = 300;
        }
      in
      let r = Evolve.run cfg in
      check_bool (Printf.sprintf "n=%d depth-optimal sorter found" n) true
        (r.Evolve.found_at <> None);
      check_bool "witness verifies" true
        (Zero_one.is_sorting_network (Genome.to_network r.Evolve.best)))
    [ (4, 64); (5, 256); (6, 512) ]

let with_temp_ckpt f =
  let path = Filename.temp_file "snlb_evolve_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".bak"; path ^ ".tmp" ])
    (fun () -> f path)

let test_evolve_resume_byte_identical () =
  (* n=7 at a small population takes >5 generations, leaving room for
     the kill-gen fault to land before discovery *)
  let cfg =
    { (Evolve.default_config ~wires:7 ~depth:6) with
      Evolve.pop = 64;
      gens = 40;
    }
  in
  let full_digest, full = digest_of_run cfg in
  with_temp_ckpt @@ fun path ->
  (match Fault.set (Some "kill-gen:0.5:1") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let interrupted =
    Fun.protect
      ~finally:(fun () -> ignore (Fault.set None))
      (fun () -> Evolve.run ~checkpoint:(path, 0.) cfg)
  in
  check_bool "fault interrupted the run" true interrupted.Evolve.interrupted;
  check_bool "stopped before the cap" true
    (interrupted.Evolve.generations < full.Evolve.generations);
  let resumed_digest, resumed =
    digest_of_run ~checkpoint:(path, 0.) ~resume:true cfg
  in
  check_bool "resume completed" true (not resumed.Evolve.interrupted);
  check_string "resumed population is byte-identical" full_digest
    resumed_digest;
  check_bool "same outcome" true
    (full.Evolve.found_at = resumed.Evolve.found_at)

let test_evolve_resume_rejects_mismatch () =
  let cfg =
    { (Evolve.default_config ~wires:6 ~depth:5) with Evolve.pop = 32; gens = 4 }
  in
  with_temp_ckpt @@ fun path ->
  ignore (Evolve.run ~checkpoint:(path, 0.) cfg);
  (* a config with a different width must not adopt the snapshot; it
     degrades to a fresh deterministic run *)
  let other = { cfg with Evolve.wires = 7; depth = 6 } in
  let d_fresh, _ = digest_of_run other in
  let d_resumed, _ = digest_of_run ~checkpoint:(path, 0.) ~resume:true other in
  check_string "incompatible snapshot ignored" d_fresh d_resumed

let test_known_optimal_depths () =
  List.iter
    (fun (n, d) ->
      check_bool
        (Printf.sprintf "optimal depth n=%d" n)
        true
        (Evolve.known_optimal_depth n = Some d))
    [ (2, 1); (3, 3); (4, 3); (5, 5); (6, 5); (7, 6); (8, 6); (16, 9) ];
  check_bool "out of range" true (Evolve.known_optimal_depth 17 = None)

(* --- island model --- *)

let islands_config =
  { (Evolve.default_config ~wires:6 ~depth:5) with
    Evolve.pop = 32;
    gens = 8;
    seed = 11;
  }

let island_digests r =
  Array.to_list (Array.map Evolve.population_digest r.Islands.populations)

(* island i evolves from seed cfg.seed + i * 1_000_003 *)
let island_cfg cfg i =
  { cfg with Evolve.seed = cfg.Evolve.seed + (i * 1_000_003) }

(* depth 5 is below n=8's optimum 6, so no island ever ends the run *)
let unsolvable_config =
  { (Evolve.default_config ~wires:8 ~depth:5) with
    Evolve.pop = 32;
    gens = 6;
    seed = 5;
  }

let test_islands_single_matches_plain () =
  (* one island, no migration: the plain generational run, reproduced
     through the epoch schedule *)
  let plain = Evolve.run islands_config in
  let r = Islands.run ~islands:1 ~epoch:3 ~migrants:0 islands_config in
  check_bool "found agrees" true
    (r.Islands.found = Option.map (fun g -> (g, 0)) plain.Evolve.found_at);
  check_int "fitness agrees" plain.Evolve.best_fitness r.Islands.best_fitness;
  check_bool "population agrees" true
    (island_digests r = [ Evolve.population_digest plain.Evolve.population ])

let test_islands_fan_out_independent () =
  (* at cfg.domains = Par.clamp_max only one island domain fits, so
     the islands run one after another instead of side by side *)
  let run domains =
    Islands.run ~islands:3 ~epoch:3 ~migrants:2
      { islands_config with Evolve.domains }
  in
  let a = run 1 and b = run Par.clamp_max in
  check_bool "found" true (a.Islands.found = b.Islands.found);
  check_string "best genome" (Genome.to_string a.Islands.best)
    (Genome.to_string b.Islands.best);
  check_int "generations" a.Islands.generations b.Islands.generations;
  check_bool "digests" true (island_digests a = island_digests b)

let test_islands_pre_cancelled () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let r = Islands.run ~cancel ~islands:3 ~epoch:3 ~migrants:2 islands_config in
  check_bool "interrupted" true r.Islands.interrupted;
  check_int "no barrier passed" 0 r.Islands.epochs_run;
  let initial i =
    Evolve.population_digest
      (Evolve.initial_population (island_cfg islands_config i))
  in
  check_bool "initial populations" true
    (island_digests r = List.init 3 initial)

let test_segment_cancel_stops_after_a_generation () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let seg =
    Evolve.run_segment ~cancel islands_config ~start_gen:0 ~gens:5
      (Evolve.initial_population islands_config)
  in
  check_int "one generation" 1 seg.Evolve.seg_generations

let test_islands_cancel_keeps_last_barrier () =
  (* depth 5 is below n=8's optimum 6, so no island ends the run; the
     token trips as the second epoch starts, so that epoch is cut
     short on both islands *)
  let epoch = 50 in
  let cfg =
    { (Evolve.default_config ~wires:8 ~depth:5) with
      Evolve.pop = 32;
      gens = 4000;
    }
  in
  let sink, events = Sink.memory () in
  let cancel = Cancel.create () in
  let second_epoch_started e =
    List.assoc_opt "generation" e.Sink.fields = Some (Sink.Int epoch)
  in
  let watcher =
    Thread.create
      (fun () ->
        while not (List.exists second_epoch_started (events ())) do
          Thread.delay 0.001
        done;
        Cancel.cancel cancel)
      ()
  in
  let r = Islands.run ~sink ~cancel ~islands:2 ~epoch ~migrants:2 cfg in
  Thread.join watcher;
  check_bool "interrupted" true r.Islands.interrupted;
  check_bool "stopped before the cap" true
    (r.Islands.generations < cfg.Evolve.gens);
  (* the reported state is the barrier an uncancelled run of that
     many generations ends on *)
  let barrier =
    Islands.run ~islands:2 ~epoch ~migrants:2
      { cfg with Evolve.gens = r.Islands.generations }
  in
  check_int "epochs" barrier.Islands.epochs_run r.Islands.epochs_run;
  check_bool "digests" true (island_digests barrier = island_digests r)

let test_islands_rejects_bad_shapes () =
  List.iter
    (fun (what, islands, epoch, migrants) ->
      match Islands.run ~islands ~epoch ~migrants islands_config with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [ ("islands 0", 0, 3, 2); ("epoch 0", 3, 0, 2);
      ("migrants > pop/2", 3, 3, 17) ]

let test_islands_without_migrants_independent () =
  (* with no migration each island is the plain run from its own seed *)
  let cfg = unsolvable_config in
  let r = Islands.run ~islands:3 ~epoch:4 ~migrants:0 cfg in
  let plain = List.init 3 (fun i -> Evolve.run (island_cfg cfg i)) in
  check_bool "digests" true
    (island_digests r
    = List.map (fun p -> Evolve.population_digest p.Evolve.population) plain);
  check_int "best fitness"
    (List.fold_left (fun m p -> max m p.Evolve.best_fitness) 0 plain)
    r.Islands.best_fitness

let test_islands_ring_migration () =
  (* one epoch spans the run, so the final populations are the plain
     runs' with one ring migration applied: island i's first
     [migrants] slots overwrite island i+1's last [migrants] slots *)
  let cfg = unsolvable_config in
  let islands = 3 and migrants = 3 in
  let r = Islands.run ~islands ~epoch:cfg.Evolve.gens ~migrants cfg in
  let plain =
    Array.init islands (fun i -> (Evolve.run (island_cfg cfg i)).Evolve.population)
  in
  Array.iteri
    (fun i got ->
      let expected = Array.copy plain.(i) in
      Array.blit
        plain.((i + islands - 1) mod islands)
        0 expected (cfg.Evolve.pop - migrants) migrants;
      check_string
        (Printf.sprintf "island %d" i)
        (Evolve.population_digest expected)
        (Evolve.population_digest got))
    r.Islands.populations

let test_islands_earliest_find () =
  (* with no migration the islands are the plain runs, so the find is
     the least (generation, island) pair among theirs and the run stops
     at the barrier that follows it; at seed 3 island 1 finds a sorter
     one generation before island 0 does, in the same epoch *)
  let cfg = { islands_config with Evolve.gens = 40; seed = 3 } in
  let epoch = 4 in
  let r = Islands.run ~islands:3 ~epoch ~migrants:0 cfg in
  let finds =
    List.filter_map
      (fun i ->
        Option.map (fun g -> (g, i)) (Evolve.run (island_cfg cfg i)).Evolve.found_at)
      [ 0; 1; 2 ]
  in
  let gen, island = List.fold_left min (List.hd finds) finds in
  check_bool "found" true (r.Islands.found = Some (gen, island));
  check_int "generations" (gen + 1) r.Islands.generations;
  check_int "stopped at the next barrier" ((gen / epoch) + 1)
    r.Islands.epochs_run;
  check_int "perfect fitness" (Fitness.max_fitness ~wires:6)
    r.Islands.best_fitness

let test_islands_counters () =
  (* gens 8 in epochs of 3: barriers after generations 3, 6 and 8, each
     moving 2 migrants into each of the 3 islands *)
  let epochs = Metrics.counter "evolve.islands.epochs"
  and migrations = Metrics.counter "evolve.islands.migrations" in
  let e0 = Metrics.value epochs and m0 = Metrics.value migrations in
  let r =
    Islands.run ~islands:3 ~epoch:3 ~migrants:2
      { unsolvable_config with Evolve.gens = 8 }
  in
  check_int "epochs run" 3 r.Islands.epochs_run;
  check_int "generations" 8 r.Islands.generations;
  check_int "epoch counter" 3 (Metrics.value epochs - e0);
  check_int "migration counter" 18 (Metrics.value migrations - m0)

let test_islands_trace_spans () =
  let sink, events = Sink.memory () in
  ignore (Islands.run ~sink ~islands:2 ~epoch:3 ~migrants:1 unsolvable_config);
  let spans name =
    List.filter (fun e -> e.Sink.ev = "span" && e.Sink.name = name) (events ())
  in
  let tags =
    List.sort compare
      (List.map
         (fun e ->
           (List.assoc "island" e.Sink.fields, List.assoc "epoch" e.Sink.fields))
         (spans "evolve/island"))
  in
  check_bool "one span per island per epoch" true
    (tags
    = Sink.[ (Int 0, Int 0); (Int 0, Int 1); (Int 1, Int 0); (Int 1, Int 1) ]);
  check_int "generation spans nest in the island spans" 12
    (List.length (spans "evolve/island/evolve/gen"))

(* --- differential fuzzer --- *)

let test_fuzz_clean_run () =
  let r = Fuzz.run ~count:400 ~seconds:600. ~seed:5 () in
  check_int "checked the requested count" 400 r.Fuzz.checked;
  check_int "no disagreements" 0 (List.length r.Fuzz.disagreements)

let test_fuzz_genome_at_replayable () =
  let a = Fuzz.genome_at ~seed:5 ~index:3 in
  let b = Fuzz.genome_at ~seed:5 ~index:3 in
  check_bool "replay is deterministic" true (Genome.equal a b);
  let c = Fuzz.genome_at ~seed:5 ~index:4 in
  check_bool "indices differ" true (not (Genome.equal a c))

let test_fuzz_check_accepts_sorters () =
  List.iter
    (fun nw ->
      let g =
        match
          Genome.of_string
            (Printf.sprintf "%d %d\n%s" (Network.wires nw)
               (List.length (Network.levels nw))
               (String.concat "\n"
                  (List.map
                     (fun (l : Network.level) ->
                       String.concat " "
                         (List.filter_map
                            (fun gate ->
                              match gate with
                              | Gate.Compare { lo; hi } ->
                                  Some (Printf.sprintf "%d,%d" lo hi)
                              | Gate.Exchange _ -> None)
                            l.Network.gates))
                     (Network.levels nw))))
        with
        | Ok g -> g
        | Error e -> Alcotest.fail e
      in
      match Fuzz.check_genome g with
      | Ok () -> ()
      | Error (kind, detail) ->
          Alcotest.fail (Printf.sprintf "%s: %s" kind detail))
    [ Odd_even_merge.network ~n:8; Bitonic.network ~n:4 ]

let test_fuzz_minimize () =
  let rng = Xoshiro.of_seed 23 in
  let g = Genome.random rng ~wires:6 ~depth:4 ~density:0.9 () in
  (* a synthetic monotone failure: "has at least 3 comparators" *)
  let fails g = Genome.size g >= 3 in
  let m = Fuzz.minimize g ~fails in
  check_bool "still fails" true (fails m);
  check_int "1-minimal under comparator removal" 3 (Genome.size m)

let () =
  Alcotest.run "evolve"
    [ ( "genome",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_random_valid;
            qcheck_mutate_valid;
            qcheck_crossover_valid;
            qcheck_repair_no_dead;
            qcheck_repair_extensional;
            qcheck_repair_grow_valid;
            qcheck_string_roundtrip ] );
      ( "fitness",
        [ Alcotest.test_case "sorter maxes out" `Quick test_fitness_sorter;
          Alcotest.test_case "empty network baseline" `Quick test_fitness_empty;
          Alcotest.test_case "population kernel" `Quick
            test_fitness_population_matches;
          Alcotest.test_case "population subrange split" `Quick
            test_fitness_population_subranges;
          Alcotest.test_case "population_sample = oracle count" `Quick
            test_fitness_population_sample;
          Alcotest.test_case "count_sorted consistency" `Quick
            test_count_sorted_consistency ] );
      ( "driver",
        [ Alcotest.test_case "deterministic under seed" `Quick
            test_evolve_deterministic;
          Alcotest.test_case "independent of domains" `Quick
            test_evolve_domains_independent;
          Alcotest.test_case "rediscovers optimal depths n=4..6" `Slow
            test_evolve_finds_small_sorters;
          Alcotest.test_case "kill-gen resume is byte-identical" `Quick
            test_evolve_resume_byte_identical;
          Alcotest.test_case "incompatible snapshot rejected" `Quick
            test_evolve_resume_rejects_mismatch;
          Alcotest.test_case "known optimal depth table" `Quick
            test_known_optimal_depths ] );
      ( "islands",
        [ Alcotest.test_case "islands=1 matches plain evolve" `Quick
            test_islands_single_matches_plain;
          Alcotest.test_case "independent of island fan-out" `Quick
            test_islands_fan_out_independent;
          Alcotest.test_case "pre-cancelled run keeps generation 0" `Quick
            test_islands_pre_cancelled;
          Alcotest.test_case "cancelled segment stops after a generation"
            `Quick test_segment_cancel_stops_after_a_generation;
          Alcotest.test_case "cancel reports the last barrier" `Quick
            test_islands_cancel_keeps_last_barrier;
          Alcotest.test_case "bad island shapes rejected" `Quick
            test_islands_rejects_bad_shapes;
          Alcotest.test_case "no migrants keeps islands independent" `Quick
            test_islands_without_migrants_independent;
          Alcotest.test_case "migrants overwrite the neighbour's tail"
            `Quick test_islands_ring_migration;
          Alcotest.test_case "earliest (generation, island) find wins"
            `Quick test_islands_earliest_find;
          Alcotest.test_case "epoch and migration counters" `Quick
            test_islands_counters;
          Alcotest.test_case "island spans wrap generation spans" `Quick
            test_islands_trace_spans ] );
      ( "fuzz",
        [ Alcotest.test_case "400 seeded networks run clean" `Slow
            test_fuzz_clean_run;
          Alcotest.test_case "indices replay" `Quick
            test_fuzz_genome_at_replayable;
          Alcotest.test_case "real sorters pass every oracle" `Quick
            test_fuzz_check_accepts_sorters;
          Alcotest.test_case "minimize reaches 1-minimality" `Quick
            test_fuzz_minimize ] ) ]
