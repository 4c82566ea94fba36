type config = {
  wires : int;
  depth : int;
  pop : int;
  gens : int;
  seed : int;
  tournament : int;
  elite : int;
  crossover_prob : float;
  repair_prob : float;
  density : float;
  domains : int;
}

let default_config ~wires ~depth =
  { wires;
    depth;
    pop = 256;
    gens = 200;
    seed = 1;
    tournament = 3;
    elite = 2;
    crossover_prob = 0.6;
    repair_prob = 0.25;
    density = 0.9;
    domains = 1;
  }

type result = {
  best : Genome.t;
  best_fitness : int;
  found_at : int option;
  generations : int;
  population : Genome.t array;
  interrupted : bool;
}

let c_generations = Metrics.counter "evolve.generations"

(* Proved minimal depths for n = 2..16: Knuth 5.3.4 exercise 51 for
   n <= 10, Bundala & Zavodny (LATA 2014) for n <= 16. *)
let optimal_depths =
  [| 1; 3; 3; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 9; 9 |]

let known_optimal_depth n =
  if n >= 2 && n <= 16 then Some optimal_depths.(n - 2) else None

let population_digest pop =
  let crc =
    Array.fold_left
      (fun crc g ->
        let s = Genome.to_string g in
        Crc32.update crc s 0 (String.length s))
      0 pop
  in
  Printf.sprintf "%08x" crc

(* Every stochastic decision of generation [gen] breeding slot [slot]
   draws from this stream and nothing else, so the trajectory is a
   pure function of the seed — parallelism, interruption and resume
   cannot perturb it. *)
let rng_at ~seed ~gen ~slot =
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.add
         (Int64.mul (Int64.of_int (gen + 1)) 0x9E3779B97F4A7C15L)
         (Int64.mul (Int64.of_int (slot + 1)) 0xBF58476D1CE4E5B9L))
  in
  Xoshiro.of_splitmix (Splitmix.create z)

let validate cfg =
  if cfg.wires < 2 || cfg.wires > 16 then
    invalid_arg "Evolve.run: wires must be in [2,16]";
  if cfg.depth < 1 then invalid_arg "Evolve.run: depth must be >= 1";
  if cfg.pop < 2 then invalid_arg "Evolve.run: pop must be >= 2";
  if cfg.gens < 1 then invalid_arg "Evolve.run: gens must be >= 1";
  if cfg.tournament < 1 then invalid_arg "Evolve.run: tournament must be >= 1";
  if cfg.elite < 0 || cfg.elite >= cfg.pop then
    invalid_arg "Evolve.run: elite must be in [0,pop)";
  if cfg.domains < 1 then invalid_arg "Evolve.run: domains must be >= 1"

(* --- checkpoint / resume --- *)

let checkpoint_kind = "snlb-evolve-1"

(* A snapshot only resumes into the run that cut it: every draw is
   keyed by the seed and the shape, and [gens] bounds the loop. *)
let checkpoint_spec cfg =
  { Checkpoint.kind = checkpoint_kind;
    keys =
      [ ("n", string_of_int cfg.wires);
        ("depth", string_of_int cfg.depth);
        ("pop", string_of_int cfg.pop);
        ("gens", string_of_int cfg.gens);
        ("seed", string_of_int cfg.seed) ];
    step = "generation" }

let snapshot_payload pop =
  String.concat "" (Array.to_list (Array.map Genome.to_string pop))

(* Genomes serialize to exactly depth + 1 lines each, so the payload
   splits back by line count alone. *)
let parse_payload cfg payload =
  let lines = String.split_on_char '\n' payload in
  let per = cfg.depth + 1 in
  let rec take k acc rest =
    if k = 0 then Ok (List.rev acc, rest)
    else
      match rest with
      | [] -> Error "truncated population payload"
      | l :: rest -> take (k - 1) (l :: acc) rest
  in
  let rec go slot acc rest =
    if slot = cfg.pop then Ok (Array.of_list (List.rev acc))
    else
      match take per [] rest with
      | Error e -> Error e
      | Ok (ls, rest) -> (
          match Genome.of_string (String.concat "\n" ls ^ "\n") with
          | Ok g when Genome.wires g = cfg.wires && Genome.shape g = cfg.depth
            ->
              go (slot + 1) (g :: acc) rest
          | Ok _ -> Error "genome shape mismatch in payload"
          | Error e -> Error e)
  in
  go 0 [] lines

(* --- selection --- *)

(* Deterministic total order on (fitness, genome size, slot): fitter
   first, then fewer comparators, then the lower slot. *)
let better (f1, s1, i1) (f2, s2, i2) =
  f1 > f2 || (f1 = f2 && (s1 < s2 || (s1 = s2 && i1 < i2)))

let tournament_pick rng cfg fits sizes =
  let best = ref (Xoshiro.int rng ~bound:cfg.pop) in
  for _ = 2 to cfg.tournament do
    let c = Xoshiro.int rng ~bound:cfg.pop in
    if
      better (fits.(c), sizes.(c), c) (fits.(!best), sizes.(!best), !best)
    then best := c
  done;
  !best

let initial_population cfg =
  validate cfg;
  (* one splittable stream per slot *)
  let base = Splitmix.create (Int64.of_int cfg.seed) in
  Array.init cfg.pop (fun _ ->
      let rng = Xoshiro.of_splitmix (Splitmix.split base) in
      Genome.random rng ~wires:cfg.wires ~depth:cfg.depth ~density:cfg.density
        ())

(* One generation: evaluate, pick the generation's champion, and
   (unless it already sorts) breed the successor population. Every
   draw comes from [rng_at] keyed by the {e absolute} generation
   index, so [run]'s one-generation segments and the island model's
   epochs make byte-identical decisions. *)
let generation ~sink cfg ~max_fit ~gen pop =
  Span.run ~sink ~name:"evolve/gen" (fun sp ->
      let fits = Fitness.population ~domains:cfg.domains pop in
      let sizes = Array.map Genome.size pop in
      let best_slot = ref 0 in
      for i = 1 to cfg.pop - 1 do
        if
          better (fits.(i), sizes.(i), i)
            (fits.(!best_slot), sizes.(!best_slot), !best_slot)
        then best_slot := i
      done;
      let bf = fits.(!best_slot) in
      Metrics.incr c_generations;
      Span.add sp "generation" (Sink.Int gen);
      Span.add sp "best_fitness" (Sink.Int bf);
      Span.add sp "best_size" (Sink.Int sizes.(!best_slot));
      let next =
        if bf = max_fit then None
        else
          (* breed the next generation: elite copies, then tournament
             children, each slot on its own stream *)
          let order = Array.init cfg.pop (fun i -> i) in
          Array.sort
            (fun i j ->
              if better (fits.(i), sizes.(i), i) (fits.(j), sizes.(j), j)
              then -1
              else 1)
            order;
          Some
            (Array.init cfg.pop (fun slot ->
                 if slot < cfg.elite then pop.(order.(slot))
                 else begin
                   let rng = rng_at ~seed:cfg.seed ~gen ~slot in
                   let p1 = tournament_pick rng cfg fits sizes in
                   let child =
                     if Xoshiro.float rng < cfg.crossover_prob then begin
                       let p2 = tournament_pick rng cfg fits sizes in
                       Genome.crossover rng pop.(p1) pop.(p2)
                     end
                     else pop.(p1)
                   in
                   if Xoshiro.float rng < cfg.repair_prob then
                     Genome.repair_grow rng child
                   else Genome.mutate rng child
                 end))
      in
      (bf, sizes.(!best_slot), pop.(!best_slot), next))

type segment = {
  seg_population : Genome.t array;
  seg_found_at : int option;
  seg_best_fitness : int;
  seg_best_size : int;
  seg_best : Genome.t;
  seg_generations : int;
}

let run_segment ?(sink = Sink.null) ?cancel cfg ~start_gen ~gens population =
  validate cfg;
  if gens < 1 then invalid_arg "Evolve.run_segment: gens must be >= 1";
  if start_gen < 0 then invalid_arg "Evolve.run_segment: start_gen must be >= 0";
  if Array.length population <> cfg.pop then
    invalid_arg "Evolve.run_segment: population size differs from cfg.pop";
  let max_fit = Fitness.max_fitness ~wires:cfg.wires in
  let pop = ref population in
  let best = ref None in
  let found_at = ref None in
  let evaluated = ref 0 in
  let stopped = ref false in
  let g = ref start_gen in
  while !g < start_gen + gens && !found_at = None && not !stopped do
    let bf, bsize, bgenome, next = generation ~sink cfg ~max_fit ~gen:!g !pop in
    (match !best with
    | Some (f, s, _) when not (better (bf, bsize, 0) (f, s, 0)) -> ()
    | _ -> best := Some (bf, bsize, bgenome));
    incr evaluated;
    (match next with
    | None -> found_at := Some !g
    | Some next -> pop := next);
    incr g;
    stopped := (match cancel with None -> false | Some c -> Cancel.cancelled c)
  done;
  let best_fitness, best_size, best =
    match !best with Some b -> b | None -> assert false (* gens >= 1 *)
  in
  {
    seg_population = !pop;
    seg_found_at = !found_at;
    seg_best_fitness = best_fitness;
    seg_best_size = best_size;
    seg_best = best;
    seg_generations = !evaluated;
  }

(* [run_segment] one generation at a time: the generation boundaries
   between calls are where a snapshot is cut and where a cancel or an
   injected ["kill-gen"] stops the run. *)
let run ?(sink = Sink.null) ?cancel ?checkpoint ?(resume = false) cfg =
  validate cfg;
  let spec = checkpoint_spec cfg in
  let resumed =
    if not resume then None
    else
      Checkpoint.resume spec (Option.map fst checkpoint) ~decode:(fun ~step payload ->
          Result.map (fun pop -> (step, pop)) (parse_payload cfg payload))
  in
  let start_gen, population =
    match resumed with
    | Some (gen, pop) ->
        Printf.eprintf
          "snlb: resuming evolution n=%d depth=%d pop=%d seed=%d at generation %d\n%!"
          cfg.wires cfg.depth cfg.pop cfg.seed gen;
        (gen, pop)
    | None -> (0, initial_population cfg)
  in
  let ckpt = Checkpoint.writer spec checkpoint in
  let cancelled () =
    match cancel with None -> false | Some c -> Cancel.cancelled c
  in
  let pop = ref population and best = ref None and found_at = ref None in
  let gen = ref start_gen and interrupted = ref false in
  while !gen < cfg.gens && !found_at = None && not !interrupted do
    let seg = run_segment ~sink cfg ~start_gen:!gen ~gens:1 !pop in
    let champion = (seg.seg_best_fitness, seg.seg_best_size, 0) in
    (match !best with
    | Some (f, s, _) when not (better champion (f, s, 0)) -> ()
    | _ -> best := Some (seg.seg_best_fitness, seg.seg_best_size, seg.seg_best));
    pop := seg.seg_population;
    found_at := seg.seg_found_at;
    incr gen;
    if !found_at = None then begin
      (* generation boundary: the next generation's start state is
         consistent *)
      let next = !pop in
      Checkpoint.boundary ckpt ~step:!gen (fun () -> snapshot_payload next);
      if cancelled () || Fault.fire "kill-gen" then interrupted := true
    end
  done;
  if !interrupted then Checkpoint.flush ckpt;
  let best_fitness, best_genome =
    match !best with Some (f, _, g) -> (f, g) | None -> (0, !pop.(0))
  in
  { best = best_genome;
    best_fitness;
    found_at = !found_at;
    generations = !gen;
    population = !pop;
    interrupted = !interrupted;
  }
