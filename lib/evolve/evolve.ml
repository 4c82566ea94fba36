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
let c_ckpt_failures = Metrics.counter "checkpoint.failures"
let c_resumes = Metrics.counter "checkpoint.resumes"

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

let snapshot_meta cfg ~next_gen =
  [ ("n", string_of_int cfg.wires);
    ("depth", string_of_int cfg.depth);
    ("pop", string_of_int cfg.pop);
    ("gens", string_of_int cfg.gens);
    ("seed", string_of_int cfg.seed);
    ("generation", string_of_int next_gen) ]

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

let load_resume cfg ~path =
  match Checkpoint.load ~path with
  | Error e -> Error e
  | Ok (ck, provenance) -> (
      (match provenance with
      | `Primary -> ()
      | `Backup reason ->
          Printf.eprintf "snlb: falling back to checkpoint backup %s.bak (%s)\n%!"
            path reason);
      if ck.Checkpoint.kind <> checkpoint_kind then
        Error
          (Printf.sprintf "checkpoint %s holds a %S snapshot, not an evolution"
             path ck.Checkpoint.kind)
      else
        let meta k = List.assoc_opt k ck.Checkpoint.meta in
        let want k v =
          match meta k with
          | Some m when m = string_of_int v -> Ok ()
          | Some m -> Error (Printf.sprintf "checkpoint %s=%s, this run %d" k m v)
          | None -> Error (Printf.sprintf "checkpoint lacks %s" k)
        in
        let ( let* ) = Result.bind in
        let* () = want "n" cfg.wires in
        let* () = want "depth" cfg.depth in
        let* () = want "pop" cfg.pop in
        let* () = want "gens" cfg.gens in
        let* () = want "seed" cfg.seed in
        let* gen =
          match Option.bind (meta "generation") int_of_string_opt with
          | Some g when g >= 0 -> Ok g
          | _ -> Error "checkpoint lacks a valid generation"
        in
        let* pop = parse_payload cfg ck.Checkpoint.payload in
        Ok (gen, pop))

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
   (unless it already sorts) breed the successor population. Shared by
   [run] and [run_segment], so the single-population driver and the
   island model make byte-identical decisions — every draw
   comes from [rng_at] keyed by the {e absolute} generation index. *)
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

let run ?(sink = Sink.null) ?cancel ?checkpoint ?(resume = false) cfg =
  validate cfg;
  let max_fit = Fitness.max_fitness ~wires:cfg.wires in
  let cancelled () =
    match cancel with None -> false | Some c -> Cancel.cancelled c
  in
  let start =
    if not resume then None
    else
      match checkpoint with
      | None -> None
      | Some (path, _) -> (
          match load_resume cfg ~path with
          | Ok (gen, pop) ->
              Metrics.incr c_resumes;
              Printf.eprintf
                "snlb: resuming evolution n=%d depth=%d pop=%d seed=%d at generation %d\n%!"
                cfg.wires cfg.depth cfg.pop cfg.seed gen;
              Some (gen, pop)
          | Error e ->
              Printf.eprintf "snlb: cannot resume (%s); starting fresh\n%!" e;
              None)
  in
  let start_gen, population =
    match start with
    | Some (gen, pop) -> (gen, pop)
    | None -> (0, initial_population cfg)
  in
  (* checkpoint cadence: remember the newest boundary, write when
     [interval] seconds have passed since the last write (or the start
     of the run); an interruption flushes the pending boundary. *)
  let last_write = ref (Clock.wall ()) in
  let pending = ref None in
  let note_boundary ~next_gen pop =
    if checkpoint <> None then pending := Some (next_gen, pop)
  in
  let flush () =
    match (checkpoint, !pending) with
    | Some (path, _), Some (next_gen, pop) ->
        pending := None;
        last_write := Clock.wall ();
        (match
           Checkpoint.write ~path
             { Checkpoint.kind = checkpoint_kind;
               meta = snapshot_meta cfg ~next_gen;
               payload = snapshot_payload pop;
             }
         with
        | Ok () -> ()
        | Error e ->
            Metrics.incr c_ckpt_failures;
            Printf.eprintf
              "snlb: checkpoint write failed (%s); evolution continues\n%!" e)
    | _ -> ()
    | exception _ -> ()
  in
  let flush_if_due () =
    match checkpoint with
    | Some (_, interval) when !pending <> None ->
        if Clock.wall () -. !last_write >= interval then flush ()
    | _ -> ()
  in
  let population = ref population in
  let best = ref None in
  let found_at = ref None in
  let generations = ref start_gen in
  let interrupted = ref false in
  (try
     let gen = ref start_gen in
     while !gen < cfg.gens && !found_at = None && not !interrupted do
       let g = !gen in
       let pop = !population in
       let bf, bsize, bgenome, next = generation ~sink cfg ~max_fit ~gen:g pop in
       (match !best with
       | Some (f, s, _) when not (better (bf, bsize, 0) (f, s, 0)) -> ()
       | _ -> best := Some (bf, bsize, bgenome));
       generations := g + 1;
       (match next with
       | None -> found_at := Some g
       | Some next ->
           population := next;
           (* generation boundary: the next generation's start state
              is consistent — snapshot it on the cadence *)
           note_boundary ~next_gen:(g + 1) next;
           flush_if_due ();
           if cancelled () || Fault.fire "kill-gen" then interrupted := true);
       incr gen
     done
   with e ->
     flush ();
     raise e);
  if !interrupted then flush ();
  let best_fitness, best_genome =
    match !best with
    | Some (f, _, g) -> (f, g)
    | None -> (0, !population.(0))
  in
  { best = best_genome;
    best_fitness;
    found_at = !found_at;
    generations = !generations;
    population = !population;
    interrupted = !interrupted;
  }
