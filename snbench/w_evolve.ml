(* evolve-n10: the GA on 10 wires at depth 6, one below the proved
   optimum of 7, so no sorter exists and every run evaluates all
   [gens] generations. *)

open Util

let config seed =
  { (Evolve.default_config ~wires:10 ~depth:6) with
    Evolve.pop = 512;
    gens = 150;
    domains = 2;
    seed }

(* One checked unit: a whole [Evolve.run]. It must evaluate exactly
   [gens] generations, [Fitness.genome] must recompute the reported best
   fitness, and the final population must repeat across runs. *)
let unit t cfg digest =
  let r, dt = time (fun () -> Evolve.run cfg) in
  let d = Evolve.population_digest r.Evolve.population in
  if !digest = None then digest := Some d;
  check t "evolve-n10: generations = gens"
    (r.Evolve.generations = cfg.Evolve.gens && not r.Evolve.interrupted);
  check t "evolve-n10: Fitness.genome recomputes best_fitness"
    (Fitness.genome r.Evolve.best = r.Evolve.best_fitness);
  check t "evolve-n10: final population repeats" (!digest = Some d);
  dt

let setup_samples cfg () =
  List.init 9 (fun _ -> snd (time (fun () -> Evolve.initial_population cfg)))

let untraced ~seed ~seconds t =
  let cfg = config seed in
  let digest = ref None in
  let walls, setups =
    repeat_with_setups ~seconds ~sample:(setup_samples cfg) (fun () -> unit t cfg digest)
  in
  end_to_end ~walls ~setups ~ops:(List.length walls) ~latency:(unit_latency walls)
    ~rss:(peak_rss_mb None) t

let counter name = Metrics.value (Metrics.counter name)

(* The traced run drives the same trajectory one generation at a time
   with [Evolve.run_segment ~gens:1], then replays fitness and repair
   on each generation's population. Inside [Evolve] only
   [Genome.repair_grow] calls [Analysis.analyze], so a generation's
   change in [analysis.networks] is its number of repair_grow calls,
   whether or not they found dead gates ([evolve.repairs] counts only
   those that did). *)
let traced ~seed ~seconds:_ t =
  let cfg = config seed in
  let digest = ref None in
  let wall_untraced = unit t cfg digest in
  Metrics.reset ();
  let t0 = now () in
  let pop = ref (Evolve.initial_population cfg) in
  let gens =
    List.init cfg.Evolve.gens (fun g ->
        let input = !pop in
        let analyzed0 = counter "analysis.networks" in
        let seg, dt =
          time (fun () -> Evolve.run_segment cfg ~start_gen:g ~gens:1 input)
        in
        pop := seg.Evolve.seg_population;
        (input, dt, counter "analysis.networks" - analyzed0))
  in
  let wall_traced = now () -. t0 in
  consistency t "segment-driven population equals Evolve.run's"
    (!digest = Some (Evolve.population_digest !pop));
  let counts =
    List.map
      (fun c -> m c "count" (float_of_int (counter c)))
      [ "evolve.evals"; "evolve.repairs"; "evolve.repaired_gates"; "analysis.networks" ]
  in
  let rng = Xoshiro.of_seed seed in
  let fitness_s =
    List.map
      (fun (p, _, _) -> snd (time (fun () -> Fitness.population ~domains:cfg.Evolve.domains p)))
      gens
  in
  let repair_s =
    List.map
      (fun (p, _, k) ->
        let sample = Array.init k (fun i -> p.(i mod Array.length p)) in
        snd (time (fun () -> Array.iter (fun g -> ignore (Genome.repair_grow rng g)) sample)))
      gens
  in
  let gen_s = median (List.map (fun (_, dt, _) -> dt) gens) in
  let fit_s = median fitness_s in
  [ m "evolve.gen_s" "s" gen_s;
    m "evolve.fitness_s" "s" fit_s;
    m "evolve.breed_s" "s" (gen_s -. fit_s);
    m "analysis.repair_s" "s" (median repair_s);
    m "engine.fitness_nets_per_s" "1/s" (float_of_int cfg.Evolve.pop /. fit_s);
    m "trace.overhead_ratio" "ratio" (wall_traced /. wall_untraced) ]
  @ counts
