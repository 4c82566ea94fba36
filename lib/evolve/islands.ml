type t = {
  found : (int * int) option;
  best : Genome.t;
  best_fitness : int;
  best_size : int;
  generations : int;
  epochs_run : int;
  populations : Genome.t array array;
  interrupted : bool;
}

let c_epochs = Metrics.counter "evolve.islands.epochs"
let c_migrations = Metrics.counter "evolve.islands.migrations"

(* Island seeds must be deterministic and distinct; island 0 keeps the
   base seed so [islands = 1] reproduces the single-population run. *)
let island_seed base i = base + (i * 1_000_003)

let run ?(sink = Sink.null) ?cancel ~islands ~epoch ~migrants cfg =
  if islands < 1 then invalid_arg "Islands.run: islands < 1";
  if epoch < 1 then invalid_arg "Islands.run: epoch < 1";
  if migrants < 0 || migrants > cfg.Evolve.pop / 2 then
    invalid_arg "Islands.run: migrants must be in [0, pop/2]";
  let island_cfg i = { cfg with Evolve.seed = island_seed cfg.Evolve.seed i } in
  (* validates cfg too (per island, but identically shaped) *)
  let populations =
    Array.init islands (fun i -> Evolve.initial_population (island_cfg i))
  in
  let cancelled () =
    match cancel with Some c -> Cancel.cancelled c | None -> false
  in
  (* one domain per island, each spawning its own fitness domains: cap
     the product at what the runtime will run at once *)
  let fan_out = max 1 (min islands (Par.clamp_max / cfg.Evolve.domains)) in
  let total = cfg.Evolve.gens in
  let best = ref None in
  (* (fitness, size, island, genome); Evolve.better on the first three *)
  let note_best (f, s, i, g) =
    match !best with
    | Some (f0, s0, i0, _) when not (Evolve.better (f, s, i) (f0, s0, i0)) -> ()
    | _ -> best := Some (f, s, i, g)
  in
  let found = ref None in
  let note_found gen i =
    match !found with
    | Some (g0, i0) when (g0, i0) <= (gen, i) -> ()
    | _ -> found := Some (gen, i)
  in
  let interrupted = ref false in
  let start_gen = ref 0 in
  let epochs_run = ref 0 in
  while !start_gen < total && !found = None && not !interrupted do
    if cancelled () then interrupted := true
    else begin
      let gens = min epoch (total - !start_gen) in
      let sg = !start_gen and e = !epochs_run in
      let segments =
        Par.map_list ~domains:fan_out
          (fun i ->
            Span.run ~sink ~name:"evolve/island" (fun sp ->
                Span.add sp "island" (Sink.Int i);
                Span.add sp "epoch" (Sink.Int e);
                Evolve.run_segment ~sink ?cancel (island_cfg i) ~start_gen:sg
                  ~gens populations.(i)))
          (List.init islands Fun.id)
      in
      (* a segment cut short by the cancel is not a barrier: keep the
         last one *)
      if cancelled () then interrupted := true
      else begin
        List.iteri
          (fun i seg ->
            populations.(i) <- seg.Evolve.seg_population;
            note_best
              (seg.Evolve.seg_best_fitness, seg.Evolve.seg_best_size, i,
               seg.Evolve.seg_best);
            Option.iter (fun gen -> note_found gen i) seg.Evolve.seg_found_at)
          segments;
        Metrics.incr c_epochs;
        incr epochs_run;
        start_gen := sg + gens;
        (* ring migration: island i's head overwrites island i+1's
           tail; skipped on a find (the run is over) *)
        if !found = None && migrants > 0 && islands > 1 then begin
          let heads =
            Array.map (fun pop -> Array.sub pop 0 migrants) populations
          in
          Array.iteri
            (fun i pop ->
              let src = heads.((i + islands - 1) mod islands) in
              Array.blit src 0 pop (Array.length pop - migrants) migrants;
              Metrics.add c_migrations migrants)
            populations
        end
      end
    end
  done;
  let best_fitness, best_size, _, best =
    match !best with
    | Some b -> b
    | None ->
        (* cancelled before the first barrier *)
        (0, Genome.size populations.(0).(0), 0, populations.(0).(0))
  in
  {
    found = !found;
    best;
    best_fitness;
    best_size;
    generations =
      (match !found with Some (gen, _) -> gen + 1 | None -> !start_gen);
    epochs_run = !epochs_run;
    populations;
    interrupted = !interrupted;
  }
