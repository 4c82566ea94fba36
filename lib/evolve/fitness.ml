let c_evals = Metrics.counter "evolve.evals"

let max_fitness ~wires =
  if wires < 2 || wires > 24 then
    invalid_arg (Printf.sprintf "Fitness.max_fitness: wires %d outside [2,24]" wires);
  1 lsl wires

let compiled c =
  let hi = max_fitness ~wires:(Compiled.wires c) in
  Metrics.incr c_evals;
  Bitslice.count_sorted_range c ~lo:0 ~hi

let genome g = compiled (Compiled.of_network (Genome.to_network g))

(* a subrange sweep only pays once a genome's 2^wires range dwarfs the
   cost of scheduling it: 2^12 inputs = 64 bit-sliced blocks *)
let chunk_min = 1 lsl 12

let population ?(domains = 1) gs =
  let len = Array.length gs in
  if len = 0 then [||]
  else begin
    (* compile once per genome up front; the compiled streams are
       immutable and shared read-only across domains, so a work unit is
       (genome index, input subrange) — when the population alone
       cannot feed every domain (few wide genomes), each genome's
       [0, 2^wires) sweep splits into subranges and the counts are
       summed back per genome, which is exact and order-independent *)
    let cs = Array.map (fun g -> Compiled.of_network (Genome.to_network g)) gs in
    Array.iter (fun _ -> Metrics.incr c_evals) cs;
    let target = 2 * domains in
    let units = ref [] in
    for i = len - 1 downto 0 do
      let hi = max_fitness ~wires:(Compiled.wires cs.(i)) in
      let pieces =
        if domains = 1 || len >= target then 1
        else min ((target + len - 1) / len) (max 1 (hi / chunk_min))
      in
      for p = pieces - 1 downto 0 do
        units := (i, hi * p / pieces, hi * (p + 1) / pieces) :: !units
      done
    done;
    let split = List.length !units > len in
    let counts =
      Par.map_list
        ~min_per_domain:(if split then 1 else 16)
        ~domains
        (fun (i, lo, hi) -> (i, Bitslice.count_sorted_range cs.(i) ~lo ~hi))
        !units
    in
    let out = Array.make len 0 in
    List.iter (fun (i, c) -> out.(i) <- out.(i) + c) counts;
    out
  end

let sample g ~masks =
  Metrics.incr c_evals;
  Bitslice.count_sorted_masks (Compiled.of_network (Genome.to_network g)) masks

let population_sample ?(domains = 1) gs ~masks =
  Array.of_list
    (Par.map_list ~min_per_domain:16 ~domains
       (fun g -> sample g ~masks)
       (Array.to_list gs))
