(* Benchmark harness.

   Part 1 (Bechamel): one microbenchmark per experiment (E1..E10) timing
   the computational kernel that regenerates it, plus throughput
   benchmarks of the substrate kernels (network evaluation per sorter,
   engine-backed 0-1 verification, tracing, Benes routing) and the
   compiled-engine microbenchmarks (compile cost, scalar compiled eval,
   batch eval, bit-sliced verification vs the scalar per-input
   baseline).

   Part 2: the full experiment tables of EXPERIMENTS.md, printed via the
   experiment registry (quick sweeps by default; set SNLB_BENCH_FULL=1
   for the full sweeps).

   Setting SNLB_BENCH_JSON=<path> instead runs only the engine
   microbenchmarks and writes a { "name": ns_per_op } JSON file for
   cross-PR perf tracking (see `make bench-json`). *)

open Bechamel
open Toolkit

(* --- benchmark subjects --- *)

let n_bench = 1024
let d_bench = 10

let pre_rng () = Xoshiro.of_seed 1234

let sorter_eval_tests =
  List.map
    (fun e ->
      let nw = e.Sorter_registry.build n_bench in
      let rng = pre_rng () in
      let input = Workload.random_permutation rng ~n:n_bench in
      Test.make
        ~name:(Printf.sprintf "eval/%s/n=%d" e.Sorter_registry.name n_bench)
        (Staged.stage (fun () -> ignore (Network.eval nw input))))
    Sorter_registry.all

(* The scalar 0-1 baseline the engine is measured against: one
   interpretive Network.eval per test input, 2^n inputs. *)
let scalar_zero_one nw =
  let n = Network.wires nw in
  let ok = ref true in
  for t = 0 to (1 lsl n) - 1 do
    if !ok then begin
      let input = Array.init n (fun w -> (t lsr w) land 1) in
      if not (Sortedness.is_sorted (Network.eval nw input)) then ok := false
    end
  done;
  !ok

let engine_tests =
  let rng = pre_rng () in
  let nw16 = Bitonic.network ~n:16 in
  let c16 = Cache.compile nw16 in
  let big = Bitonic.network ~n:n_bench in
  let cbig = Cache.compile big in
  let input = Workload.random_permutation rng ~n:n_bench in
  let batch = Workload.permutation_batch rng ~n:n_bench ~count:64 in
  [ Test.make ~name:"engine/compile/bitonic-n=1024"
      (Staged.stage (fun () -> ignore (Compiled.of_network big)));
    Test.make ~name:"engine/eval/bitonic-n=1024"
      (Staged.stage (fun () -> ignore (Compiled.eval cbig input)));
    Test.make ~name:"engine/eval-many-64/bitonic-n=1024"
      (Staged.stage (fun () -> ignore (Compiled.eval_many cbig batch)));
    Test.make ~name:"engine/zero-one-bitsliced/bitonic-n=16"
      (Staged.stage (fun () -> ignore (Bitslice.is_sorting_network c16)));
    Test.make ~name:"engine/zero-one-bitsliced-4dom/bitonic-n=16"
      (Staged.stage (fun () ->
           ignore (Bitslice.is_sorting_network ~domains:4 c16)));
    Test.make ~name:"verify/zero-one-scalar/bitonic-n=16"
      (Staged.stage (fun () -> ignore (scalar_zero_one nw16))) ]

let kernel_tests =
  let rng = pre_rng () in
  let nw16 = Bitonic.network ~n:16 in
  let input_bench = Workload.random_permutation rng ~n:n_bench in
  let bitonic_big = Bitonic.network ~n:n_bench in
  let perm = Perm.random rng n_bench in
  [ Test.make ~name:"verify/zero-one-engine/bitonic-n=16"
      (Staged.stage (fun () -> ignore (Zero_one.is_sorting_network nw16)));
    Test.make ~name:"verify/zero-one-engine-4dom/bitonic-n=16"
      (Staged.stage (fun () ->
           ignore (Zero_one.is_sorting_network ~domains:4 nw16)));
    Test.make ~name:"io/serialise+parse/bitonic-n=1024"
      (Staged.stage (fun () ->
           match Network_io.of_string (Network_io.to_string bitonic_big) with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"trace/bitonic/n=1024"
      (Staged.stage (fun () -> ignore (Trace.run bitonic_big input_bench)));
    Test.make ~name:"route/benes/n=1024"
      (Staged.stage (fun () -> ignore (Benes.route perm)));
    Test.make ~name:"build/bitonic-shuffle-program/n=1024"
      (Staged.stage (fun () -> ignore (Bitonic.shuffle_program ~n:n_bench)));
    (let v = Array.init n_bench (fun i -> i) in
     Test.make ~name:"machine/prefix-scan/n=1024"
       (Staged.stage (fun () -> ignore (Prefix.scan ~n:n_bench ~op:( + ) v))));
    (let v = Array.init n_bench (fun i -> i * 37) in
     Test.make ~name:"machine/ntt-forward/n=1024"
       (Staged.stage (fun () -> ignore (Ntt.forward ~n:n_bench v)))) ]

(* One kernel bench per experiment table. *)
let experiment_tests =
  let rng = pre_rng () in
  let block_rd =
    Random_net.reverse_delta rng ~levels:d_bench ~density:0.9 ~swap_prob:0.1
  in
  let rand_prog = Shuffle_net.random_program rng ~n:n_bench ~stages:(3 * d_bench) in
  let rand_it = Shuffle_net.to_iterated rand_prog in
  let rand_nw = Iterated.to_network rand_it in
  let bitonic_it = Bitonic.as_iterated ~n:n_bench in
  let bitonic_prog = Bitonic.shuffle_program ~n:n_bench in
  let cert_result = Theorem41.run rand_it in
  let e9_prefix =
    let stages =
      List.filteri (fun i _ -> i < 5 * d_bench) (Register_model.stages bitonic_prog)
    in
    Register_model.to_network (Register_model.create ~n:n_bench stages)
  in
  let e9_input = Workload.random_permutation rng ~n:n_bench in
  [ Test.make ~name:"E1/lemma41-block/n=1024"
      (Staged.stage (fun () ->
           let st = Mset.create ~n:n_bench ~k:d_bench in
           ignore (Lemma41.run st block_rd)));
    Test.make ~name:"E2/theorem41-3-blocks/n=1024"
      (Staged.stage (fun () -> ignore (Theorem41.run rand_it)));
    Test.make ~name:"E3/certificate-extract+validate/n=1024"
      (Staged.stage (fun () ->
           match Certificate.of_pattern cert_result.Theorem41.final_pattern with
           | Some cert -> assert (Certificate.validate rand_nw cert = Ok ())
           | None -> ()));
    Test.make ~name:"E4/naive-adversary/n=1024"
      (Staged.stage (fun () -> ignore (Naive.run rand_nw)));
    Test.make ~name:"E5/depth-formulas"
      (Staged.stage (fun () ->
           ignore (Bitonic.depth_formula ~n:n_bench);
           ignore (Theorem41.depth_lower_bound ~n:n_bench)));
    Test.make ~name:"E6/theorem41-vs-bitonic/n=1024"
      (Staged.stage (fun () -> ignore (Theorem41.run bitonic_it)));
    Test.make ~name:"E7/adaptive-steering-2-blocks/n=256"
      (Staged.stage (fun () ->
           ignore (Adaptive.run ~n:256 ~blocks:2 Adaptive.steering_killer)));
    Test.make ~name:"E8/truncated-f=5/n=1024"
      (Staged.stage (fun () -> ignore (Truncated.run ~f:5 bitonic_prog)));
    Test.make ~name:"E9/prefix-eval/n=1024"
      (Staged.stage (fun () -> ignore (Network.eval e9_prefix e9_input)));
    Test.make ~name:"E10/shuffle-block-parse/n=1024"
      (Staged.stage (fun () ->
           ignore (Shuffle_net.to_iterated rand_prog)));
    Test.make ~name:"E11/min-depth-search/n=4-depth-3"
      (Staged.stage (fun () ->
           match Min_depth.search ~n:4 ~depth:3 () with
           | Min_depth.Sorter _ -> ()
           | Min_depth.Impossible | Min_depth.Inconclusive | Min_depth.Interrupted -> assert false));
    Test.make ~name:"E12/shellsort-build/ciura-n=1024"
      (Staged.stage (fun () ->
           ignore
             (Shellsort_net.network ~n:n_bench
                ~increments:(Shellsort_net.ciura ~n:n_bench)))) ]

let all_tests =
  Test.make_grouped ~name:"snlb"
    (experiment_tests @ engine_tests @ kernel_tests @ sorter_eval_tests)

let run_bechamel tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  (* plain-text rendering: ns/run and words/run per test *)
  let tbl =
    Ascii_table.create
      ~columns:
        [ ("benchmark", Ascii_table.Left);
          ("time/run", Ascii_table.Right);
          ("minor-alloc/run", Ascii_table.Right) ]
  in
  let value_of results name =
    match Hashtbl.find_opt results name with
    | None -> None
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> Some est
        | Some [] | None -> None)
  in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let alloc = Hashtbl.find merged (Measure.label Instance.minor_allocated) in
  let names = ref [] in
  Hashtbl.iter (fun name _ -> names := name :: !names) clock;
  let pp_time ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun name ->
      let time =
        match value_of clock name with None -> "-" | Some v -> pp_time v
      in
      let words =
        match value_of alloc name with
        | None -> "-"
        | Some v -> Printf.sprintf "%.0f w" v
      in
      Ascii_table.add_row tbl [ name; time; words ])
    (List.sort compare !names);
  print_endline "=== Bechamel microbenchmarks ===";
  Ascii_table.print tbl;
  (* name -> ns/op for callers that post-process (speedup, JSON) *)
  List.filter_map
    (fun name ->
      match value_of clock name with
      | None -> None
      | Some ns -> Some (name, ns))
    (List.sort compare !names)

let report_engine_speedup results =
  let find suffix =
    List.find_opt (fun (name, _) -> String.ends_with ~suffix name) results
  in
  match
    ( find "verify/zero-one-scalar/bitonic-n=16",
      find "engine/zero-one-bitsliced/bitonic-n=16" )
  with
  | Some (_, scalar), Some (_, sliced) when sliced > 0. ->
      Printf.printf
        "\nengine speedup: bit-sliced 0-1 verification of bitonic n=16 is \
         %.0fx the scalar per-input baseline (%.2f ms -> %.3f ms)\n"
        (scalar /. sliced) (scalar /. 1e6) (sliced /. 1e6)
  | _ -> ()

(* Every file leads with the host's core count, so a row's numbers
   can be read against the parallelism that produced them. *)
let write_json path results =
  let results =
    ("host/cores", float_of_int (Domain.recommended_domain_count ()))
    :: results
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %.2f%s\n" name ns
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s (%d benchmarks, ns/op)\n" path (List.length results)

(* Global observability counters, folded into the JSON files so the
   perf trajectory carries cache behaviour (hits / misses / evictions)
   and search work (nodes / pruned / subsumed) alongside ns/op. *)
let obs_rows () =
  let counters =
    List.map
      (fun (name, v) -> ("obs/" ^ name, float_of_int v))
      (Metrics.counters ())
  in
  let hists =
    List.concat_map
      (fun (name, s) ->
        [ ("obs/" ^ name ^ ".count", float_of_int s.Metrics.count);
          ("obs/" ^ name ^ ".mean", Metrics.mean s) ])
      (Metrics.histograms ())
  in
  counters @ hists

(* Batch evaluation of arbitrary masks: the sorted-output count of an
   8192-mask random sample through the compiled bitonic n=16 (best of
   5), checked against the interpretive Network.eval count. *)
let eval_many_rows () =
  let wires = 16 in
  let nw = Bitonic.network ~n:wires in
  let c = Cache.compile nw in
  let rng = pre_rng () in
  let masks = Array.init 8192 (fun _ -> Xoshiro.int rng ~bound:(1 lsl wires)) in
  let expect =
    Array.fold_left
      (fun acc mask ->
        let input = Array.init wires (fun w -> (mask lsr w) land 1) in
        if Sortedness.is_sorted (Network.eval nw input) then acc + 1 else acc)
      0 masks
  in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Clock.wall () in
    assert (Bitslice.count_sorted_masks c masks = expect);
    best := min !best (Clock.wall () -. t0)
  done;
  [ ("engine/eval-many/wall_ms", !best *. 1e3) ]

(* The paper's pipeline by layer, on the seed-1 2-block random shuffle
   program of 16384 wires (snbench's prove input): its reverse delta
   decomposition, the flattened circuit, the fooling pair's validation,
   and the emitted certificate's printing, parsing and independent
   check. Each row is the median of 5 runs after one warm-up. *)
let adversary_rows () =
  let n = 16384 in
  let prog =
    Shuffle_net.random_program (Xoshiro.of_seed 1) ~n
      ~stages:(2 * Bitops.log2_exact n)
  in
  let it = Shuffle_net.to_iterated prog in
  let nw = Iterated.to_network it in
  let cert =
    match Certificate.of_pattern (Theorem41.run it).Theorem41.final_pattern with
    | Some c -> c
    | None -> failwith "adversary_rows: no fooling pair"
  in
  let lb =
    match Certificate.to_cert (Register_model.to_network prog) cert with
    | Ok c -> c
    | Error e -> failwith ("adversary_rows: " ^ e)
  in
  let median_ms f =
    ignore (f ());
    let times =
      List.init 5 (fun _ ->
          let t0 = Clock.wall () in
          ignore (f ());
          Clock.wall () -. t0)
    in
    List.nth (List.sort compare times) 2 *. 1e3
  in
  [ ("adversary/n=16384/to_iterated_ms", median_ms (fun () -> Shuffle_net.to_iterated prog));
    ("adversary/n=16384/to_network_ms", median_ms (fun () -> Iterated.to_network it));
    ( "adversary/n=16384/validate_ms",
      median_ms (fun () -> assert (Certificate.validate nw cert = Ok ())) );
    ("cert/lower-bound/n=16384/print_ms", median_ms (fun () -> Cert.to_string lb));
    ( "cert/lower-bound/n=16384/parse_ms",
      let text = Cert.to_string lb in
      median_ms (fun () -> assert (Result.is_ok (Cert.parse text))) );
    ("cert/lower-bound/n=16384/check_ms", median_ms (fun () -> assert (Cert.check lb = Ok ()))) ]

(* Search-engine throughput: wall-clock rows for the exact-bounds BFS,
   written as the same flat name -> float JSON as the engine file. Each
   configuration contributes wall_ms / nodes / nodes_per_s /
   peak_frontier / depth. The pruned n=6 run is the headline
   (optimal-depth certification); the subsumption-free reference run
   exposes the node reduction the pruning buys; the multi-domain rows
   exercise the parallel signature pass and subsumption filter (any
   speedup is hardware-dependent — a single-core host shows pure
   domain overhead). *)
let search_json_rows () =
  let k = max 2 (Par.recommended_domains ()) in
  let time_run ?checkpoint ~tag ~restrict ~domains n =
    let t0 = Clock.wall () in
    let outcome = Driver.optimal_depth ?checkpoint ~restrict ~domains ~n () in
    let wall = Clock.wall () -. t0 in
    let stats, depth =
      match outcome with
      | Driver.Sorted { depth; stats; _ } -> (stats, depth)
      | Driver.Unsorted stats | Driver.Inconclusive stats | Driver.Interrupted stats -> (stats, -1)
    in
    let prefix = Printf.sprintf "search/n=%d/%s/domains=%d" n tag domains in
    [ (prefix ^ "/wall_ms", wall *. 1e3);
      (prefix ^ "/nodes", float_of_int stats.Driver.nodes);
      ( prefix ^ "/nodes_per_s",
        if wall > 0. then float_of_int stats.Driver.nodes /. wall else 0. );
      (prefix ^ "/pruned", float_of_int stats.Driver.pruned);
      (prefix ^ "/deduped", float_of_int stats.Driver.deduped);
      (prefix ^ "/subsumed", float_of_int stats.Driver.subsumed);
      (prefix ^ "/redundant", float_of_int stats.Driver.redundant);
      (prefix ^ "/peak_frontier", float_of_int stats.Driver.peak_frontier);
      (prefix ^ "/elapsed_wall_s", stats.Driver.elapsed);
      (prefix ^ "/elapsed_cpu_s", stats.Driver.elapsed_cpu);
      (prefix ^ "/depth", float_of_int depth) ]
  in
  (* checkpointing overhead: the same n=7 pruned search with
     checkpointing on. pruned-ckpt uses the CLI's default 60 s cadence
     — on a sub-second run no write falls due, so the row isolates the
     steady-state cost between flushes (a closure per boundary), which
     must stay < 2% of the plain run. pruned-ckpt0 flushes at every
     boundary (interval 0), the worst case, so the obs/checkpoint.*
     rows alongside carry real write counts, bytes and timings. *)
  let checkpointed ~tag ~interval =
    let path = Filename.temp_file "snlb-bench" ".snap" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; Atomic_file.backup_path path ])
      (fun () ->
        time_run ~checkpoint:(path, interval) ~tag ~restrict:true ~domains:1 7)
  in
  (* snbench's search-n9 (the n=9 depth-5 refutation) split by phase:
     the wall time is the run's "search" span and the phase times are
     summed over its "search/level" spans, so these rows and a --trace
     of the same run read one clock *)
  let phased ~domains =
    let sink, events = Sink.memory () in
    let sys = Driver.network_system ~n:9 () in
    (match Driver.run ~domains ~sink ~max_depth:5 sys with
     | Driver.Unsorted _ -> ()
     | _ -> failwith "search_json_rows: n=9 depth 5 must be refuted");
    let sum name key =
      List.fold_left
        (fun acc (e : Sink.event) ->
          match List.assoc_opt key e.fields with
          | Some (Sink.Float f) when e.name = name -> acc +. f
          | _ -> acc)
        0. (events ())
    in
    let prefix = Printf.sprintf "search/n=9/depth=5/domains=%d" domains in
    [ (prefix ^ "/wall_ms", sum "search" "wall_s" *. 1e3);
      (prefix ^ "/expand_ms", sum "search/level" "expand_s" *. 1e3);
      (prefix ^ "/sign_ms", sum "search/level" "sign_s" *. 1e3);
      (prefix ^ "/filter_ms", sum "search/level" "filter_s" *. 1e3) ]
  in
  List.concat
    [ time_run ~tag:"pruned" ~restrict:true ~domains:1 6;
      time_run ~tag:"pruned" ~restrict:true ~domains:k 6;
      time_run ~tag:"reference" ~restrict:false ~domains:1 6;
      time_run ~tag:"reference" ~restrict:false ~domains:k 6;
      time_run ~tag:"pruned" ~restrict:true ~domains:1 7;
      time_run ~tag:"pruned" ~restrict:true ~domains:k 7;
      checkpointed ~tag:"pruned-ckpt" ~interval:60.;
      checkpointed ~tag:"pruned-ckpt0" ~interval:0.;
      phased ~domains:1;
      phased ~domains:2 ]

(* Analyzer throughput: repeated full analyses (structural lints, both
   abstract domains' walk, conformance recognizers) of mid-size bitonic
   networks, reported as networks/sec and comparators/sec so analyzer
   perf regressions show up in the same trajectory as engine ns/op.
   n = 16/32 sit above the exact-domain cutoff, so these rows time the
   order-bounds domain — the one that scales with network size. One
   analysis takes tens of microseconds, so the repetition count doubles
   until a batch takes 0.2 s, and each row reports the median of 5 such
   batches. *)
let analysis_json_rows () =
  let time_net ~name nw =
    let comparators = Network.size nw in
    let batch reps =
      let t0 = Clock.wall () in
      for _ = 1 to reps do
        ignore (Analysis.analyze nw)
      done;
      Clock.wall () -. t0
    in
    let rec size reps = if batch reps >= 0.2 then reps else size (2 * reps) in
    let reps = size 100 in
    let per =
      List.nth (List.sort compare (List.init 5 (fun _ -> batch reps))) 2
      /. float_of_int reps
    in
    let prefix = "analysis/" ^ name in
    [ (prefix ^ "/wall_ms", per *. 1e3);
      (prefix ^ "/networks_per_s", if per > 0. then 1. /. per else 0.);
      ( prefix ^ "/comparators_per_s",
        if per > 0. then float_of_int comparators /. per else 0. ) ]
  in
  List.concat
    [ time_net ~name:"bitonic-n=16" (Bitonic.network ~n:16);
      time_net ~name:"bitonic-n=32" (Bitonic.network ~n:32) ]

(* Serve scheduler throughput: the in-process Batcher under a 32-client
   concurrent workload, batched (gather window + shared engine passes)
   vs sequential one-request-per-pass (window 0, max_batch 1) — the
   same baseline mode the daemon degrades to with batching disabled.
   Each client's call runs inside Batcher.request, as a session's
   does, so a round closes once every client in flight has queued.
   Two workloads: 0-1 eval requests, which lane-pack up to 64 clients
   per bit-sliced pass (lane_fill_ratio = lanes used / 64 * passes),
   and verify requests on one network, which coalesce into a single
   2^n sweep per round. The cache is off so every row measures
   scheduler + engine work, not response-cache hits. *)
let serve_json_rows () =
  let clients = 32 in
  let nw = Odd_even_merge.network ~n:16 in
  let run_clients ~config ~per_client ~job =
    let b = Batcher.create config in
    let t0 = Clock.wall () in
    let threads =
      List.init clients (fun c ->
          Thread.create
            (fun () ->
              for k = 1 to per_client do
                Batcher.request b (fun () -> job b c k)
              done)
            ())
    in
    List.iter Thread.join threads;
    let wall = Clock.wall () -. t0 in
    Batcher.drain b;
    let n = clients * per_client in
    (wall, if wall > 0. then float_of_int n /. wall else 0.)
  in
  let batched =
    { Batcher.window = 0.001; max_batch = 1024; domains = 1; cache = None }
  in
  let sequential =
    { Batcher.window = 0.; max_batch = 1; domains = 1; cache = None }
  in
  let rows ~tag ~rps_b ~rps_s ~work_name ~work_b ~work_s =
    let prefix m = Printf.sprintf "serve/%s/%s" tag m in
    [ (prefix "batched/requests_per_s", rps_b);
      (prefix "sequential/requests_per_s", rps_s);
      (prefix "speedup", if rps_s > 0. then rps_b /. rps_s else 0.);
      (prefix ("batched/" ^ work_name), float_of_int work_b);
      (prefix ("sequential/" ^ work_name), float_of_int work_s) ]
  in
  let verify_job b _ _ = ignore (Batcher.verify b nw) in
  let verify_rows =
    let s0 = Batcher.sweeps () in
    let _, rps_b =
      run_clients ~config:batched ~per_client:8 ~job:verify_job
    in
    let s1 = Batcher.sweeps () in
    let _, rps_s =
      run_clients ~config:sequential ~per_client:8 ~job:verify_job
    in
    rows ~tag:"verify" ~rps_b ~rps_s ~work_name:"sweeps" ~work_b:(s1 - s0)
      ~work_s:(Batcher.sweeps () - s1)
  in
  let eval_job b c k =
    ignore (Batcher.eval01 b nw (((c * 131) + (k * 7919)) land 0xFFFF))
  in
  let eval_rows =
    let p0 = Batcher.eval_passes () and l0 = Batcher.eval_lanes () in
    let _, rps_b = run_clients ~config:batched ~per_client:32 ~job:eval_job in
    let p1 = Batcher.eval_passes () and l1 = Batcher.eval_lanes () in
    let _, rps_s =
      run_clients ~config:sequential ~per_client:32 ~job:eval_job
    in
    (* lanes/passes of the batched run: 1.0 would mean every bit-sliced
       pass carried a full 64 client inputs *)
    let fill =
      if p1 > p0 then
        float_of_int (l1 - l0) /. float_of_int ((p1 - p0) * Bitslice.lanes)
      else 0.
    in
    rows ~tag:"eval" ~rps_b ~rps_s ~work_name:"passes" ~work_b:(p1 - p0)
      ~work_s:(Batcher.eval_passes () - p1)
    @ [ ("serve/eval/lane_fill_ratio", fill) ]
  in
  verify_rows @ eval_rows

(* evolve: the population fitness kernel is the hot loop of the
   evolutionary search — one compile plus one lane-packed 2^n sweep
   per genome, fanned out over domains.  Rows give nets/s over a
   fixed population of random n=8 genomes at 1 and K domains, the
   generational driver end to end, and the differential fuzzer's
   whole-stack checking rate. *)
let evolve_json_rows () =
  let wires = 8 and depth = 6 and pop = 512 in
  let genomes =
    let rng = Xoshiro.of_seed 1 in
    Array.init pop (fun _ -> Genome.random rng ~wires ~depth ())
  in
  let time_fitness ~domains =
    let t0 = Clock.wall () in
    let fits = Fitness.population ~domains genomes in
    let wall = Clock.wall () -. t0 in
    assert (Array.length fits = pop);
    (wall, if wall > 0. then float_of_int pop /. wall else 0.)
  in
  (* on a single-core box the recommended count is 1; still measure a
     genuine multi-domain row (speedup < 1 there is honest data) *)
  let k = max 2 (Par.recommended_domains ()) in
  let _, nps1 = time_fitness ~domains:1 in
  let _, npsk = time_fitness ~domains:k in
  let row ~domains v =
    (Printf.sprintf "evolve/fitness/n=%d/pop=%d/domains=%d/nets_per_s" wires
       pop domains, v)
  in
  let run_row =
    let cfg =
      { (Evolve.default_config ~wires:6 ~depth:5) with Evolve.pop = 256;
        gens = 100; seed = 1 }
    in
    let t0 = Clock.wall () in
    let r = Evolve.run cfg in
    let wall = Clock.wall () -. t0 in
    assert (r.Evolve.found_at <> None);
    [ ("evolve/run/n=6/pop=256/wall_ms", wall *. 1e3);
      ("evolve/run/n=6/pop=256/generations",
       float_of_int r.Evolve.generations) ]
  in
  let fuzz_row =
    let r = Fuzz.run ~seconds:2.0 ~seed:1 () in
    assert (r.Fuzz.disagreements = []);
    [ ("fuzz/nets_per_s",
       if r.Fuzz.elapsed > 0. then
         float_of_int r.Fuzz.checked /. r.Fuzz.elapsed
       else 0.) ]
  in
  [ row ~domains:1 nps1; row ~domains:k npsk;
    ("evolve/fitness/speedup", if nps1 > 0. then npsk /. nps1 else 0.) ]
  @ run_row @ fuzz_row

let () =
  match Sys.getenv_opt "SNLB_BENCH_JSON" with
  | Some path ->
      (* The search rows run first, before the bechamel engine loop:
         moving them would shift their timings against earlier
         BENCH_search.json files. *)
      let search_out =
        match Sys.getenv_opt "SNLB_BENCH_SEARCH_JSON" with
        | Some search_path ->
            Metrics.reset ();
            let rows = search_json_rows () in
            Some (search_path, rows @ obs_rows ())
        | None -> None
      in
      Metrics.reset ();
      (* engine-only run: fast, machine-readable perf trajectory *)
      let results =
        run_bechamel (Test.make_grouped ~name:"snlb" engine_tests)
      in
      report_engine_speedup results;
      (* the obs/ rows carry whatever the bechamel loops accumulated in
         the global registry (cache hit/miss/eviction traffic, verify
         sweep rates) *)
      let obs = obs_rows () in
      let eval_many = eval_many_rows () in
      write_json path (results @ eval_many @ adversary_rows () @ obs);
      (match search_out with
       | Some (search_path, rows) -> write_json search_path rows
       | None -> ());
      (match Sys.getenv_opt "SNLB_BENCH_ANALYSIS_JSON" with
       | Some analysis_path ->
           Metrics.reset ();
           let rows = analysis_json_rows () in
           write_json analysis_path (rows @ obs_rows ())
       | None -> ());
      (match Sys.getenv_opt "SNLB_BENCH_SERVE_JSON" with
       | Some serve_path ->
           Metrics.reset ();
           let rows = serve_json_rows () in
           write_json serve_path (rows @ obs_rows ())
       | None -> ());
      (match Sys.getenv_opt "SNLB_BENCH_EVOLVE_JSON" with
       | Some evolve_path ->
           Metrics.reset ();
           let rows = evolve_json_rows () in
           write_json evolve_path (rows @ obs_rows ())
       | None -> ())
  | None ->
      let results = run_bechamel all_tests in
      report_engine_speedup results;
      let quick = Sys.getenv_opt "SNLB_BENCH_FULL" = None in
      Printf.printf
        "\n=== Experiment tables (%s sweeps; see EXPERIMENTS.md) ===\n"
        (if quick then "quick" else "full");
      Registry.run_all ~quick
