(* Slow searches excluded from the tier-1 `dune runtest` wall: run with
   `dune build @search-slow` (or `make test-slow`). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let certify n want =
  match Driver.optimal_depth ~n () with
  | Driver.Sorted { depth; moves; stats } ->
      check_int (Printf.sprintf "n=%d optimal depth" n) want depth;
      check_bool "witness verifies" true (Driver.verify_witness ~n moves);
      Printf.printf "n=%d: depth %d, %d nodes, peak frontier %d\n%!" n depth
        stats.Driver.nodes stats.Driver.peak_frontier
  | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
      Alcotest.failf "n=%d search failed" n

let test_n7 () = certify 7 6
let test_n8 () = certify 8 6

let test_n7_reference_agreement () =
  (* the equality-dedup reference confirms the pruned optimum at n=7
     and quantifies what subsumption buys at this size *)
  let pruned_nodes =
    match Driver.optimal_depth ~n:7 () with
    | Driver.Sorted { depth; stats; _ } ->
        check_int "pruned depth" 6 depth;
        stats.Driver.nodes
    | _ -> Alcotest.fail "pruned n=7 failed"
  in
  match Driver.optimal_depth ~restrict:false ~n:7 () with
  | Driver.Sorted { depth; stats; _ } ->
      check_int "reference depth" 6 depth;
      check_bool
        (Printf.sprintf "pruning ratio %d/%d >= 10" stats.Driver.nodes
           pruned_nodes)
        true
        (stats.Driver.nodes >= 10 * pruned_nodes)
  | _ -> Alcotest.fail "reference n=7 failed"

let test_shuffle_n8_depth5_refuted () =
  (* the E11 headline: no 5-stage shuffle-based sorter for n=8, with the
     counts recorded when shuffle moves still ran a per-mask transition *)
  match
    Driver.run
      ~budget:{ Driver.max_nodes = 2_000_000_000; max_seconds = None }
      ~max_depth:5 (Min_depth.system ~n:8)
  with
  | Driver.Unsorted s ->
      check_int "nodes" 10_447_616 s.Driver.nodes;
      check_int "pruned" 5_083_716 s.Driver.pruned;
      check_int "deduped" 89_426 s.Driver.deduped;
      check_bool "frontier sizes" true
        (s.Driver.frontier_sizes = [ 80; 5848; 14438; 20444; 0 ])
  | Driver.Sorted _ -> Alcotest.fail "a 5-stage shuffle sorter would be news"
  | Driver.Inconclusive _ | Driver.Interrupted _ -> Alcotest.fail "budget too small"

let test_n9_depth5_domains () =
  (* the arena's largest filter: level 4 of the n=9 depth-5 refutation
     filters ~389k candidates, in parallel at 2 domains; every count and
     logged frontier must match the 1-domain run *)
  let sys = Driver.network_system ~n:9 () in
  let run domains =
    let log = ref [] and sink, events = Sink.memory () in
    let frontier_log ~level states =
      log := (level, List.map State.key states) :: !log
    in
    match Driver.run ~domains ~sink ~frontier_log ~max_depth:5 sys with
    | Driver.Unsorted s ->
        let filter_domains =
          List.fold_left
            (fun acc e ->
              match List.assoc_opt "filter_domains" e.Sink.fields with
              | Some (Sink.Int d) -> max acc d
              | _ -> acc)
            0 (events ())
        in
        ( ( (s.Driver.nodes, s.Driver.pruned, s.Driver.deduped),
            (s.Driver.subsumed, s.Driver.redundant, s.Driver.frontier_sizes) ),
          !log,
          filter_domains )
    | _ -> Alcotest.fail "n=9 has no depth-5 sorting network"
  in
  let stats1, log1, _ = run 1 and stats2, log2, fd2 = run 2 in
  check_bool "n=9 depth 5: stats identical at 1 and 2 domains" true (stats1 = stats2);
  check_bool "n=9 depth 5: frontier logs identical" true (log1 = log2);
  check_bool "n=9 depth 5: the filter ran on 2 domains" true (fd2 = 2)

let () =
  Alcotest.run "search-slow"
    [ ( "driver",
        [ Alcotest.test_case "n=7 optimal depth 6" `Slow test_n7;
          Alcotest.test_case "n=8 optimal depth 6" `Slow test_n8;
          Alcotest.test_case "n=7 reference agreement" `Slow
            test_n7_reference_agreement;
          Alcotest.test_case "no 5-stage shuffle sorter at n=8" `Slow
            test_shuffle_n8_depth5_refuted;
          Alcotest.test_case "n=9 depth 5 identical at 1 and 2 domains" `Slow
            test_n9_depth5_domains ] ) ]
