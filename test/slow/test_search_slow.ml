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

(* Hex MD5 of a logged frontier: each state's key words in decimal,
   a comma after each word and a semicolon after each state (as in
   test_search.ml). *)
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

(* A run's outcome, witness and stats without the elapsed times, its
   frontier log as (level, size, digest), and the most domains a
   level's filter used. *)
let logged ?checkpoint ?resume ?cancel ?(sink = Sink.null) ~domains ~max_depth sys =
  let log = ref [] and mem, events = Sink.memory () in
  let frontier_log ~level states =
    log := (level, List.length states, frontier_digest (List.map State.key states)) :: !log
  in
  let o =
    Driver.run ~domains ~sink:(Sink.tee sink mem) ?checkpoint ?resume ?cancel
      ~frontier_log ~max_depth sys
  in
  let stats (s : Driver.stats) =
    ( (s.nodes, s.pruned, s.deduped, s.subsumed, s.redundant),
      (s.frontier_sizes, s.peak_frontier, s.completed_levels) )
  in
  let key =
    match o with
    | Driver.Sorted { depth; moves; stats = s } -> (`Sorted (depth, moves), stats s)
    | Driver.Unsorted s -> (`Unsorted, stats s)
    | Driver.Inconclusive s -> (`Inconclusive, stats s)
    | Driver.Interrupted s -> (`Interrupted, stats s)
  in
  let filter_domains =
    List.fold_left
      (fun acc (e : Sink.event) ->
        match List.assoc_opt "filter_domains" e.fields with
        | Some (Sink.Int d) when e.name = "search/level" -> max acc d
        | _ -> acc)
      0 (events ())
  in
  (key, List.rev !log, filter_domains)

(* Frontier logs, witnesses and counts recorded when the filter still
   ran once over each whole level and kept every row it rejected. Only
   the deduped / subsumed split has moved since (n=8: 680 / 5328, n=9:
   39436 / 390742): a child equal to a dropped row is now subsumed. *)
let n8_log =
  [ (1, 1, "6d84c9a5e8b4d348ecdb31ab013b6ca9");
    (2, 4, "c14b97ca789e3edb0ba78ffd9fcadd77");
    (3, 29, "a8e2730490ae650f4022a0f750250603");
    (4, 26, "2caa32b7d595cc3ee18c3139cc4d5384");
    (5, 4, "9b283e9cc83765265225c6eaea03580d") ]

let n8_key =
  ( `Sorted
      ( 6,
        [ [ (0, 1); (2, 3); (4, 5); (6, 7) ];
          [ (0, 2); (1, 3); (4, 6); (5, 7) ];
          [ (0, 4); (1, 5); (2, 6); (3, 7) ];
          [ (1, 2); (3, 4); (5, 6) ];
          [ (1, 3); (2, 5); (4, 6) ];
          [ (2, 3); (4, 5) ] ] ),
    ((6075, 0, 675, 5333, 39725), ([ 1; 4; 29; 26; 4 ], 29, 5)) )

let n9_log =
  [ (1, 1, "2e23a19d239a56793b1a86a9f493084a");
    (2, 6, "0ffb5f7288d270a635876e58a4c1c191");
    (3, 670, "ae617ae4fb471d8e5eca33df44bc7920");
    (4, 4355, "1e08fd7ba48ec32a8093fd54a0a64823");
    (5, 0, "d41d8cd98f00b204e9800998ecf8427e") ]

let n9_key =
  ( `Unsorted,
    ((1473484, 0, 5507, 424671, 11702743), ([ 1; 6; 670; 4355; 0 ], 4355, 5)) )

let test_n8_depth6_pinned () =
  let sys = Driver.network_system ~n:8 () in
  List.iter
    (fun domains ->
      let key, log, _ = logged ~domains ~max_depth:6 sys in
      let what = Printf.sprintf "n=8 depth 6, %d domain(s)" domains in
      check_bool (what ^ ": witness and counts") true (key = n8_key);
      check_bool (what ^ ": frontier log") true (log = n8_log))
    [ 1; 2 ]

let test_n9_depth5_domains () =
  (* the arena's largest filter: level 4 of the n=9 depth-5 refutation
     filters ~430k candidates in chunks, in parallel at 2 domains; every
     count and logged frontier must match the pinned 1-domain run *)
  let sys = Driver.network_system ~n:9 () in
  List.iter
    (fun domains ->
      let key, log, fd = logged ~domains ~max_depth:5 sys in
      let what = Printf.sprintf "n=9 depth 5, %d domain(s)" domains in
      check_bool (what ^ ": verdict and counts") true (key = n9_key);
      check_bool (what ^ ": frontier log") true (log = n9_log);
      check_int (what ^ ": domains the filter used") domains fd)
    [ 1; 2 ]

let test_n9_cancel_mid_level () =
  (* cancelled in level 4 once several chunks were filtered; the
     interval keeps the level-3 boundary unwritten until the cancel, so
     the level's rows and reps must be rolled back first *)
  let sys = Driver.network_system ~n:9 () in
  let path = Filename.temp_file "snlb-n9" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Atomic_file.backup_path path ])
  @@ fun () ->
  let cancel = Cancel.create () and parents = ref 0 in
  let cancelling =
    { sys with
      Driver.redundant_of =
        (fun ~level st ->
          if level = 4 then begin
            incr parents;
            if !parents = 200 then Cancel.cancel cancel
          end;
          sys.Driver.redundant_of ~level st) }
  in
  let sink, events = Sink.memory () in
  let key, _, _ =
    logged ~sink ~checkpoint:(path, 3600.) ~cancel ~domains:2 ~max_depth:5 cancelling
  in
  check_bool "interrupted after level 3" true
    (match key with `Interrupted, (_, (_, _, 3)) -> true | _ -> false);
  let chunks =
    List.length
      (List.filter
         (fun (e : Sink.event) ->
           e.name = "search/chunk" && List.assoc_opt "level" e.fields = Some (Sink.Int 4))
         (events ()))
  in
  check_bool (Printf.sprintf "level 4 filtered %d chunks first" chunks) true (chunks >= 2);
  let resumes = Metrics.counter "checkpoint.resumes" in
  let before = Metrics.value resumes in
  let key, log, _ =
    logged ~checkpoint:(path, 3600.) ~resume:true ~domains:1 ~max_depth:5 sys
  in
  check_int "resume succeeded" (before + 1) (Metrics.value resumes);
  check_bool "resumed: verdict and counts" true (key = n9_key);
  check_bool "resumed: levels 4-5 of the log" true
    (log = List.filter (fun (l, _, _) -> l > 3) n9_log)

let () =
  Alcotest.run "search-slow"
    [ ( "driver",
        [ Alcotest.test_case "n=7 optimal depth 6" `Slow test_n7;
          Alcotest.test_case "n=8 optimal depth 6" `Slow test_n8;
          Alcotest.test_case "n=7 reference agreement" `Slow
            test_n7_reference_agreement;
          Alcotest.test_case "no 5-stage shuffle sorter at n=8" `Slow
            test_shuffle_n8_depth5_refuted;
          Alcotest.test_case "n=8 depth 6 pinned at 1 and 2 domains" `Slow
            test_n8_depth6_pinned;
          Alcotest.test_case "n=9 depth 5 pinned at 1 and 2 domains" `Slow
            test_n9_depth5_domains;
          Alcotest.test_case "n=9 cancelled mid-level resumes" `Slow
            test_n9_cancel_mid_level ] ) ]
