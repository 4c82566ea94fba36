(* Tests for the minimal-depth search (Section 6 / Knuth 5.3.4.47), a
   shuffle-restricted instantiation of the generic driver whose moves
   are staged on the search arena. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let budget max_nodes = { Driver.max_nodes; max_seconds = None }

let test_n2 () =
  match Min_depth.minimal_depth ~n:2 ~max_depth:2 () with
  | Min_depth.Minimal (1, prog) ->
      check_bool "verified" true (Min_depth.verify_witness ~n:2 prog)
  | Min_depth.Minimal (d, _) -> Alcotest.failf "n=2 minimal depth %d, want 1" d
  | Min_depth.No_sorter -> Alcotest.fail "n=2 must have a 1-stage sorter"
  | Min_depth.Unknown _ | Min_depth.Stopped _ -> Alcotest.fail "n=2 must be decidable"

let test_n4_exact () =
  (match Min_depth.search ~n:4 ~depth:2 () with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "no 2-stage sorter exists for n=4"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "n=4 depth 2 must be decidable");
  match Min_depth.minimal_depth ~n:4 ~max_depth:4 () with
  | Min_depth.Minimal (3, prog) ->
      check_bool "verified" true (Min_depth.verify_witness ~n:4 prog);
      check_int "matches bitonic" (Bitonic.depth_formula ~n:4) 3
  | Min_depth.Minimal (d, _) -> Alcotest.failf "n=4 minimal depth %d, want 3" d
  | Min_depth.No_sorter -> Alcotest.fail "bitonic is a 3-stage witness"
  | Min_depth.Unknown _ | Min_depth.Stopped _ -> Alcotest.fail "n=4 must be decidable"

let test_n8_depth3_impossible () =
  match Min_depth.search ~n:8 ~depth:3 () with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "no 3-stage sorter for n=8 (< trivial bound would be absurd... but 3 = lg n is still too shallow)"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "should be decidable"

let test_n8_depth4_impossible () =
  match Min_depth.search ~n:8 ~depth:4 ~budget:(budget 500_000_000) () with
  | Min_depth.Impossible -> ()
  | Min_depth.Sorter _ -> Alcotest.fail "depth-4 sorter for n=8 would be a discovery; recheck"
  | Min_depth.Inconclusive | Min_depth.Interrupted -> Alcotest.fail "budget too small"

(* --- the arena-staged shuffle move against the independent register
   model: staging op vector [ops] from a state must give the image of
   the state's masks under one stage of [Register_model.eval] --- *)

let image ~n ops masks =
  let prog = Register_model.shuffle_program ~n [ ops ] in
  let image m =
    let out = Register_model.eval prog (Array.init n (fun r -> (m lsr r) land 1)) in
    let m' = ref 0 in
    Array.iteri (fun r v -> if v = 1 then m' := !m' lor (1 lsl r)) out;
    !m'
  in
  State.of_masks ~n (List.map image masks)

(* the image of [masks] under [ops], staged on [arena] by the system *)
let staged sys arena ~n ops masks =
  Arena.stage_state arena (State.of_masks ~n masks);
  let parent = match Arena.commit arena ~level:0 with `Fresh i | `Dup i -> i in
  sys.Driver.stage arena ~parent ops;
  Arena.staged_state arena

let prop_stage_matches_eval =
  QCheck.Test.make ~name:"arena shuffle stage = Register_model.eval image (n=2,4,8)"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, which) ->
      let n = [| 2; 4; 8 |].(which) in
      let sys = Min_depth.system ~n in
      let rng = Xoshiro.of_seed seed in
      let masks =
        List.init
          (1 + Xoshiro.int rng ~bound:(1 lsl n))
          (fun _ -> Xoshiro.int rng ~bound:(1 lsl n))
      in
      let ops = Register_model.random_ops rng ~n in
      let arena = Arena.create ~with_sigs:false ~n () in
      State.equal (staged sys arena ~n ops masks) (image ~n ops masks))

let test_stage_single_masks () =
  (* every op vector on every single-mask state *)
  List.iter
    (fun n ->
      let sys = Min_depth.system ~n in
      let arena = Arena.create ~with_sigs:false ~n () in
      List.iter
        (fun ops ->
          for m = 0 to (1 lsl n) - 1 do
            if not (State.equal (staged sys arena ~n ops [ m ]) (image ~n ops [ m ]))
            then Alcotest.failf "n=%d mask %d: staged image differs" n m
          done)
        (sys.Driver.moves_at ~level:1))
    [ 2; 4; 8 ]

(* --- counts recorded from the search before shuffle moves were staged
   on the arena (then a per-mask transition): outcome, witness and
   every decision counter must not move --- *)

let run_stats ~n ~depth =
  match Driver.run ~max_depth:depth (Min_depth.system ~n) with
  | Driver.Sorted { stats; moves; _ } -> (Some moves, stats)
  | Driver.Unsorted stats -> (None, stats)
  | Driver.Inconclusive _ | Driver.Interrupted _ -> Alcotest.fail "must decide"

let check_counts what (s : Driver.stats) (nodes, pruned, deduped, sizes) =
  check_int (what ^ ": nodes") nodes s.Driver.nodes;
  check_int (what ^ ": pruned") pruned s.Driver.pruned;
  check_int (what ^ ": deduped") deduped s.Driver.deduped;
  check_bool (what ^ ": frontier sizes") true (s.Driver.frontier_sizes = sizes)

let test_pinned_n4_depth3 () =
  match run_stats ~n:4 ~depth:3 with
  | Some prog, s ->
      let show ops =
        String.concat "" (Array.to_list (Array.map (Format.asprintf "%a" Register_model.pp_op) ops))
      in
      Alcotest.(check (list string)) "witness" [ "-+"; "++"; "++" ] (List.map show prog);
      check_counts "n=4 depth 3" s (176, 114, 14, [ 8; 8 ])
  | None, _ -> Alcotest.fail "n=4 has a 3-stage sorter"

let test_pinned_n8_depth4 () =
  match run_stats ~n:8 ~depth:4 with
  | None, s -> check_counts "n=8 depth 4" s (71168, 40512, 427, [ 80; 80; 117; 0 ])
  | Some _, _ -> Alcotest.fail "no 4-stage sorter for n=8"

let test_bitonic_witness_shape () =
  (* the searcher's own witness format: feeding bitonic's op vectors
     through verify_witness *)
  let n = 8 in
  let prog = Bitonic.shuffle_program ~n in
  let opss = List.map (fun st -> st.Register_model.ops) (Register_model.stages prog) in
  check_bool "bitonic passes verify_witness" true (Min_depth.verify_witness ~n opss)

let test_budget_reported () =
  match Min_depth.search ~n:8 ~depth:5 ~budget:(budget 50) () with
  | Min_depth.Inconclusive -> ()
  | Min_depth.Interrupted -> Alcotest.fail "nothing cancels this run"
  | Min_depth.Sorter _ | Min_depth.Impossible ->
      Alcotest.fail "a 50-node budget cannot decide depth 5"

let test_minimal_unknown () =
  (* minimal_depth must report budget exhaustion distinguishably
     instead of raising *)
  match Min_depth.minimal_depth ~n:8 ~max_depth:5 ~budget:(budget 50) () with
  | Min_depth.Unknown k -> check_bool "refuted levels >= 0" true (k >= 0)
  | Min_depth.Stopped _ -> Alcotest.fail "nothing cancels this run"
  | Min_depth.Minimal _ | Min_depth.No_sorter ->
      Alcotest.fail "a 50-node budget cannot decide n=8"

let test_invalid_n () =
  check_bool "rejects n=6" true
    (match Min_depth.search ~n:6 ~depth:1 () with
     | exception Invalid_argument _ -> true
     | _ -> false)

let () =
  Alcotest.run "min_depth"
    [ ( "search",
        [ Alcotest.test_case "n=2" `Quick test_n2;
          Alcotest.test_case "n=4 exact minimum is 3" `Quick test_n4_exact;
          Alcotest.test_case "n=8 depth 3 impossible" `Quick test_n8_depth3_impossible;
          Alcotest.test_case "n=8 depth 4 impossible" `Quick test_n8_depth4_impossible;
          Alcotest.test_case "bitonic as witness" `Quick test_bitonic_witness_shape;
          Alcotest.test_case "budget honoured" `Quick test_budget_reported;
          Alcotest.test_case "minimal_depth reports Unknown" `Quick test_minimal_unknown;
          Alcotest.test_case "invalid n" `Quick test_invalid_n ] );
      ( "stage",
        [ QCheck_alcotest.to_alcotest prop_stage_matches_eval;
          Alcotest.test_case "every op vector on every single mask" `Quick
            test_stage_single_masks ] );
      ( "pinned",
        [ Alcotest.test_case "n=4 depth 3 witness and counts" `Quick
            test_pinned_n4_depth3;
          Alcotest.test_case "n=8 depth 4 counts" `Quick test_pinned_n8_depth4 ] ) ]
