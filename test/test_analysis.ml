(* Tests for the static analyzer (lib/analysis): exact and approximate
   abstract domains against exhaustive engine evaluation, dead
   classification soundness on random networks, the standard-form
   rewrite, topology conformance certificates, and the load gate. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- helpers --- *)

let zero_one_inputs n =
  Array.init (1 lsl n) (fun m ->
      Array.init n (fun w -> (m lsr w) land 1))

(* extensional equality on all 2^n zero-one inputs, via the compiled
   engine — independent of the analyzer's arithmetic *)
let same_zero_one_function a b =
  let n = Network.wires a in
  let ca = Cache.compile a and cb = Cache.compile b in
  Array.for_all
    (fun input -> Compiled.eval ca input = Compiled.eval cb input)
    (zero_one_inputs n)

let random_network rng ~n ~levels =
  let level () =
    let wires = Array.init n (fun i -> i) in
    (* Fisher–Yates, then pair a random prefix *)
    for i = n - 1 downto 1 do
      let j = Xoshiro.int rng ~bound:(i + 1) in
      let t = wires.(i) in
      wires.(i) <- wires.(j);
      wires.(j) <- t
    done;
    let pairs = Xoshiro.int rng ~bound:((n / 2) + 1) in
    List.init pairs (fun k ->
        let a = wires.(2 * k) and b = wires.((2 * k) + 1) in
        match Xoshiro.int rng ~bound:4 with
        | 0 -> Gate.Exchange { a; b }
        | 1 -> Gate.Compare { lo = max a b; hi = min a b }
        | _ -> Gate.Compare { lo = min a b; hi = max a b })
  in
  Network.of_gate_levels ~wires:n (List.init levels (fun _ -> level ()))

(* --- exact domain vs engine: 200 random networks, n <= 10 --- *)

let test_random_agreement () =
  let rng = Xoshiro.of_seed 2024 in
  for i = 1 to 200 do
    let n = 2 + Xoshiro.int rng ~bound:9 (* 2..10 *) in
    let levels = 1 + Xoshiro.int rng ~bound:8 in
    let nw = random_network rng ~n ~levels in
    let r = Analysis.analyze ~cross_check:true nw in
    check_bool "exact domain used" true r.facts.exact;
    (* sortedness verdict agrees with exhaustive evaluation *)
    let engine_sorts = Zero_one.is_sorting_network nw in
    let claimed = r.facts.sortedness = Analysis.Sorting_proved in
    if claimed <> engine_sorts then
      Alcotest.failf "net %d (n=%d): analyzer %b, engine %b" i n claimed
        engine_sorts;
    (* the built-in cross-check must agree too (no SNL999) *)
    check_bool "no internal disagreement" false
      (List.exists (fun (d : Diag.t) -> d.code = "SNL999") r.diags);
    (* removing dead comparators preserves the 0-1 function *)
    check_bool "dead removal preserves function" true
      (same_zero_one_function nw (Analysis.remove_dead nw r.facts))
  done

(* The exact domain against a reference that steps every 0-1 input
   through each level on its own: a comparator is dead iff NO input
   makes it act (lo=1/hi=0), an exchange never is because every gate's
   two wires differ on some reachable vector (the reason the analyzer
   has no equal-wires class; checked here too), the refuted mask is
   the least unsorted output, and each level's reached set is the set
   of masks the inputs reach after it. Checked against
   [Analysis.analyze], the per-level rows of [Maskset.walk] and both
   [Analysis_cert] emitters, on networks with pre permutations,
   exchanges and descending comparators, some of them completed to
   sorters. (Note: "live" does not mean "removal changes the
   function" — a live comparator's effect can be masked downstream;
   dead => removable only.) *)
let random_level rng n =
  let pre =
    if Xoshiro.int rng ~bound:3 = 0 then Some (Perm.random rng n) else None
  in
  let order = Perm.to_array (Perm.random rng n) in
  let gates =
    List.init
      (Xoshiro.int rng ~bound:((n / 2) + 1))
      (fun k ->
        let a = order.(2 * k) and b = order.((2 * k) + 1) in
        match Xoshiro.int rng ~bound:4 with
        | 0 -> Gate.exchange a b
        | 1 -> Gate.compare_down a b
        | _ -> Gate.compare_up a b)
  in
  { Network.pre; gates }

(* bit [w] = the value on wire [w] *)
let mask_of v =
  let m = ref 0 in
  Array.iteri (fun w b -> m := !m lor (b lsl w)) v;
  !m

let prop_exact_domain_reference =
  QCheck.Test.make ~name:"dead-iff-never-fires" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let n = 1 + Xoshiro.int rng ~bound:12 in
      let prefix =
        Network.create ~wires:n
          (List.init (Xoshiro.int rng ~bound:7) (fun _ -> random_level rng n))
      in
      let nw =
        if Xoshiro.int rng ~bound:4 = 0 then
          Network.serial prefix (Transposition.network ~n)
        else prefix
      in
      let levels = Array.of_list (Network.levels nw) in
      let size = 1 lsl n in
      let per_gate () =
        Array.map
          (fun (l : Network.level) -> Array.make (List.length l.gates) false)
          levels
      in
      let fires = per_gate () and differs = per_gate () in
      let reached = Array.map (fun _ -> Array.make size false) levels in
      let least = ref None and witness = ref None in
      for m = 0 to size - 1 do
        let v = ref (Array.init n (fun w -> (m lsr w) land 1)) in
        Array.iteri
          (fun li (level : Network.level) ->
            Option.iter (fun p -> v := Perm.permute_array p !v) level.pre;
            let v = !v in
            (* a level's gates touch disjoint wires, so each one reads
               the level's entry values *)
            List.iteri
              (fun gi g ->
                let a, b, acts =
                  match g with
                  | Gate.Compare { lo; hi } -> (lo, hi, v.(lo) > v.(hi))
                  | Gate.Exchange { a; b } -> (a, b, true)
                in
                if v.(a) > v.(b) then fires.(li).(gi) <- true;
                if v.(a) <> v.(b) then differs.(li).(gi) <- true;
                if acts then begin
                  let t = v.(a) in
                  v.(a) <- v.(b);
                  v.(b) <- t
                end)
              level.gates;
            reached.(li).(mask_of v) <- true)
          levels;
        if not (Sortedness.is_sorted !v) then begin
          let o = mask_of !v in
          if !witness = None then witness := Some m;
          if Option.fold ~none:true ~some:(fun best -> o < best) !least then
            least := Some o
        end
      done;
      let dead = ref [] in
      Array.iteri
        (fun li (level : Network.level) ->
          List.iteri
            (fun gi g ->
              if Gate.is_comparator g && not fires.(li).(gi) then
                dead := (li + 1, gi) :: !dead)
            level.gates)
        levels;
      let dead = List.rev !dead in
      let sets =
        Array.map
          (fun r -> List.filter (fun m -> r.(m)) (List.init size Fun.id))
          reached
      in
      let claims =
        List.map (fun (level, gate) -> Cert.Dead { level; gate }) dead
      in
      let key (g : Analysis.gate_ref) = (g.level, g.gate) in
      let facts = (Analysis.analyze nw).Analysis.facts in
      Array.for_all (Array.for_all Fun.id) differs
      && facts.exact
      && List.map key facts.dead = dead
      && (match (facts.sortedness, !least) with
         | Analysis.Sorting_proved, None -> true
         | Analysis.Sorting_refuted m, Some m' -> m = m'
         | _ -> false)
      && (let wpr = Maskset.words ~n and walked = ref [] in
          ignore
            (Maskset.walk nw ~on_level:(fun r ->
                 walked := Array.to_list (Maskset.elements r ~wpr 0) :: !walked)
              : Maskset.row);
          Array.of_list (List.rev !walked) = sets)
      && (match (Analysis_cert.sortedness nw, !witness) with
         | Ok (Cert.Sortedness { domain = Cert.Reach_sets s; _ }), None ->
             s = sets
         | Ok (Cert.Refutation { witness = w; _ }), Some w' -> w = w'
         | _ -> false)
      &&
      match (Analysis_cert.dead_gates nw, claims) with
      | Ok None, [] -> true
      | Ok (Some (Cert.Dead_gates { sets = s; claims = c; _ })), _ :: _ ->
          s = sets && c = claims
      | _ -> false)

(* --- bounds domain: sound, never contradicts the exact domain --- *)

let test_bounds_sound () =
  let rng = Xoshiro.of_seed 99 in
  for _ = 1 to 100 do
    let n = 2 + Xoshiro.int rng ~bound:7 in
    let nw = random_network rng ~n ~levels:(1 + Xoshiro.int rng ~bound:6) in
    let exact = Analysis.analyze nw in
    let approx = Analysis.analyze ~exact_max_wires:0 nw in
    check_bool "bounds domain used" false approx.facts.exact;
    (* bounds sortedness claim implies engine sortedness *)
    if approx.facts.sortedness = Analysis.Sorted_by_bounds then
      check_bool "bounds sortedness is sound" true
        (Zero_one.is_sorting_network nw);
    (* every bounds-dead gate is exactly dead *)
    let key g = (g.Analysis.level, g.Analysis.gate) in
    let sub a b =
      List.for_all (fun g -> List.mem (key g) (List.map key b)) a
    in
    check_bool "bounds dead subset of exact dead" true
      (sub approx.facts.dead exact.facts.dead)
  done;
  (* the bounds domain does prove bitonic sorts (it is complete enough
     for comparator chains? no — it is not; just assert soundness on a
     sorted-by-construction instance where it can decide: a single
     bubble pass on 2 wires) *)
  let two = Network.of_gate_levels ~wires:2 [ [ Gate.compare_up 0 1 ] ] in
  let r = Analysis.analyze ~exact_max_wires:0 two in
  check_bool "n=2 proved by bounds" true
    (r.Analysis.facts.sortedness = Analysis.Sorted_by_bounds)

(* odd-even transposition is proved sorted by the bounds domain at
   sizes far beyond the exact cutoff (the 0-1 sets would be 2^64) *)
let test_bounds_large () =
  let nw = Transposition.network ~n:64 in
  let r = Analysis.analyze nw in
  check_bool "large: bounds domain" false r.facts.exact;
  check_bool "large: no dead comparators" true (r.facts.dead = []);
  check_bool "large transposition proved" true
    (r.facts.sortedness = Analysis.Sorted_by_bounds)

(* --- dead detection on crafted networks --- *)

let test_injected_dead () =
  (* sort 4 wires, then re-compare (0,1): provably dead *)
  let nw =
    Network.of_gate_levels ~wires:4
      [
        [ Gate.compare_up 0 1; Gate.compare_up 2 3 ];
        [ Gate.compare_up 0 2; Gate.compare_up 1 3 ];
        [ Gate.compare_up 1 2 ];
        [ Gate.compare_up 0 1 ];
      ]
  in
  let r = Analysis.analyze nw in
  check_int "one dead comparator" 1 (List.length r.facts.dead);
  let g = List.hd r.facts.dead in
  check_int "dead at level 4" 4 g.Analysis.level;
  check_bool "SNL201 emitted" true
    (List.exists
       (fun (d : Diag.t) -> d.code = "SNL201" && d.severity = Diag.Warning)
       r.diags);
  check_bool "still sorts" true (r.facts.sortedness = Analysis.Sorting_proved);
  (* the duplicate-in-consecutive-levels case is visible to the bounds
     domain too *)
  let r' = Analysis.analyze ~exact_max_wires:0 nw in
  check_int "bounds sees it too" 1 (List.length r'.Analysis.facts.dead)

let test_repeated_comparator_dead () =
  (* compare (0,1) twice in a row: the wires are already ordered, so
     the second comparator is dead *)
  let nw =
    Network.of_gate_levels ~wires:2
      [ [ Gate.compare_up 0 1 ]; [ Gate.compare_up 0 1 ] ]
  in
  let r = Analysis.analyze nw in
  check_int "second comparator dead" 1 (List.length r.facts.dead);
  (* after a full sort of 3 wires, a final (0,2) is dead too *)
  let nw2 =
    Network.of_gate_levels ~wires:3
      [
        [ Gate.compare_up 0 1 ];
        [ Gate.compare_up 1 2 ];
        [ Gate.compare_up 0 1 ];
        [ Gate.compare_up 0 2 ];
      ]
  in
  let r2 = Analysis.analyze nw2 in
  check_bool "final (0,2) dead" true
    (List.exists (fun g -> g.Analysis.level = 4) r2.facts.dead)

(* --- standardize --- *)

let test_standardize () =
  let rng = Xoshiro.of_seed 4242 in
  for _ = 1 to 50 do
    let n = 2 + Xoshiro.int rng ~bound:7 in
    let nw = random_network rng ~n ~levels:(1 + Xoshiro.int rng ~bound:5) in
    let std = Lint.standardize nw in
    check_bool "standardize preserves the function" true
      (same_zero_one_function nw std);
    (* only ascending comparators, no exchanges *)
    List.iter
      (fun (level : Network.level) ->
        List.iter
          (fun g ->
            match g with
            | Gate.Compare { lo; hi } ->
                check_bool "ascending" true (lo < hi)
            | Gate.Exchange _ -> Alcotest.fail "exchange survived standardize")
          level.gates)
      (Network.levels std)
  done

(* --- conformance --- *)

let test_conform_shuffle () =
  List.iter
    (fun n ->
      let d = Bitops.log2_exact n in
      (* register form *)
      let prog = Bitonic.shuffle_program ~n in
      let reg = Register_model.to_network prog in
      let r = Analysis.analyze ~exact_max_wires:8 reg in
      check_bool "register form shuffle-based" true
        (r.facts.shuffle_stages = Some (d * d));
      check_bool "register form iterated reverse delta" true
        (r.facts.reverse_delta_blocks = Some d);
      (* the registry serves it pre-flattened; conformance must agree *)
      let flat = Network.flatten reg in
      check_bool "flattened still shuffle-based" true
        (Conform.shuffle_stages flat = Some (d * d));
      check_bool "flattened still iterated reverse delta" true
        (Conform.iterated_reverse_delta flat = Some d))
    [ 4; 8; 16 ]

let test_conform_classics_negative () =
  (* classic bitonic is NOT shuffle-based and NOT an iterated reverse
     delta (its third level re-compares inside a committed 4-subtree) *)
  let nw = Bitonic.network ~n:8 in
  check_bool "classic bitonic not shuffle-based" true
    (Conform.shuffle_stages nw = None);
  check_bool "classic bitonic not iterated rd" true
    (Conform.iterated_reverse_delta nw = None)

let test_conform_random_reverse_delta () =
  (* random reverse delta networks exercise partial cross levels,
     mixed orientations and exchanges; recognition must certify every
     one of them *)
  let rng = Xoshiro.of_seed 11 in
  for _ = 1 to 40 do
    let levels = 1 + Xoshiro.int rng ~bound:4 in
    let rd =
      Random_net.reverse_delta rng ~levels ~density:0.7 ~swap_prob:0.2
    in
    let n = 1 lsl levels in
    let nw = Reverse_delta.to_network ~wires:n rd in
    check_bool "random rd recognized" true
      (Conform.iterated_reverse_delta nw = Some 1)
  done;
  (* iterated, with inter-block permutations (absorbed by flattening) *)
  for _ = 1 to 20 do
    let blocks = 1 + Xoshiro.int rng ~bound:3 in
    let it =
      Random_net.iterated rng ~n:8 ~blocks ~density:0.6 ~swap_prob:0.1
        ~permute:true
    in
    let nw = Iterated.to_network it in
    check_bool "random iterated recognized" true
      (Conform.iterated_reverse_delta nw = Some blocks)
  done

let test_conform_butterfly_both () =
  (* the butterfly is both a delta and a reverse delta network
     (Kruskal–Snir); check both verdicts fire on it *)
  let bf = Delta_net.butterfly ~levels:3 in
  let rd = Delta_net.to_reverse_delta bf in
  let nw = Reverse_delta.to_network ~wires:8 rd in
  check_bool "butterfly is reverse delta" true
    (Conform.iterated_reverse_delta nw = Some 1);
  check_bool "butterfly (mirrored) is delta" true
    (Conform.delta_blocks nw = Some 1)

let test_to_iterated_certificate () =
  let prog = Bitonic.shuffle_program ~n:8 in
  let nw = Register_model.to_network prog in
  match Conform.to_iterated nw with
  | Error e -> Alcotest.failf "bitonic-shuffle rejected: %s" e
  | Ok it ->
      check_int "three blocks" 3 (Iterated.block_count it);
      (* the certified decomposition evaluates identically *)
      check_bool "decomposition is extensionally equal" true
        (same_zero_one_function nw (Iterated.to_network it))

let test_to_iterated_reject () =
  match Conform.to_iterated (Bitonic.network ~n:8) with
  | Ok _ -> Alcotest.fail "classic bitonic wrongly certified"
  | Error _ -> ()

(* --- load gate --- *)

let test_check_gate () =
  let clean =
    Network.of_gate_levels ~wires:2 [ [ Gate.compare_up 0 1 ] ]
  in
  (match Analysis.check clean with
  | Ok ds -> check_int "clean: no warnings" 0 (Diag.count ds Diag.Warning)
  | Error _ -> Alcotest.fail "clean network rejected");
  let with_dead =
    Network.of_gate_levels ~wires:2
      [ [ Gate.compare_up 0 1 ]; [ Gate.compare_up 0 1 ] ]
  in
  (match Analysis.check with_dead with
  | Ok ds -> check_int "warn mode passes with warning" 1 (Diag.count ds Diag.Warning)
  | Error _ -> Alcotest.fail "warn mode must not reject warnings");
  (match Analysis.check ~strictness:Analysis.Strict with_dead with
  | Ok _ -> Alcotest.fail "strict mode must reject warnings"
  | Error _ -> ());
  match Analysis.check ~strictness:Analysis.Off with_dead with
  | Ok [] -> ()
  | _ -> Alcotest.fail "off mode must be silent"

let test_load_gate () =
  let dir = Filename.temp_file "snlb_analysis" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "net.txt" in
  let nw =
    Network.of_gate_levels ~wires:2
      [ [ Gate.compare_up 0 1 ]; [ Gate.compare_up 0 1 ] ]
  in
  (match Network_io.save path nw with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  (match Analysis.load path with
  | Ok (nw', ds) ->
      check_int "load: wires" 2 (Network.wires nw');
      check_int "load: warning surfaced" 1 (Diag.count ds Diag.Warning)
  | Error e -> Alcotest.failf "warn-mode load failed: %s" e);
  (match Analysis.load ~strictness:Analysis.Strict path with
  | Ok _ -> Alcotest.fail "strict load must reject"
  | Error _ -> ());
  Sys.remove path;
  Unix.rmdir dir

(* --- diagnostics plumbing --- *)

let test_diag_json () =
  let d =
    Diag.make
      ~span:{ Diag.level = 3; gate = Some 1 }
      ~code:"SNL201" ~severity:Diag.Warning "dead \"comparator\""
  in
  check_bool "json shape" true
    (Diag.to_json d
    = "{\"code\":\"SNL201\",\"severity\":\"warning\",\"level\":3,\"gate\":1,\"message\":\"dead \\\"comparator\\\"\"}");
  check_bool "text shape" true
    (Diag.to_text d = "warning[SNL201] level 3 gate 1: dead \"comparator\"");
  check_bool "code table knows SNL201" true (Diag.describe "SNL201" <> None);
  check_bool "code table sorted unique" true
    (let cs = List.map fst Diag.codes in
     cs = List.sort_uniq compare cs)

let () =
  Alcotest.run "analysis"
    [
      ( "domains",
        [
          Alcotest.test_case "random-agreement-200" `Quick test_random_agreement;
          QCheck_alcotest.to_alcotest prop_exact_domain_reference;
          Alcotest.test_case "bounds-sound" `Quick test_bounds_sound;
          Alcotest.test_case "bounds-large" `Quick test_bounds_large;
          Alcotest.test_case "injected-dead" `Quick test_injected_dead;
          Alcotest.test_case "repeated-comparator-dead" `Quick
            test_repeated_comparator_dead;
          Alcotest.test_case "standardize" `Quick test_standardize;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "shuffle-based" `Quick test_conform_shuffle;
          Alcotest.test_case "classics-negative" `Quick
            test_conform_classics_negative;
          Alcotest.test_case "random-reverse-delta" `Quick
            test_conform_random_reverse_delta;
          Alcotest.test_case "butterfly-both" `Quick test_conform_butterfly_both;
          Alcotest.test_case "to-iterated" `Quick test_to_iterated_certificate;
          Alcotest.test_case "to-iterated-reject" `Quick test_to_iterated_reject;
        ] );
      ( "gate",
        [
          Alcotest.test_case "check-strictness" `Quick test_check_gate;
          Alcotest.test_case "load-gate" `Quick test_load_gate;
          Alcotest.test_case "diag-json" `Quick test_diag_json;
        ] );
    ]
