(* Tests for the domain fan-out and its use in Zero_one. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_map_ranges_covers () =
  List.iter
    (fun domains ->
      let results =
        Par.map_ranges ~domains ~lo:3 ~hi:40 (fun ~lo ~hi -> (lo, hi))
      in
      (* contiguous, ordered, covering *)
      let rec walk expect = function
        | [] -> check_int "ends at hi" 40 expect
        | (lo, hi) :: rest ->
            check_int "contiguous" expect lo;
            check_bool "nonempty or single" true (hi >= lo);
            walk hi rest
      in
      walk 3 results)
    [ 1; 2; 3; 7; 64 ]

let test_map_ranges_empty () =
  let results = Par.map_ranges ~domains:4 ~lo:5 ~hi:5 (fun ~lo ~hi -> hi - lo) in
  Alcotest.(check (list int)) "one empty chunk" [ 0 ] results

let test_map_ranges_sums () =
  let total ~domains =
    Par.map_ranges ~domains ~lo:0 ~hi:1000 (fun ~lo ~hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
    |> List.fold_left ( + ) 0
  in
  check_int "sequential = parallel" (total ~domains:1) (total ~domains:5)

let test_map_list_order () =
  let xs = List.init 37 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved"
    (List.map (fun x -> x * x) xs)
    (Par.map_list ~domains:4 (fun x -> x * x) xs)

let test_invalid_args () =
  check_bool "lo > hi" true
    (match Par.map_ranges ~domains:2 ~lo:5 ~hi:4 (fun ~lo:_ ~hi:_ -> ()) with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_bool "domains 0" true
    (match Par.map_ranges ~domains:0 ~lo:0 ~hi:4 (fun ~lo:_ ~hi:_ -> ()) with
     | exception Invalid_argument _ -> true
     | _ -> false)

exception Boom of int

(* Regression: a raise in the calling-domain chunk used to skip the
   joins for every spawned domain (leaked domains, possible hang at
   exit). All spawned chunks must run to completion and be joined
   before the exception propagates. *)
let test_map_ranges_first_chunk_raises () =
  let ran = Atomic.make 0 in
  (match
     Par.map_ranges ~domains:4 ~lo:0 ~hi:400 (fun ~lo ~hi:_ ->
         if lo = 0 then raise (Boom lo) else Atomic.incr ran)
   with
  | _ -> Alcotest.fail "expected Boom from the first chunk"
  | exception Boom 0 -> ());
  check_int "every spawned chunk still ran and was joined" 3 (Atomic.get ran)

let test_map_ranges_spawned_chunk_raises () =
  let ran = Atomic.make 0 in
  (match
     Par.map_ranges ~domains:4 ~lo:0 ~hi:400 (fun ~lo ~hi:_ ->
         if lo = 200 then raise (Boom lo) else Atomic.incr ran)
   with
  | _ -> Alcotest.fail "expected Boom from a spawned chunk"
  | exception Boom 200 -> ());
  check_int "the other chunks all completed" 3 (Atomic.get ran)

let test_map_ranges_first_failure_wins () =
  (* several failing chunks: the first in range order is re-raised *)
  (match
     Par.map_ranges ~domains:4 ~lo:0 ~hi:400 (fun ~lo ~hi:_ ->
         if lo >= 100 then raise (Boom lo))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom b -> check_int "lowest failing chunk wins" 100 b)

let test_iter_chunks_covers () =
  (* every index exactly once, each call inside one chunk of the grid,
     at every domain count and chunk size; worker ids stay below the
     returned worker count *)
  List.iter
    (fun (domains, chunk, lo, hi) ->
      let seen = Array.init (hi - lo) (fun _ -> Atomic.make 0) in
      let ran = Array.make domains false in
      let workers =
        Par.iter_chunks ~domains ~chunk ~lo ~hi (fun ~worker ~lo:a ~hi:b ->
            ran.(worker) <- true;
            for i = a to b - 1 do
              Atomic.incr seen.(i - lo)
            done)
      in
      let chunks = (hi - lo + chunk - 1) / chunk in
      check_int "worker count" (max 1 (min domains chunks)) workers;
      check_bool "worker ids below the count" true
        (Array.for_all Fun.id (Array.mapi (fun w r -> w < workers || not r) ran));
      check_bool "every index exactly once" true
        (Array.for_all (fun c -> Atomic.get c = 1) seen))
    [ (1, 4, 0, 100); (2, 16, 3, 1000); (3, 1, 0, 7); (4, 64, 10, 20);
      (4, 5, 0, 0); (8, 3, 0, 9) ]

let test_iter_chunks_failure () =
  (* a raise stops the claiming, every domain is joined, and the
     failing worker's exception comes back *)
  let calls = Atomic.make 0 in
  (match
     Par.iter_chunks ~domains:3 ~chunk:1 ~lo:0 ~hi:10_000 (fun ~worker:_ ~lo ~hi:_ ->
         Atomic.incr calls;
         if lo = 5 then raise (Failure "chunk 5"))
   with
  | _ -> Alcotest.fail "expected the chunk's failure"
  | exception Failure m -> Alcotest.(check string) "re-raised" "chunk 5" m);
  check_bool "claiming stopped after the failure" true (Atomic.get calls < 10_000);
  check_bool "invalid chunk" true
    (match Par.iter_chunks ~domains:2 ~chunk:0 ~lo:0 ~hi:4 (fun ~worker:_ ~lo:_ ~hi:_ -> ()) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_recommended_domains_env () =
  let with_env v f =
    Unix.putenv "SNLB_DOMAINS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "SNLB_DOMAINS" "") f
  in
  with_env "3" (fun () ->
      check_int "override honored" 3 (Par.recommended_domains ()));
  (* the clamp boundaries themselves are valid and warning-free *)
  with_env "1" (fun () ->
      check_int "lower boundary honored" 1 (Par.recommended_domains ()));
  with_env "64" (fun () ->
      check_int "upper boundary honored" 64 (Par.recommended_domains ()));
  with_env "999" (fun () ->
      check_int "clamped above" 64 (Par.recommended_domains ()));
  with_env "0" (fun () ->
      check_int "clamped below" 1 (Par.recommended_domains ()));
  with_env "-7" (fun () ->
      check_int "negative clamped" 1 (Par.recommended_domains ()));
  (* non-numeric values fall back to the hardware heuristic *)
  with_env "lots" (fun () ->
      let d = Par.recommended_domains () in
      check_bool "fallback in range" true (d >= 1 && d <= 64))

let test_zero_one_domains_agree () =
  List.iter
    (fun nw ->
      let seq = Zero_one.is_sorting_network ~domains:1 nw in
      let par = Zero_one.is_sorting_network ~domains:4 nw in
      check_bool "verdicts agree" true (seq = par);
      check_int "counts agree"
        (Zero_one.unsorted_count ~domains:1 nw)
        (Zero_one.unsorted_count ~domains:4 nw))
    [ Bitonic.network ~n:8;
      Pratt.network ~n:11;
      Network.of_gate_levels ~wires:6 [ [ Gate.compare_up 0 1 ] ] ]

let test_zero_one_domains_witness () =
  let broken = Network.of_gate_levels ~wires:8 [ [ Gate.compare_up 0 7 ] ] in
  match Zero_one.failing_input ~domains:3 broken with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      check_bool "unsorted" false (Sortedness.is_sorted (Network.eval broken w))

let prop_domains_equal =
  QCheck.Test.make ~name:"packed verdicts independent of domain count" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, domains) ->
      let rng = Xoshiro.of_seed seed in
      let prog = Shuffle_net.random_program rng ~n:8 ~stages:6 in
      let nw = Register_model.to_network prog in
      Zero_one.unsorted_count ~domains:1 nw = Zero_one.unsorted_count ~domains nw)

let () =
  Alcotest.run "parallel"
    [ ( "par",
        [ Alcotest.test_case "ranges cover" `Quick test_map_ranges_covers;
          Alcotest.test_case "empty range" `Quick test_map_ranges_empty;
          Alcotest.test_case "sums agree" `Quick test_map_ranges_sums;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "argument validation" `Quick test_invalid_args;
          Alcotest.test_case "raise in first chunk joins all" `Quick
            test_map_ranges_first_chunk_raises;
          Alcotest.test_case "raise in spawned chunk propagates" `Quick
            test_map_ranges_spawned_chunk_raises;
          Alcotest.test_case "first failure in range order wins" `Quick
            test_map_ranges_first_failure_wins;
          Alcotest.test_case "SNLB_DOMAINS override" `Quick
            test_recommended_domains_env;
          Alcotest.test_case "iter_chunks covers every index once" `Quick
            test_iter_chunks_covers;
          Alcotest.test_case "iter_chunks failure joins and re-raises" `Quick
            test_iter_chunks_failure ] );
      ( "zero-one",
        [ Alcotest.test_case "domains agree" `Quick test_zero_one_domains_agree;
          Alcotest.test_case "witness under domains" `Quick test_zero_one_domains_witness ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_domains_equal ]) ]
