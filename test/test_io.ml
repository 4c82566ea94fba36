(* Tests for text serialisation and ASCII diagrams. *)

let check_bool = Alcotest.(check bool)

let roundtrips nw =
  match Network_io.of_string (Network_io.to_string nw) with
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)
  | Ok nw2 ->
      Alcotest.(check int) "wires" (Network.wires nw) (Network.wires nw2);
      Alcotest.(check int) "size" (Network.size nw) (Network.size nw2);
      let rng = Xoshiro.of_seed 7 in
      for _ = 1 to 20 do
        let input = Workload.random_permutation rng ~n:(Network.wires nw) in
        Alcotest.(check (array int)) "same function"
          (Network.eval nw input) (Network.eval nw2 input)
      done

let test_roundtrip_sorters () =
  List.iter
    (fun e ->
      let n = if e.Sorter_registry.pow2_only then 16 else 12 in
      roundtrips (e.Sorter_registry.build n))
    Sorter_registry.all

let test_roundtrip_with_perms_and_exchanges () =
  let rng = Xoshiro.of_seed 3 in
  let prog = Shuffle_net.random_program rng ~n:16 ~stages:6 in
  roundtrips (Register_model.to_network prog);
  roundtrips (Benes.route (Perm.random rng 16))

(* simple substring search, avoiding a Str dependency *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_error text fragment =
  match Network_io.of_string text with
  | Ok _ -> Alcotest.fail ("parser accepted: " ^ text)
  | Error e -> check_bool (e ^ " mentions " ^ fragment) true (contains e fragment)

let test_parse_errors () =
  expect_error "wires 4\n" "header";
  expect_error "snlb-network 2\nwires 4\n" "version";
  expect_error "snlb-network 1\nwires 4\ncmp 0 1\n" "outside a level";
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp 0 0\n" "distinct";
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp zero 1\n" "integer";
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp 0 1\nperm 1 0 3 2\n" "precede";
  expect_error "snlb-network 1\nwires 4\nlevel\nfrobnicate\n" "unrecognised";
  (* out-of-range and duplicate wires, per directive kind, each with
     the offending line number *)
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp 0 9\n" "line 4: cmp wire 9 out of range";
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp -1 2\n" "out of range";
  expect_error "snlb-network 1\nwires 4\nlevel\nxchg 0 7\n" "line 4: xchg wire 7 out of range";
  expect_error "snlb-network 1\nwires 4\nlevel\nxchg -2 1\n" "out of range";
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp 0 1\ncmp 1 2\n"
    "line 5: cmp (1, 2) reuses a wire";
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp 0 1\nxchg 2 0\n"
    "line 5: xchg (2, 0) reuses a wire";
  expect_error "snlb-network 1\nwires 4\nlevel\nperm 0 1 2\n" "expected 4";
  expect_error "snlb-network 1\nwires 4\nlevel\nperm 0 1 2 9\n"
    "line 4: perm entry 9 out of range";
  expect_error "snlb-network 1\nwires 4\nlevel\nperm 0 1 2 -1\n" "out of range";
  expect_error "snlb-network 1\nwires 4\nlevel\nperm 0 0 1 2\n"
    "line 4: duplicate perm entry 0";
  (* a width past 2^24 wires is refused on its line, before anything
     is allocated for it *)
  expect_error "snlb-network 1\nwires 1000000000000\n"
    "line 2: wires 1000000000000 exceeds the limit of 16777216";
  (* the first reuse is reported, also after a level's wire count grows *)
  expect_error "snlb-network 1\nwires 4\nlevel\ncmp 0 1\nwires 8\ncmp 5 1\ncmp 6 0\n"
    "line 6: cmp (5, 1) reuses a wire"

let test_comments_and_blank_lines () =
  let text = "# a comment\nsnlb-network 1\n\nwires 2\nlevel\n# inner\ncmp 0 1\n" in
  match Network_io.of_string text with
  | Ok nw -> Alcotest.(check int) "one comparator" 1 (Network.size nw)
  | Error e -> Alcotest.fail e

let test_empty_network () =
  match Network_io.of_string "snlb-network 1\nwires 3\n" with
  | Ok nw ->
      Alcotest.(check int) "wires" 3 (Network.wires nw);
      Alcotest.(check int) "no levels" 0 (List.length (Network.levels nw))
  | Error e -> Alcotest.fail e

let test_save_load () =
  let path = Filename.temp_file "snlb" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let nw = Odd_even_merge.network ~n:8 in
      (match Network_io.save path nw with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("save failed: " ^ e));
      match Network_io.load path with
      | Ok nw2 -> Alcotest.(check int) "size" (Network.size nw) (Network.size nw2)
      | Error e -> Alcotest.fail e)

let test_load_truncated () =
  (* a file torn mid-write (e.g. by a crash under a non-atomic writer)
     must load as a clean [Error], never as a silently-shorter network
     or an exception *)
  let path = Filename.temp_file "snlb" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let nw = Odd_even_merge.network ~n:8 in
      let full = Network_io.to_string nw in
      (* cut inside a token on the last line so the damage is visible
         to the parser, not just a missing trailing level *)
      let cut = String.length full - 2 in
      let oc = open_out path in
      output_string oc (String.sub full 0 cut);
      close_out oc;
      match Network_io.load path with
      | Error e -> check_bool "error names a line" true (contains e "line")
      | Ok _ -> Alcotest.fail "truncated file loaded successfully")

(* diagrams *)

let test_diagram_shape () =
  let nw = Bitonic.network ~n:4 in
  let d = Diagram.render nw in
  let lines = String.split_on_char '\n' d |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "2n-1 rows" 7 (List.length lines);
  check_bool "has min marker" true (contains d "o");
  check_bool "has max marker" true (contains d "*");
  (* every row same width *)
  let widths = List.map String.length lines in
  check_bool "rectangular" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_diagram_exchange_marker () =
  let nw = Network.of_gate_levels ~wires:2 [ [ Gate.exchange 0 1 ] ] in
  check_bool "x marker" true (contains (Diagram.render nw) "x")

let test_diagram_guard () =
  check_bool "guard" true
    (match Diagram.render ~max_wires:4 (Bitonic.network ~n:8) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"random register programs roundtrip" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 1 4))
    (fun (seed, logn) ->
      let n = 1 lsl (logn + 1) in
      let rng = Xoshiro.of_seed seed in
      let prog = Shuffle_net.random_program rng ~n ~stages:(1 + Xoshiro.int rng ~bound:6) in
      let nw = Register_model.to_network prog in
      match Network_io.of_string (Network_io.to_string nw) with
      | Error _ -> false
      | Ok nw2 ->
          let input = Workload.random_permutation rng ~n in
          Network.eval nw input = Network.eval nw2 input)

let () =
  Alcotest.run "io"
    [ ( "serialisation",
        [ Alcotest.test_case "all sorters roundtrip" `Quick test_roundtrip_sorters;
          Alcotest.test_case "perms and exchanges roundtrip" `Quick
            test_roundtrip_with_perms_and_exchanges;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
          Alcotest.test_case "empty network" `Quick test_empty_network;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "truncated file rejected" `Quick test_load_truncated ] );
      ( "diagrams",
        [ Alcotest.test_case "shape" `Quick test_diagram_shape;
          Alcotest.test_case "exchange marker" `Quick test_diagram_exchange_marker;
          Alcotest.test_case "guard" `Quick test_diagram_guard ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random ]) ]
