(* Tests for the verification service (lib/serve): the JSON codec, the
   length-prefixed framing, typed request rejection, batch coalescing
   into shared bit-sliced passes, the canonical response cache, and a
   full in-process server with concurrent clients. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json --- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [ ("id", Json.Int 7);
        ("verb", Json.Str "verify");
        ("weird", Json.Str "a\"b\\c\nd\te\r\x01");
        ("xs", Json.List [ Json.Int 0; Json.Bool false; Json.Null ]);
        ("f", Json.Float 2.5);
        ("nested", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  check_bool "roundtrip" true (Json.of_string (Json.to_string j) = Ok j);
  check_bool "unicode escape" true
    (Json.of_string {|"\u00e9\ud83d\ude00"|} = Ok (Json.Str "\xc3\xa9\xf0\x9f\x98\x80"));
  check_bool "int stays int" true (Json.of_string "42" = Ok (Json.Int 42));
  check_bool "float" true (Json.of_string "4e2" = Ok (Json.Float 400.));
  check_bool "ws tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]))

let test_json_rejects () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> check_bool ("rejects " ^ s) true (bad s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
      "\"\\u12\""; "\"\\ud800\""; "{'a':1}"; "nan" ]

(* --- Frame --- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let test_frame_roundtrip () =
  with_pipe @@ fun r w ->
  let reader = Frame.reader r in
  let payloads = [ ""; "x"; "{\"a\":1}"; String.make 10_000 'q' ] in
  List.iter (fun p -> Frame.write w p) payloads;
  List.iter
    (fun p ->
      match Frame.read ~max:100_000 reader with
      | Ok got -> check_string "payload" p got
      | Error e -> Alcotest.failf "frame error: %s" (Frame.error_text e))
    payloads;
  Unix.close w;
  check_bool "clean eof" true (Frame.read ~max:100_000 reader = Error Frame.Eof)

let test_frame_malformed () =
  let feed raw =
    with_pipe @@ fun r w ->
    let reader = Frame.reader r in
    let _ = Unix.write_substring w raw 0 (String.length raw) in
    Unix.close w;
    Frame.read ~max:1000 reader
  in
  let malformed = function
    | Error (Frame.Malformed _) -> true
    | _ -> false
  in
  check_bool "bad header byte" true (malformed (feed "xx\n"));
  check_bool "negative length" true (malformed (feed "-1\nx\n"));
  check_bool "empty header" true (malformed (feed "\n"));
  check_bool "header too long" true (malformed (feed "1234567890123\n"));
  check_bool "truncated payload" true (malformed (feed "10\nabc"));
  check_bool "missing terminator" true (malformed (feed "3\nabcX"));
  check_bool "oversized" true
    (match feed "5000\nhello" with Error (Frame.Oversized 5000) -> true | _ -> false);
  check_bool "eof at boundary" true (feed "" = Error Frame.Eof)

(* --- Wire --- *)

let test_wire_requests () =
  let code s =
    match Wire.parse_request s with Error (c, _) -> c | Ok _ -> "ok"
  in
  check_string "bad json" Wire.e_bad_json (code "{nope");
  check_string "missing verb" Wire.e_bad_request (code "{}");
  check_string "unknown verb" Wire.e_unsupported
    (code {|{"verb":"frobnicate","algo":"bitonic","n":4}|});
  check_string "missing network" Wire.e_bad_request (code {|{"verb":"verify"}|});
  check_string "both forms" Wire.e_bad_request
    (code {|{"verb":"verify","network":"x","algo":"bitonic","n":4}|});
  check_string "eval needs input" Wire.e_bad_request
    (code {|{"verb":"eval","algo":"bitonic","n":4}|});
  check_string "verify rejects input" Wire.e_bad_request
    (code {|{"verb":"verify","algo":"bitonic","n":4,"input":[1]}|});
  match Wire.parse_request {|{"id":9,"verb":"eval","algo":"bitonic","n":4,"input":[1,0,1,0]}|} with
  | Error _ -> Alcotest.fail "good request rejected"
  | Ok req ->
      check_bool "id echoed" true (req.Wire.id = Json.Int 9);
      check_bool "input" true (req.Wire.input = Some [| 1; 0; 1; 0 |]);
      (match Wire.resolve_network ~max_wires:16 req with
      | Ok nw -> check_int "wires" 4 (Network.wires nw)
      | Error (c, m) -> Alcotest.failf "resolve failed: %s %s" c m);
      (match Wire.resolve_network ~max_wires:3 req with
      | Error (c, _) -> check_string "width cap" Wire.e_unsupported c
      | Ok _ -> Alcotest.fail "width cap not enforced")

let test_wire_width_before_build () =
  (* a registry width above the cap is refused before the build: at
     2^20 wires insertion sort is ~5.5e11 comparators, a build that
     could never finish *)
  let resolve algo n =
    match
      Wire.parse_request
        (Printf.sprintf {|{"verb":"verify","algo":%S,"n":%d}|} algo n)
    with
    | Error (c, m) -> Alcotest.failf "request rejected: %s %s" c m
    | Ok req -> Wire.resolve_network ~max_wires:16 req
  in
  (match resolve "insertion" (1 lsl 20) with
  | Error (c, m) ->
      check_string "code" Wire.e_unsupported c;
      check_string "message" "network has 1048576 wires; this server caps at 16" m
  | Ok _ -> Alcotest.fail "oversized width built");
  (* the checks before it keep their order *)
  (match resolve "insertion" 1 with
  | Error (c, _) -> check_string "n < 2 first" Wire.e_bad_network c
  | Ok _ -> Alcotest.fail "n = 1 accepted");
  match resolve "bitonic" ((1 lsl 20) - 1) with
  | Error (c, _) -> check_string "power of two first" Wire.e_bad_network c
  | Ok _ -> Alcotest.fail "odd bitonic width accepted"

(* --- Scache --- *)

let cmp_net ~wires pairs =
  Network.of_gate_levels ~wires
    (List.map (List.map (fun (a, b) -> Gate.compare_up a b)) pairs)

let test_scache_keys () =
  (* isomorphic standard networks share the canonical key; the
     non-standard variant falls back to its structural key *)
  let a = cmp_net ~wires:4 [ [ (0, 1) ] ] in
  let b = cmp_net ~wires:4 [ [ (2, 3) ] ] in
  check_bool "standard" true (Scache.is_standard a);
  check_string "isomorphic collide" (Scache.key a) (Scache.key b);
  check_bool "canonical prefix" true (String.length (Scache.key a) > 2 && String.sub (Scache.key a) 0 2 = "c:");
  let down =
    Network.of_gate_levels ~wires:4 [ [ Gate.compare_down 0 1 ] ]
  in
  check_bool "descending is not standard" false (Scache.is_standard down);
  check_bool "non-standard keys structurally" true
    (String.sub (Scache.key down) 0 2 = "s:");
  check_bool "different structure, different skey" true
    (Scache.structural_key a <> Scache.structural_key b)

let test_scache_eviction () =
  let c = Scache.create ~capacity:2 () in
  let e skey = { Scache.sorts = true; witness = None; skey } in
  Scache.add c "k1" (e "1");
  Scache.add c "k2" (e "2");
  check_bool "k1 hit" true (Scache.find c "k1" <> None);
  Scache.add c "k3" (e "3");
  (* second chance: k1 was hit (used), so k2 is the cold eviction *)
  check_int "bounded" 2 (Scache.entries c);
  check_bool "k1 survives" true (Scache.peek c "k1" <> None);
  check_bool "k2 evicted" true (Scache.peek c "k2" = None);
  check_bool "k3 present" true (Scache.peek c "k3" <> None)

(* --- Batcher: coalescing and caching --- *)

let oem8 = Odd_even_merge.network ~n:8

let spawn_all fs =
  let ths = List.map (fun f -> Thread.create f ()) fs in
  List.iter Thread.join ths

let test_batch_coalescing_lanes () =
  (* 32 concurrent 0-1 evals on one network coalesce into a couple of
     64-lane passes; sequential one-request-per-pass mode pays 32 —
     the >= 3x pass reduction the bench measures, asserted exactly *)
  let inputs = List.init 32 (fun i -> (i * 37) land 0xFF) in
  let expected mask =
    let input = Array.init 8 (fun w -> (mask lsr w) land 1) in
    let out = Network.eval oem8 input in
    let m = ref 0 in
    Array.iteri (fun w v -> if v = 1 then m := !m lor (1 lsl w)) out;
    !m
  in
  let batched =
    Batcher.create { Batcher.window = 0.05; max_batch = 256; domains = 1; cache = None }
  in
  let p0 = Batcher.eval_passes () in
  let results = Array.make 32 (-1) in
  spawn_all
    (List.mapi
       (fun i mask () -> results.(i) <- Batcher.eval01 batched oem8 mask)
       inputs);
  let batched_passes = Batcher.eval_passes () - p0 in
  Batcher.drain batched;
  List.iteri
    (fun i mask -> check_int "batched output" (expected mask) results.(i))
    inputs;
  check_bool "coalesced into few passes" true (batched_passes <= 4);
  let sequential =
    Batcher.create { Batcher.window = 0.; max_batch = 1; domains = 1; cache = None }
  in
  let p1 = Batcher.eval_passes () in
  List.iter
    (fun mask -> check_int "sequential output" (expected mask) (Batcher.eval01 sequential oem8 mask))
    inputs;
  let sequential_passes = Batcher.eval_passes () - p1 in
  Batcher.drain sequential;
  check_int "sequential pays one pass per request" 32 sequential_passes;
  check_bool "batched >= 3x fewer passes" true
    (sequential_passes >= 3 * batched_passes)

let test_verify_coalescing_and_cache () =
  let cache = Scache.create ~capacity:64 () in
  let b =
    Batcher.create
      { Batcher.window = 0.05; max_batch = 256; domains = 1; cache = Some cache }
  in
  (* 8 concurrent verifies of one non-sorting network share one sweep *)
  let a = cmp_net ~wires:4 [ [ (0, 1) ] ] in
  let s0 = Batcher.sweeps () in
  let results = Array.make 8 None in
  spawn_all
    (List.init 8 (fun i () -> results.(i) <- Some (Batcher.verify b a)));
  let sweeps = Batcher.sweeps () - s0 in
  check_bool "one sweep for 8 concurrent verifies" true (sweeps <= 2);
  Array.iter
    (fun r ->
      let r = Option.get r in
      check_bool "not a sorter" false r.Batcher.sorts;
      check_bool "witness or cached" true
        (r.Batcher.cached || r.Batcher.witness <> None))
    results;
  (* an isomorphic (relabeled) standard network hits the cache without
     any engine work, but must not inherit the foreign witness *)
  let iso = cmp_net ~wires:4 [ [ (2, 3) ] ] in
  let s1 = Batcher.sweeps () in
  let r = Batcher.verify b iso in
  check_int "no sweep on isomorphic resubmission" 0 (Batcher.sweeps () - s1);
  check_bool "cached" true r.Batcher.cached;
  check_bool "verdict shared" false r.Batcher.sorts;
  check_bool "foreign witness withheld" true (r.Batcher.witness = None);
  (* exact resubmission reuses the witness: it belongs to this network *)
  let r2 = Batcher.verify b a in
  check_bool "cached exact" true r2.Batcher.cached;
  check_bool "own witness served" true (r2.Batcher.witness <> None);
  (* two different true sorters of one width share the canonical entry
     (reachable set = thresholds for both) *)
  let s2 = Batcher.sweeps () in
  let r3 = Batcher.verify b (cmp_net ~wires:4 [ [ (0,1); (2,3) ]; [ (0,2); (1,3) ]; [ (1,2) ] ]) in
  check_bool "sorter verdict" true r3.Batcher.sorts;
  check_int "sorter pays its sweep" 1 (Batcher.sweeps () - s2);
  let r4 = Batcher.verify b (cmp_net ~wires:4 [ [ (0,2); (1,3) ]; [ (0,1); (2,3) ]; [ (1,2) ] ]) in
  check_bool "other sorter cached" true r4.Batcher.cached;
  check_string "same canonical key" r3.Batcher.key r4.Batcher.key;
  Batcher.drain b

(* --- Session over a socketpair --- *)

let send_recv fd reader payload =
  Frame.write fd payload;
  match Frame.read ~max:(1 lsl 20) reader with
  | Ok r -> Result.get_ok (Json.of_string r)
  | Error e -> Alcotest.failf "session reply: %s" (Frame.error_text e)

let jmember name j = Option.get (Json.member name j)

let with_session ?(max_request = 4096) ?(idle_timeout = 0.)
    ?(request_deadline = 0.) ?(window = 0.001) f =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let server_fd, client_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let batcher =
    Batcher.create
      { Batcher.window;
        max_batch = 256;
        domains = 1;
        cache = Some (Scache.create ());
      }
  in
  let config =
    { Session.batcher; max_request; max_wires = 16; idle_timeout;
      request_deadline; sink = Sink.null }
  in
  let th =
    (* close our end when the session loop exits, as Server.spawn
       does — that close is what turns into EOF on the client side *)
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close server_fd with Unix.Unix_error _ -> ())
          (fun () -> Session.handle config ~conn:1 server_fd))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client_fd with Unix.Unix_error _ -> ());
      Thread.join th;
      Batcher.drain batcher)
    (fun () -> f client_fd (Frame.reader client_fd))

let test_session_verbs () =
  with_session @@ fun fd reader ->
  let net_text = Network_io.to_string oem8 in
  let req verb extra =
    Json.to_string
      (Json.Obj
         (("id", Json.Int 1) :: ("verb", Json.Str verb)
         :: ("network", Json.Str net_text) :: extra))
  in
  let r = send_recv fd reader (req "verify" []) in
  check_bool "verify ok" true (jmember "ok" r = Json.Bool true);
  check_bool "verify sorts" true (jmember "sorts" r = Json.Bool true);
  check_bool "trace id" true
    (match Json.member "trace" r with Some (Json.Str "c1-r1") -> true | _ -> false);
  let input = [ 1; 1; 0; 1; 0; 0; 1; 0 ] in
  let r = send_recv fd reader
      (req "eval" [ ("input", Json.List (List.map (fun v -> Json.Int v) input)) ])
  in
  let expected =
    Array.to_list (Network.eval oem8 (Array.of_list input))
  in
  check_bool "eval output" true
    (jmember "output" r = Json.List (List.map (fun v -> Json.Int v) expected));
  check_bool "eval sorted flag" true (jmember "sorted" r = Json.Bool true);
  (* general (non-0-1) eval takes the inline path *)
  let input = [ 7; 3; 5; 1; 6; 0; 4; 2 ] in
  let r = send_recv fd reader
      (req "eval" [ ("input", Json.List (List.map (fun v -> Json.Int v) input)) ])
  in
  check_bool "permutation eval" true
    (jmember "output" r
    = Json.List (List.map (fun v -> Json.Int v) [ 0; 1; 2; 3; 4; 5; 6; 7 ]));
  let r = send_recv fd reader (req "certify" []) in
  check_bool "certify sorts" true (jmember "sorts" r = Json.Bool true);
  check_bool "certify cross-checked" true
    (jmember "cross_checked" r = Json.Bool true);
  let r = send_recv fd reader (req "lint" []) in
  check_bool "lint sortedness" true
    (jmember "sortedness" r = Json.Str "sorting-proved");
  (* bad requests keep the session alive *)
  let r = send_recv fd reader {|{"id":5,"verb":"verify","algo":"nope","n":4}|} in
  check_bool "bad algo -> error" true (jmember "ok" r = Json.Bool false);
  check_bool "id echoed on error" true (jmember "id" r = Json.Int 5);
  check_bool "error code" true
    (Json.member "code" (jmember "error" r) = Some (Json.Str Wire.e_bad_network));
  let r = send_recv fd reader {|{"id":6,"verb":"verify","algo":"bitonic","n":4}|} in
  check_bool "session still alive" true (jmember "ok" r = Json.Bool true)

(* a network wider than any server could hold is refused by the parse
   with an error reply naming its line, and the session goes on
   answering *)
let test_session_huge_width () =
  with_session @@ fun fd reader ->
  let r =
    send_recv fd reader
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int 7);
              ("verb", Json.Str "verify");
              ("network", Json.Str "snlb-network 1\nwires 1000000000000\n") ]))
  in
  check_bool "huge width -> error" true (jmember "ok" r = Json.Bool false);
  check_bool "huge width code" true
    (Json.member "code" (jmember "error" r) = Some (Json.Str Wire.e_bad_network));
  check_bool "names the line" true
    (match Json.member "message" (jmember "error" r) with
    | Some (Json.Str m) -> String.length m >= 7 && String.sub m 0 7 = "line 2:"
    | _ -> false);
  let r = send_recv fd reader {|{"id":8,"verb":"verify","algo":"bitonic","n":4}|} in
  check_bool "session still alive" true (jmember "ok" r = Json.Bool true)

let test_session_framing_errors () =
  (* a malformed frame gets a typed response, then the connection is
     closed (the stream position can't be trusted) *)
  with_session (fun fd reader ->
      let _ = Unix.write_substring fd "bogus\n" 0 6 in
      (match Frame.read ~max:(1 lsl 20) reader with
      | Ok payload ->
          let r = Result.get_ok (Json.of_string payload) in
          check_bool "malformed -> not ok" true (jmember "ok" r = Json.Bool false);
          check_bool "malformed code" true
            (Json.member "code" (jmember "error" r)
            = Some (Json.Str Wire.e_malformed_frame))
      | Error e -> Alcotest.failf "expected response, got %s" (Frame.error_text e));
      check_bool "connection closed after malformed" true
        (Frame.read ~max:(1 lsl 20) reader = Error Frame.Eof));
  with_session ~max_request:64 (fun fd reader ->
      Frame.write fd (String.make 100 'z');
      (match Frame.read ~max:(1 lsl 20) reader with
      | Ok payload ->
          let r = Result.get_ok (Json.of_string payload) in
          check_bool "oversized code" true
            (Json.member "code" (jmember "error" r)
            = Some (Json.Str Wire.e_oversized))
      | Error e -> Alcotest.failf "expected response, got %s" (Frame.error_text e));
      check_bool "connection closed after oversized" true
        (Frame.read ~max:(1 lsl 20) reader = Error Frame.Eof))

(* --- idle reaper and per-request deadline --- *)

let error_code r = Json.member "code" (jmember "error" r)

let test_session_idle_reaper () =
  (* a silent client is reaped: one typed idle-timeout error, then
     the connection closes *)
  with_session ~idle_timeout:0.2 (fun fd reader ->
      ignore fd;
      let t0 = Unix.gettimeofday () in
      (match Frame.read ~max:(1 lsl 20) reader with
      | Ok payload ->
          let r = Result.get_ok (Json.of_string payload) in
          check_bool "idle -> not ok" true (jmember "ok" r = Json.Bool false);
          check_bool "idle code" true
            (error_code r = Some (Json.Str Wire.e_idle_timeout))
      | Error e -> Alcotest.failf "expected response, got %s" (Frame.error_text e));
      check_bool "reaped promptly" true (Unix.gettimeofday () -. t0 < 5.);
      check_bool "connection closed after idle reap" true
        (Frame.read ~max:(1 lsl 20) reader = Error Frame.Eof));
  (* a session that keeps talking is not reaped *)
  with_session ~idle_timeout:1.0 ~request_deadline:1.0 (fun fd reader ->
      let r =
        send_recv fd reader {|{"id":1,"verb":"verify","algo":"bitonic","n":4}|}
      in
      check_bool "live session answers" true (jmember "ok" r = Json.Bool true);
      let r =
        send_recv fd reader {|{"id":2,"verb":"verify","algo":"bitonic","n":4}|}
      in
      check_bool "still alive within timeouts" true
        (jmember "ok" r = Json.Bool true))

let test_session_deadline () =
  (* a frame that stalls mid-payload misses the deadline: typed
     deadline-exceeded, then close *)
  with_session ~idle_timeout:0.15 ~request_deadline:0.2 (fun fd reader ->
      let _ = Unix.write_substring fd "100\nabc" 0 7 in
      (match Frame.read ~max:(1 lsl 20) reader with
      | Ok payload ->
          let r = Result.get_ok (Json.of_string payload) in
          check_bool "stall -> not ok" true (jmember "ok" r = Json.Bool false);
          check_bool "stall code" true
            (error_code r = Some (Json.Str Wire.e_deadline))
      | Error e -> Alcotest.failf "expected response, got %s" (Frame.error_text e));
      check_bool "connection closed after stalled frame" true
        (Frame.read ~max:(1 lsl 20) reader = Error Frame.Eof));
  (* processing overrun: a batcher window longer than the deadline
     turns a well-formed request into deadline-exceeded *)
  with_session ~request_deadline:0.1 ~window:0.4 (fun fd reader ->
      Frame.write fd {|{"id":1,"verb":"verify","algo":"bitonic","n":4}|};
      (match Frame.read ~max:(1 lsl 20) reader with
      | Ok payload ->
          let r = Result.get_ok (Json.of_string payload) in
          check_bool "overrun -> not ok" true (jmember "ok" r = Json.Bool false);
          check_bool "overrun code" true
            (error_code r = Some (Json.Str Wire.e_deadline));
          check_bool "overrun trace id" true
            (jmember "trace" r = Json.Str "c1-r1")
      | Error e -> Alcotest.failf "expected response, got %s" (Frame.error_text e));
      check_bool "connection closed after overrun" true
        (Frame.read ~max:(1 lsl 20) reader = Error Frame.Eof))

(* --- full server: concurrent clients, drain --- *)

let test_server_concurrent_clients () =
  let path = Filename.temp_file "snlb-serve" ".sock" in
  Unix.unlink path;
  let addr = Server.Unix_path path in
  let cancel = Cancel.create () in
  let config =
    { (Server.default_config addr) with Server.window = 0.01; max_wires = 10 }
  in
  let server_result = ref (Error "never ran") in
  let server_th =
    Thread.create (fun () -> server_result := Server.run ~cancel config) ()
  in
  let rec dial tries =
    match Server.connect addr with
    | fd -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Thread.delay 0.05;
        dial (tries - 1)
  in
  let net_text = Network_io.to_string oem8 in
  let clients = 8 and per_client = 4 in
  let failures = Atomic.make 0 in
  let client () =
    let fd = dial 100 in
    let reader = Frame.reader fd in
    for k = 1 to per_client do
      let mask = (k * 41) land 0xFF in
      let input = List.init 8 (fun w -> (mask lsr w) land 1) in
      let req =
        Json.Obj
          [ ("id", Json.Int k); ("verb", Json.Str "eval");
            ("network", Json.Str net_text);
            ("input", Json.List (List.map (fun v -> Json.Int v) input));
          ]
      in
      Frame.write fd (Json.to_string req);
      let expected =
        Array.to_list (Network.eval oem8 (Array.of_list input))
      in
      match Frame.read ~max:(1 lsl 20) reader with
      | Ok payload ->
          let r = Result.get_ok (Json.of_string payload) in
          if
            not
              (jmember "id" r = Json.Int k
              && jmember "ok" r = Json.Bool true
              && jmember "output" r
                 = Json.List (List.map (fun v -> Json.Int v) expected))
          then Atomic.incr failures
      | Error _ -> Atomic.incr failures
    done;
    Unix.close fd
  in
  spawn_all (List.init clients (fun _ -> client));
  (* trip the token: the server must drain and return Ok *)
  Cancel.cancel cancel;
  Thread.join server_th;
  check_int "every concurrent response matched the direct engine" 0
    (Atomic.get failures);
  check_bool "clean drain" true (!server_result = Ok ());
  check_bool "endpoint removed" true (not (Sys.file_exists path))

let () =
  Alcotest.run "serve"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects" `Quick test_json_rejects ] );
      ( "frame",
        [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed/oversized" `Quick test_frame_malformed ] );
      ( "wire",
        [ Alcotest.test_case "typed parsing" `Quick test_wire_requests;
          Alcotest.test_case "width refused before the build" `Quick
            test_wire_width_before_build ] );
      ( "scache",
        [ Alcotest.test_case "canonical keys" `Quick test_scache_keys;
          Alcotest.test_case "second-chance eviction" `Quick test_scache_eviction ] );
      ( "batcher",
        [ Alcotest.test_case "eval lanes coalesce (>=3x)" `Quick
            test_batch_coalescing_lanes;
          Alcotest.test_case "verify coalescing + canonical cache" `Quick
            test_verify_coalescing_and_cache ] );
      ( "session",
        [ Alcotest.test_case "verbs over a socketpair" `Quick test_session_verbs;
          Alcotest.test_case "huge width is a typed error" `Quick
            test_session_huge_width;
          Alcotest.test_case "idle reaper" `Quick test_session_idle_reaper;
          Alcotest.test_case "request deadline" `Quick test_session_deadline;
          Alcotest.test_case "framing errors are typed" `Quick
            test_session_framing_errors ] );
      ( "server",
        [ Alcotest.test_case "concurrent clients + SIGTERM-style drain" `Quick
            test_server_concurrent_clients ] ) ]
