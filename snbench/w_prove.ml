(* prove: the paper's adversary on a random 2-block shuffle network of
   16384 wires, its fooling-pair certificate through the independent
   checker, and the n = 6 exhaustion certificate. *)

open Util

let n = 16384
let blocks = 2
let n6_depth = 4

let program seed =
  Shuffle_net.random_program (Xoshiro.of_seed seed) ~n
    ~stages:(blocks * Bitops.log2_exact n)

(* Print, parse and check one certificate; the parsed text must print
   back identically. *)
let round_trip c =
  let text, print_s = time (fun () -> Cert.to_string c) in
  let parsed, parse_s = time (fun () -> Cert.parse text) in
  let checked, check_s =
    time (fun () -> match parsed with Ok cs -> Cert.check_all cs | Error e -> Error e)
  in
  let same = match parsed with Ok [ c' ] -> Cert.to_string c' = text | _ -> false in
  (Result.is_ok checked && same, String.length text, print_s, parse_s, check_s)

(* One checked unit, returning its stage times for the traced run. *)
let unit t prog emit_net =
  let stages = ref [] in
  let stage name f =
    let r, dt = time f in
    stages := (name, dt) :: !stages;
    r
  in
  let t0 = now () in
  let it = stage "topology.to_iterated_s" (fun () -> Shuffle_net.to_iterated prog) in
  let r = stage "adversary.theorem41_s" (fun () -> Theorem41.run it) in
  let cert =
    stage "adversary.validate_s" (fun () ->
        match Certificate.of_pattern r.Theorem41.final_pattern with
        | None -> None
        | Some c ->
            if Result.is_ok (Certificate.validate (Iterated.to_network it) c) then Some c
            else None)
  in
  check t "prove: Certificate.validate accepts the fooling pair" (cert <> None);
  let bytes = ref 0 in
  (match cert with
  | None -> ()
  | Some c -> (
      match stage "adversary.to_cert_s" (fun () -> Certificate.to_cert emit_net c) with
      | Error e -> check t ("prove: Certificate.to_cert: " ^ e) false
      | Ok lb ->
          let ok, len, print_s, parse_s, check_s = round_trip lb in
          bytes := len;
          stages :=
            ("cert.check_s", check_s) :: ("cert.parse_s", parse_s)
            :: ("cert.print_s", print_s) :: !stages;
          check t "prove: Cert.check_all accepts the lower-bound certificate" ok));
  let frontiers = ref [] in
  let outcome =
    Driver.optimal_depth ~restrict:false ~max_depth:n6_depth ~n:6
      ~frontier_log:(fun ~level:_ states -> frontiers := states :: !frontiers)
      ()
  in
  let exhaustion =
    stage "search.cert_emit_s" (fun () ->
        match outcome with
        | Driver.Unsorted _ ->
            Cert_emit.exhaustion ~n:6 ~max_depth:n6_depth ~frontiers:(List.rev !frontiers)
        | _ -> Error "n=6 search did not exhaust depth 4")
  in
  check t "prove: the n=6 exhaustion certificate checks"
    (match exhaustion with
    | Ok c ->
        let ok, _, _, _, _ = round_trip c in
        ok
    | Error _ -> false);
  let wall = now () -. t0 in
  (wall, r.Theorem41.survived, !bytes, !stages)

(* The register-model circuit the certificate encodes is built once per
   program, before the timed units; [setup_samples] times rebuilding it. *)
let setup_samples prog () =
  List.init 5 (fun _ -> snd (time (fun () -> Register_model.to_network prog)))

let untraced ~seed ~seconds t =
  let prog = program seed in
  let emit_net = Register_model.to_network prog in
  (* A checked, untimed first unit: it grows the heap to its ~780 MB
     peak, and its page faults would otherwise make it the slowest unit
     of every run, and p90 the noisiest figure. *)
  ignore (unit t prog emit_net);
  let walls, setups =
    repeat_with_setups ~seconds ~sample:(setup_samples prog) (fun () ->
        let wall, _, _, _ = unit t prog emit_net in
        wall)
  in
  end_to_end ~walls ~setups ~ops:(List.length walls) ~latency:(unit_latency walls)
    ~rss:(peak_rss_mb None) t

let traced ~seed ~seconds t =
  let prog = program seed in
  let emit_net = Register_model.to_network prog in
  let half = seconds /. 2. in
  let untraced = repeat ~seconds:half (fun () -> unit t prog emit_net) in
  let traced = repeat ~seconds:half (fun () -> unit t prog emit_net) in
  let wall (w, _, _, _) = w in
  let stage name =
    median (List.map (fun (_, _, _, st) -> Option.value (List.assoc_opt name st) ~default:0.) traced)
  in
  let _, survived, bytes, _ = List.hd traced in
  List.map
    (fun name -> m name "s" (stage name))
    [ "topology.to_iterated_s"; "adversary.theorem41_s"; "adversary.validate_s";
      "adversary.to_cert_s"; "cert.print_s"; "cert.parse_s"; "cert.check_s";
      "search.cert_emit_s" ]
  @ [ m "adversary.blocks_survived" "count" (float_of_int survived);
      m "cert.bytes" "B" (float_of_int bytes);
      m "trace.overhead_ratio" "ratio"
        (median (List.map wall traced) /. median (List.map wall untraced)) ]
