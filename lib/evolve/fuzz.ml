type disagreement = {
  index : int;
  kind : string;
  detail : string;
  genome : Genome.t;
  original : Genome.t;
}

type report = {
  checked : int;
  disagreements : disagreement list;
  elapsed : float;
}

let c_networks = Metrics.counter "fuzz.networks"
let c_disagreements = Metrics.counter "fuzz.disagreements"

let fail kind fmt = Printf.ksprintf (fun detail -> Error (kind, detail)) fmt

let ( let* ) = Result.bind

(* All 2^n outputs of the compiled network — used to compare whole
   truth tables bit for bit. *)
let truth_table c =
  Bitslice.eval_masks c (Array.init (1 lsl Compiled.wires c) Fun.id)

let scalar_unsorted_count nw =
  let n = Network.wires nw in
  let count = ref 0 in
  for t = 0 to (1 lsl n) - 1 do
    let input = Array.init n (fun w -> (t lsr w) land 1) in
    if not (Sortedness.is_sorted (Network.eval nw input)) then incr count
  done;
  !count

let check_engine_vs_interpreter nw c =
  let n = Network.wires nw in
  let engine = Bitslice.count_unsorted c in
  let scalar = scalar_unsorted_count nw in
  let* () =
    if engine <> scalar then
      fail "engine-vs-interpreter"
        "bit-sliced unsorted count %d, Network.eval count %d" engine scalar
    else Ok ()
  in
  let* () =
    let sorted = Bitslice.count_sorted_range c ~lo:0 ~hi:(1 lsl n) in
    if sorted + engine <> 1 lsl n then
      fail "engine-vs-engine" "count_sorted_range %d + unsorted %d <> 2^%d"
        sorted engine n
    else Ok ()
  in
  match Bitslice.find_unsorted c with
  | None ->
      if engine = 0 then Ok ()
      else fail "engine-vs-engine" "no witness but unsorted count %d" engine
  | Some w ->
      if engine = 0 then
        fail "engine-vs-engine" "witness %d but unsorted count 0" w
      else
        let out = (Bitslice.eval_masks c [| w |]).(0) in
        if Bitslice.mask_sorted ~wires:n out then
          fail "engine-vs-engine" "witness %d evaluates sorted (out %d)" w out
        else Ok ()

let equal_tables kind nw nw' =
  let t = truth_table (Compiled.of_network nw) in
  let t' = truth_table (Compiled.of_network nw') in
  let bad = ref None in
  Array.iteri
    (fun i o -> if !bad = None && o <> t'.(i) then bad := Some i)
    t;
  match !bad with
  | None -> Ok ()
  | Some i ->
      fail kind "0-1 behaviour differs on input %d (%d vs %d)" i t.(i) t'.(i)

let check_analyzer nw c =
  let r = Analysis.analyze nw in
  let facts = r.Analysis.facts in
  let sorts = Bitslice.is_sorting_network c in
  let* () =
    match facts.Analysis.sortedness with
    | Analysis.Sorting_proved ->
        if sorts then Ok ()
        else fail "analyzer-vs-engine" "analyzer proves sorting, engine refutes"
    | Analysis.Sorting_refuted m ->
        (* [m] is a reachable unsorted *output* mask, not an input:
           it must really be unsorted and really have a preimage. *)
        if sorts then
          fail "analyzer-vs-engine"
            "analyzer refutes with mask %d, engine verifies" m
        else if Bitslice.mask_sorted ~wires:(Network.wires nw) m then
          fail "analyzer-vs-engine" "analyzer's refutation mask %d is sorted" m
        else if not (Array.exists (fun o -> o = m) (truth_table c)) then
          fail "analyzer-vs-engine"
            "analyzer's refutation mask %d is not a reachable output" m
        else Ok ()
    | Analysis.Sorted_by_bounds | Analysis.Unknown ->
        fail "analyzer-not-exact"
          "exact domain expected at %d wires" (Network.wires nw)
  in
  (* the dead classification is an extensional claim; hold the
     analyzer to it bit for bit *)
  equal_tables "analyzer-dead-removal" nw (Analysis.remove_dead nw facts)

let check_adversary nw c =
  let res = Naive.run nw in
  match Certificate.of_pattern res.Naive.final_pattern with
  | None -> Ok ()
  | Some cert -> (
      match Certificate.validate nw cert with
      | Error e ->
          fail "adversary-vs-certificate"
            "naive adversary produced an invalid certificate: %s" e
      | Ok () ->
          if Bitslice.is_sorting_network c then
            fail "adversary-vs-engine"
              "valid fooling pair (wires %d,%d) on an engine-verified sorter"
              cert.Certificate.wire0 cert.Certificate.wire1
          else Ok ())

(* Fifth oracle: the certifying emitters against the independent
   checker. The analyzer's sortedness and dead-gate certificates must
   (a) agree in kind with the engine's verdict, (b) survive a
   print/parse round-trip of the portable text format byte for byte,
   and (c) be accepted by the checker — which shares no code with the
   emitters, so any disagreement here is a real bug on one side. *)
let check_certificates nw c =
  let sorts = Bitslice.is_sorting_network c in
  let* cert =
    match Analysis_cert.sortedness nw with
    | Ok cert -> Ok cert
    | Error e -> fail "cert-emit" "no sortedness certificate: %s" e
  in
  let* () =
    match (cert, sorts) with
    | Cert.Sortedness _, true | Cert.Refutation _, false -> Ok ()
    | Cert.Sortedness _, false ->
        fail "cert-vs-engine"
          "sortedness certificate for an engine-refuted network"
    | Cert.Refutation _, true ->
        fail "cert-vs-engine"
          "refutation certificate for an engine-verified sorter"
    | _, _ ->
        fail "cert-emit" "unexpected certificate kind %s" (Cert.kind_name cert)
  in
  let* dead =
    match Analysis_cert.dead_gates nw with
    | Ok d -> Ok (Option.to_list d)
    | Error e -> fail "cert-emit" "no dead-gate certificate: %s" e
  in
  let certs = cert :: dead in
  let text = String.concat "\n" (List.map Cert.to_string certs) in
  match Cert.parse text with
  | Error e ->
      fail "cert-roundtrip" "emitted text rejected: %s %s: %s" e.Cert.code
        e.Cert.where e.Cert.reason
  | Ok certs' -> (
      let* () =
        if text <> String.concat "\n" (List.map Cert.to_string certs') then
          fail "cert-roundtrip" "print/parse/print is not the identity"
        else Ok ()
      in
      match Cert.check_all certs' with
      | Ok () -> Ok ()
      | Error e ->
          fail "cert-vs-checker"
            "checker rejects an emitted certificate: %s %s: %s" e.Cert.code
            e.Cert.where e.Cert.reason)

let check_known_optima nw c =
  match Evolve.known_optimal_depth (Network.wires nw) with
  | None -> Ok ()
  | Some opt ->
      if Network.depth nw < opt && Bitslice.is_sorting_network c then
        fail "engine-vs-known-optima"
          "engine verifies a depth-%d sorter on %d wires (proved optimum %d)"
          (Network.depth nw) (Network.wires nw) opt
      else Ok ()

let check_genome g =
  if Genome.wires g > Analysis.default_exact_max_wires then
    invalid_arg
      (Printf.sprintf "Fuzz.check_genome: wires > %d"
         Analysis.default_exact_max_wires);
  let nw = Genome.to_network g in
  let c = Compiled.of_network nw in
  let* () = check_engine_vs_interpreter nw c in
  let* () = check_analyzer nw c in
  let* () = check_adversary nw c in
  let* () = check_certificates nw c in
  check_known_optima nw c

let sample_genome rng =
  let wires = 2 + Xoshiro.int rng ~bound:7 in
  let depth = 1 + Xoshiro.int rng ~bound:8 in
  let density = 0.3 +. (0.7 *. Xoshiro.float rng) in
  Genome.random rng ~wires ~depth ~density ()

(* Stream [index] is the base stream jumped [index] times: 2^128
   outputs apart, so replaying one index never regenerates the
   others. *)
let genome_at ~seed ~index =
  let base = Xoshiro.of_seed seed in
  for _ = 1 to index do
    Xoshiro.jump base
  done;
  sample_genome base

let minimize g ~fails =
  let drop g l gi =
    Genome.create ~wires:(Genome.wires g)
      (Array.mapi
         (fun li pairs ->
           if li <> l then pairs
           else
             Array.of_list
               (List.filteri (fun i _ -> i <> gi) (Array.to_list pairs)))
         g.Genome.levels)
  in
  let rec shrink g =
    let smaller = ref None in
    Array.iteri
      (fun l pairs ->
        Array.iteri
          (fun gi _ ->
            if !smaller = None then begin
              let cand = drop g l gi in
              if fails cand then smaller := Some cand
            end)
          pairs)
      g.Genome.levels;
    match !smaller with Some g' -> shrink g' | None -> g
  in
  if not (fails g) then g else shrink g

let run ?(sink = Sink.null) ?cancel ?(seconds = 10.) ?count ~seed () =
  Span.run ~sink ~name:"fuzz" (fun sp ->
      let t0 = Clock.wall () in
      let deadline = t0 +. seconds in
      let cancelled () =
        match cancel with None -> false | Some c -> Cancel.cancelled c
      in
      let stream = Xoshiro.of_seed seed in
      let checked = ref 0 in
      let disagreements = ref [] in
      let continue () =
        (match count with Some k -> !checked < k | None -> true)
        && (!checked = 0 || Clock.wall () < deadline)
        && not (cancelled ())
      in
      while continue () do
        let index = !checked in
        let rng = Xoshiro.copy stream in
        Xoshiro.jump stream;
        let g = sample_genome rng in
        Metrics.incr c_networks;
        (match check_genome g with
        | Ok () -> ()
        | Error (kind, detail) ->
            Metrics.incr c_disagreements;
            let fails cand =
              match check_genome cand with
              | Ok () -> false
              | Error (k, _) -> k = kind
            in
            let minimized = minimize g ~fails in
            disagreements :=
              { index; kind; detail; genome = minimized; original = g }
              :: !disagreements);
        incr checked
      done;
      let elapsed = Clock.wall () -. t0 in
      Span.add sp "checked" (Sink.Int !checked);
      Span.add sp "disagreements" (Sink.Int (List.length !disagreements));
      { checked = !checked;
        disagreements = List.rev !disagreements;
        elapsed;
      })
