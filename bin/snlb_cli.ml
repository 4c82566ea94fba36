(* snlb: command-line front end for the sorting-network lower-bound
   library.  Subcommands: list, sort, verify, certify, check, table,
   dot, draw, save, load, lint, search, route, serve, client, evolve,
   fuzz. *)

open Cmdliner

let n_arg =
  let doc = "Input width (must be a power of two for most networks)." in
  Arg.(value & opt int 16 & info [ "n"; "size" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed; every run is deterministic given the seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let algo_arg =
  let doc =
    Printf.sprintf "Sorting network to use; one of: %s."
      (String.concat ", " Sorter_registry.names)
  in
  Arg.(value & opt string "bitonic" & info [ "algo" ] ~docv:"ALGO" ~doc)

let build_sorter algo n =
  match Sorter_registry.find algo with
  | None ->
      Error
        (Printf.sprintf "unknown network %S; try: %s" algo
           (String.concat ", " Sorter_registry.names))
  | Some e ->
      if e.pow2_only && not (Bitops.is_power_of_two n) then
        Error (Printf.sprintf "%s requires n to be a power of two" algo)
      else
        match e.build n with
        | nw -> Ok nw
        | exception Invalid_argument msg -> Error msg

let pp_array a =
  "[" ^ String.concat " " (Array.to_list (Array.map string_of_int a)) ^ "]"

(* certificate emission: the emitters in Analysis_cert / Cert_emit /
   Certificate self-check every certificate with [Cert.check] before
   returning it, so a written file is already known to pass
   [snlb check]. *)
let write_certs path certs =
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i c ->
          if i > 0 then Out_channel.output_char oc '\n';
          Cert.output oc c)
        certs);
  Printf.printf "%d certificate%s written to %s\n" (List.length certs)
    (if List.length certs = 1 then "" else "s")
    path

(* observability: --trace streams span events as NDJSON while the run
   is in flight, --metrics prints the global counter/histogram summary
   after it *)

let trace_arg =
  let doc = "Stream observability span events as NDJSON lines to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the global metrics summary (counters and histograms) after the run."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* record the resolved fan-out and the auto-pick ceiling as counters so
   --metrics (and the bench JSON built on it) shows the true domain
   count next to the [Par.default_cap] it was clamped by —
   [snlb_parallel] has no Metrics dependency, so the recording lives
   here at the entry points *)
let record_domains domains =
  Metrics.add (Metrics.counter "par.domains") domains;
  Metrics.add (Metrics.counter "par.domains.default_cap") Par.default_cap

let print_metrics () =
  let t =
    Ascii_table.create
      ~columns:[ ("metric", Ascii_table.Left); ("value", Ascii_table.Right) ]
  in
  List.iter (fun (name, v) -> Ascii_table.add_row t [ name; v ]) (Obs.summary ());
  Ascii_table.print t

let with_obs ~trace ~metrics f =
  let oc = Option.map open_out trace in
  let sink = match oc with None -> Sink.null | Some oc -> Sink.ndjson oc in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out oc)
    (fun () ->
      let code = f sink in
      if metrics then print_metrics ();
      code)

(* Exit codes. 0 = success (including exhaustive negative verdicts);
   1 = genuine failure (non-sorting witness, invalid certificate, bad
   input file); 2 = usage error (also Cmdliner's own parse errors, via
   ~term_err below); 3 = budget exhausted before any verdict; 130 =
   interrupted by a signal or cancellation (the shell convention for
   death-by-SIGINT), with progress saved when a checkpoint is
   configured. *)

let exit_failure = 1
let exit_usage = 2
let exit_budget = 3
let exit_interrupted = 130

let usage_error msg =
  prerr_endline msg;
  exit_usage

let c_interrupted = Metrics.counter "run.interrupted"

(* Long-running subcommands poll a cooperative token at their natural
   boundaries; SIGINT/SIGTERM trip it, so the run drains cleanly,
   flushes its final checkpoint, and reports a distinct exit code
   instead of dying with a torn file. *)
let with_signals f =
  let cancel = Cancel.create () in
  let install sg =
    match Sys.signal sg (Sys.Signal_handle (fun _ -> Cancel.cancel cancel)) with
    | old -> Some (sg, old)
    | exception Invalid_argument _ | exception Sys_error _ -> None
  in
  let installed = List.filter_map install [ Sys.sigint; Sys.sigterm ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (sg, old) -> try Sys.set_signal sg old with _ -> ())
        installed)
    (fun () -> f cancel)

let interrupted_exit what =
  Metrics.incr c_interrupted;
  flush stdout;
  Printf.eprintf "snlb: %s interrupted\n%!" what;
  exit_interrupted

(* --checkpoint / --checkpoint-interval / --resume, shared by the
   subcommands that can run for hours (search, certify) *)

let checkpoint_arg =
  let doc =
    "Write crash-safe progress snapshots to $(docv) (atomic rename; the \
     previous snapshot is kept as $(docv).bak)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let interval_arg =
  let doc =
    "Seconds between checkpoint writes (0 = every consistent boundary)."
  in
  Arg.(value & opt float 60. & info [ "checkpoint-interval" ] ~docv:"SECS" ~doc)

let resume_arg =
  let doc =
    "Resume from the snapshot at --checkpoint instead of starting fresh \
     (a missing or damaged snapshot degrades to a fresh run)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* sort *)

let sort_cmd =
  let run algo n seed =
    match build_sorter algo n with
    | Error e -> usage_error e
    | Ok nw ->
        let rng = Xoshiro.of_seed seed in
        let input = Workload.random_permutation rng ~n in
        let out = Network.eval nw input in
        Printf.printf "network : %s\n" algo;
        Format.printf "stats   : %a@." Network.pp_stats nw;
        Printf.printf "input   : %s\n" (pp_array input);
        Printf.printf "output  : %s\n" (pp_array out);
        Printf.printf "sorted  : %b\n" (Sortedness.is_sorted out);
        0
  in
  let doc = "Build a sorting network and run it on a random input." in
  Cmd.v (Cmd.info "sort" ~doc) Term.(const run $ algo_arg $ n_arg $ seed_arg)

(* verify *)

let verify_cmd =
  let domains_arg =
    let doc =
      "Parallel domains for the 2^n-input sweep (0 = auto; the \
       SNLB_DOMAINS environment variable pins the auto choice)."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let run algo n domains trace metrics =
    let built =
      if n > Zero_one.default_max_wires then
        Error
          (Printf.sprintf "verify: n=%d exceeds the %d-wire limit of the 0-1 sweep"
             n Zero_one.default_max_wires)
      else build_sorter algo n
    in
    match built with
    | Error e -> usage_error e
    | Ok nw ->
        let domains =
          if domains <= 0 then Par.recommended_domains () else domains
        in
        record_domains domains;
        with_obs ~trace ~metrics @@ fun sink ->
        Printf.printf "verifying %s on n=%d over all %d zero-one inputs...\n%!"
          algo n (1 lsl n);
        let answer =
          Span.run ~sink ~name:"verify" @@ fun sp ->
          Span.add sp "algo" (Sink.Str algo);
          Span.add sp "n" (Sink.Int n);
          Span.add sp "domains" (Sink.Int domains);
          Zero_one.verify ~domains nw
        in
        (match answer with
        | Ok () ->
            Printf.printf "sorting network: true\n";
            0
        | Error witness ->
            Printf.printf "sorting network: false\n";
            Printf.printf "failing input: %s\n" (pp_array witness);
            Printf.printf "network output: %s\n"
              (pp_array (Network.eval nw witness));
            1)
  in
  let doc =
    "Exactly verify a network via the 0-1 principle (n <= 26), \
     bit-sliced 64 inputs per pass on the compiled engine."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ algo_arg $ n_arg $ domains_arg $ trace_arg $ metrics_arg)

(* certify *)

let certify_cmd =
  let kind_arg =
    let doc = "Network family: all-plus, random, or bitonic." in
    Arg.(value & opt string "random" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let blocks_arg =
    let doc = "Number of lg-n-stage shuffle blocks." in
    Arg.(value & opt int 2 & info [ "blocks" ] ~docv:"B" ~doc)
  in
  let file_arg =
    let doc =
      "Run the adversary against a serialised network instead of a \
       generated family. The network must statically conform to the \
       paper's iterated-reverse-delta topology (checked by the \
       analyzer's recognizer); non-conforming inputs are rejected \
       before any adversary work."
    in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"NET" ~doc)
  in
  let emit_cert_arg =
    let doc =
      "After validating the fooling pair, also package it as a portable \
       lower-bound certificate (register-model stage transcript) and \
       write it to $(docv) for $(b,snlb check)."
    in
    Arg.(value & opt (some string) None & info [ "emit-cert" ] ~docv:"FILE" ~doc)
  in
  let run kind file n blocks seed emit ckpt resume trace metrics =
    if resume && ckpt = None then
      usage_error "certify: --resume needs --checkpoint FILE"
    else if file = None && not (Bitops.is_power_of_two n) then
      usage_error "certify: n must be a power of two"
    else begin
      let from_file =
        match file with
        | None -> Ok None
        | Some path -> (
            match Network_io.load path with
            | Error e -> Error (path ^ ": " ^ e)
            | Ok nw -> (
                (* Theorem 4.1's precondition, decided statically: the
                   circuit must be an iterated reverse delta network *)
                match Conform.to_iterated nw with
                | Error e ->
                    Error
                      (Printf.sprintf
                         "%s: not an iterated reverse delta network (%s); \
                          Theorem 4.1 does not apply"
                         path e)
                | Ok it -> Ok (Some (nw, it))))
      in
      match from_file with
      | Error e ->
          prerr_endline ("certify: " ^ e);
          exit_failure
      | Ok maybe_it ->
      with_obs ~trace ~metrics @@ fun sink ->
      with_signals @@ fun cancel ->
      (* [emit_net] is the register-model form of the same circuit —
         the stage-transcript shape the portable certificate encodes.
         A loaded file is used as-is (emission rejects it if its gates
         are off the register pairs); a generated program converts
         exactly. *)
      let it, emit_net =
        match maybe_it with
        | Some (nw, it) -> (it, nw)
        | None ->
            let d = Bitops.log2_exact n in
            let rng = Xoshiro.of_seed seed in
            let prog =
              match kind with
              | "all-plus" ->
                  Shuffle_net.all_plus_program ~n ~stages:(blocks * d)
              | "random" ->
                  Shuffle_net.random_program rng ~n ~stages:(blocks * d)
              | "bitonic" -> Bitonic.shuffle_program ~n
              | other ->
                  prerr_endline ("unknown kind " ^ other ^ ", using random");
                  Shuffle_net.random_program rng ~n ~stages:(blocks * d)
            in
            (Shuffle_net.to_iterated prog, Register_model.to_network prog)
      in
      let n = Iterated.n it in
      let d = Bitops.log2_exact n in
      let r = Theorem41.run ~sink ~cancel ?checkpoint:ckpt ~resume it in
      Printf.printf "n=%d, %d blocks of %d shuffle stages\n" n
        (Iterated.block_count it) d;
      List.iter
        (fun (b : Theorem41.block_report) ->
          Printf.printf "  block %d: |A|=%d |B|=%d sets=%d |D|=%d\n" b.index
            b.a_size b.b_size b.sets b.d_size)
        r.reports;
      Printf.printf "blocks survived: %d / %d\n" r.survived
        (Iterated.block_count it);
      if r.interrupted then begin
        Printf.printf "adversary interrupted after %d blocks\n"
          (List.length r.reports);
        interrupted_exit "certify"
      end
      else
        match Certificate.of_pattern r.final_pattern with
        | None ->
            Printf.printf
              "adversary defeated: no fooling pair (network may sort).\n";
            0
        | Some cert -> (
            let nw = Iterated.to_network it in
            Printf.printf "fooling pair: swap values %d,%d (wires %d,%d)\n"
              cert.Certificate.value0 cert.Certificate.value1
              cert.Certificate.wire0 cert.Certificate.wire1;
            match Certificate.validate nw cert with
            | Ok () -> (
                Printf.printf
                  "certificate VALID: the network is not a sorting network.\n";
                match emit with
                | None -> 0
                | Some path -> (
                    match Certificate.to_cert emit_net cert with
                    | Ok c ->
                        write_certs path [ c ];
                        0
                    | Error e ->
                        Printf.eprintf "certify: cannot emit certificate: %s\n"
                          e;
                        exit_failure))
            | Error e ->
                Printf.printf "certificate INVALID: %s\n" e;
                exit_failure)
    end
  in
  let doc =
    "Run the Plaxton-Suel adversary against a shuffle-based network and \
     emit a validated fooling pair. With --checkpoint the adversary \
     snapshots its state after every block and --resume continues an \
     interrupted run."
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(
      const run $ kind_arg $ file_arg $ n_arg $ blocks_arg $ seed_arg
      $ emit_cert_arg $ checkpoint_arg $ resume_arg $ trace_arg $ metrics_arg)

(* table *)

let table_cmd =
  let id_arg =
    let doc = "Experiment id (E1..E13) or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let quick_arg =
    let doc = "Smaller sweeps (seconds instead of minutes)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let run id quick =
    if String.lowercase_ascii id = "all" then begin
      Registry.run_all ~quick;
      0
    end
    else
      match Registry.find id with
      | Some e ->
          e.Registry.run ~quick;
          0
      | None ->
          Printf.eprintf "unknown experiment %s; known: %s, all\n" id
            (String.concat ", " (List.map (fun e -> e.Registry.id) Registry.all));
          exit_usage
  in
  let doc = "Regenerate an experiment table (see EXPERIMENTS.md)." in
  Cmd.v (Cmd.info "table" ~doc) Term.(const run $ id_arg $ quick_arg)

(* dot *)

let dot_cmd =
  let out_arg =
    let doc = "Output file (stdout if omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run algo n out =
    match build_sorter algo n with
    | Error e -> usage_error e
    | Ok nw ->
        let dot = Network.to_dot nw in
        (match out with
        | None -> print_string dot
        | Some f ->
            let oc = open_out f in
            output_string oc dot;
            close_out oc);
        0
  in
  let doc = "Export a network as Graphviz DOT." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ algo_arg $ n_arg $ out_arg)

(* draw *)

let draw_cmd =
  let run algo n =
    match build_sorter algo n with
    | Error e -> usage_error e
    | Ok nw ->
        print_string (Diagram.render nw);
        0
  in
  let doc = "Draw a network as a Knuth-style ASCII diagram (n <= 64)." in
  Cmd.v (Cmd.info "draw" ~doc) Term.(const run $ algo_arg $ n_arg)

(* save / load *)

let save_cmd =
  let file_arg =
    let doc = "Destination file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run algo n file =
    match build_sorter algo n with
    | Error e -> usage_error e
    | Ok nw ->
        (match Network_io.save file nw with
        | Ok () ->
            Printf.printf "wrote %s (%d wires, %d comparators)\n" file
              (Network.wires nw) (Network.size nw);
            0
        | Error e ->
            Printf.eprintf "%s: %s\n" file e;
            exit_failure)
  in
  let doc = "Serialise a network to the snlb text format." in
  Cmd.v (Cmd.info "save" ~doc) Term.(const run $ algo_arg $ n_arg $ file_arg)

let load_cmd =
  let file_arg =
    let doc = "Network file in the snlb text format." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc =
      "Analysis gate: $(b,off) loads anything parseable, $(b,warn) \
       (default) rejects networks with error-severity diagnostics, \
       $(b,strict) also rejects warnings (dead comparators, untouched \
       channels, ...)."
    in
    Arg.(
      value
      & opt (enum [ ("off", Analysis.Off); ("warn", Analysis.Warn);
                    ("strict", Analysis.Strict) ]) Analysis.Warn
      & info [ "check" ] ~docv:"MODE" ~doc)
  in
  let run file check =
    match Network_io.load file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok nw ->
        (* warning/error diagnostics go to stderr; proved-fact infos
           stay in [snlb lint], keeping clean-network output stable *)
        let show diags =
          List.iter
            (fun d ->
              if d.Diag.severity <> Diag.Info then prerr_endline (Diag.to_text d))
            diags
        in
        (match Analysis.check ~strictness:check nw with
        | Error diags ->
            show diags;
            Printf.eprintf "%s: rejected by the analysis gate (--check off to bypass)\n"
              file;
            1
        | Ok diags ->
            show diags;
            Format.printf "%s: %a@." file Network.pp_stats nw;
            (if Network.wires nw <= 20 then
               Printf.printf "sorting network: %b\n" (Zero_one.is_sorting_network nw));
            0)
  in
  let doc =
    "Load a serialised network through the analysis gate, print stats \
     and verify it."
  in
  Cmd.v (Cmd.info "load" ~doc) Term.(const run $ file_arg $ check_arg)

(* lint *)

let lint_cmd =
  let file_arg =
    let doc =
      "Network file to lint (snlb text format); omit to lint a \
       registry network chosen with --algo/-n."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,text) or $(b,json) (NDJSON, one \
               diagnostic per line)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let exact_max_arg =
    let doc =
      "Widest network analysed with the exact reachable-set domain; \
       wider ones use the sound order-bounds approximation."
    in
    Arg.(
      value
      & opt int Analysis.default_exact_max_wires
      & info [ "exact-max" ] ~docv:"N" ~doc)
  in
  let strict_arg =
    let doc = "Exit 1 on warnings too, not just errors." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let emit_cert_arg =
    let doc =
      "Write proof-carrying certificates for the analyzer's verdicts \
       to $(docv): a sortedness certificate (reach, bounds, or a \
       refutation witness) plus, when dead comparators were found in \
       the exact domain, their reachable-set facts. Exits 1 \
       if no certificate backs the verdict (bounds domain \
       undecided)."
    in
    Arg.(value & opt (some string) None & info [ "emit-cert" ] ~docv:"FILE" ~doc)
  in
  let opt_str name = function None -> name ^ ": no" | Some v ->
    Printf.sprintf "%s: yes (%d)" name v
  in
  let run file algo n fmt exact_max strict emit metrics =
    let nw =
      match file with
      | Some path -> (
          match Network_io.load path with
          | Ok nw -> Ok (path, nw)
          | Error e -> Error (path ^ ": " ^ e))
      | None -> (
          match build_sorter algo n with
          | Ok nw -> Ok (Printf.sprintf "%s n=%d" algo n, nw)
          | Error e -> Error e)
    in
    match nw with
    | Error e -> usage_error ("lint: " ^ e)
    | Ok (name, nw) ->
        let r =
          Analysis.analyze ~exact_max_wires:exact_max ~cross_check:true nw
        in
        (match fmt with
        | `Json ->
            List.iter (fun d -> print_endline (Diag.to_json d)) r.diags
        | `Text ->
            List.iter (fun d -> print_endline (Diag.to_text d)) r.diags;
            let f = r.facts in
            Printf.printf
              "%s: %d wires, %d levels, %d comparators (%d dead), %s, %s, \
               %s\n"
              name f.wires f.levels f.comparators (List.length f.dead)
              (opt_str "shuffle-based" f.shuffle_stages)
              (opt_str "iterated reverse delta" f.reverse_delta_blocks)
              (opt_str "delta" f.delta_blocks));
        if metrics then print_metrics ();
        let emit_status =
          match emit with
          | None -> 0
          | Some path -> (
              match Analysis_cert.sortedness ~exact_max_wires:exact_max nw with
              | Error e ->
                  Printf.eprintf "lint: cannot emit certificate: %s\n" e;
                  1
              | Ok sc -> (
                  match
                    Analysis_cert.dead_gates ~exact_max_wires:exact_max nw
                  with
                  | Error e ->
                      Printf.eprintf "lint: cannot emit certificate: %s\n" e;
                      1
                  | Ok dc ->
                      write_certs path
                        (sc :: Option.to_list dc);
                      0))
        in
        let errs = Diag.count r.diags Diag.Error
        and warns = Diag.count r.diags Diag.Warning in
        if errs > 0 || (strict && warns > 0) || emit_status > 0 then 1 else 0
  in
  let doc =
    "Statically analyse a comparator network: abstract-interpretation \
     sortedness and dead-comparator proofs, structural lints, \
     and shuffle/delta topology conformance. Exits 1 when an \
     error-severity diagnostic is present (with --strict, warnings \
     too)."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ file_arg $ algo_arg $ n_arg $ format_arg $ exact_max_arg
      $ strict_arg $ emit_cert_arg $ metrics_arg)

(* check *)

let check_cmd =
  let file_arg =
    let doc =
      "Certificate file in the snlb-cert text format (one or more \
       certificates, as written by --emit-cert)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error e -> usage_error ("check: " ^ e)
    | text -> (
        match Cert.parse text with
        | Error e ->
            Printf.printf "REJECTED %s %s: %s\n" e.Cert.code e.Cert.where
              e.Cert.reason;
            exit_failure
        | Ok certs ->
            let bad = ref 0 in
            List.iteri
              (fun i c ->
                match Cert.check c with
                | Ok () ->
                    Printf.printf "cert %d (%s): OK\n" (i + 1)
                      (Cert.kind_name c)
                | Error e ->
                    incr bad;
                    Printf.printf "cert %d (%s): REJECTED %s %s: %s\n" (i + 1)
                      (Cert.kind_name c) e.Cert.code e.Cert.where e.Cert.reason)
              certs;
            if !bad = 0 then begin
              Printf.printf "all %d certificate%s OK\n" (List.length certs)
                (if List.length certs = 1 then "" else "s");
              0
            end
            else exit_failure)
  in
  let doc =
    "Validate proof-carrying certificates with the independent checker. \
     The checker re-derives every claim from the certificate text alone \
     — it shares no code with the engine, searcher, or analyzer that \
     produced the verdict. Exits 0 only if every certificate in the \
     file checks; a rejected certificate prints a typed CRT*** \
     diagnostic."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ file_arg)

(* search *)

let search_cmd =
  let search_n_arg =
    let doc = "Number of channels." in
    Arg.(value & opt int 6 & info [ "n"; "size" ] ~docv:"N" ~doc)
  in
  let depth_arg =
    let doc =
      "Decide whether some network of at most $(docv) layers (stages in      --shuffle mode) sorts, instead of certifying the optimum."
    in
    Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"D" ~doc)
  in
  let optimal_arg =
    let doc =
      "Certify the exact optimal depth (the default when --depth is absent)."
    in
    Arg.(value & flag & info [ "optimal" ] ~doc)
  in
  let shuffle_arg =
    let doc =
      "Search shuffle-based networks only (Knuth 5.3.4.47 / the paper's      Section 6) instead of free comparator layers."
    in
    Arg.(value & flag & info [ "shuffle" ] ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains for each level's signature pass and subsumption \
       filter (0 = auto). Every domain count prints the same output."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let max_depth_arg =
    let doc = "Depth cap for optimal search (default: n, or 6 with --shuffle)." in
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~docv:"D" ~doc)
  in
  let budget_arg =
    let doc = "Search budget in nodes (move applications)." in
    Arg.(value & opt int 200_000_000 & info [ "budget" ] ~docv:"NODES" ~doc)
  in
  let emit_cert_arg =
    let doc =
      "Write an exhaustion certificate for the search's negative claim \
       to $(docv): the per-level surviving frontiers plus, for every \
       expanded child, a subsumption witness (cited pool entry and wire \
       permutation) the independent checker replays. Forces the \
       unrestricted reference search (every layer, equality-only \
       dedup). \
       On an $(b,--optimal) run that finds a depth-$(i,d) sorter, emits \
       exhaustion at depth $(i,d-1) plus a sortedness certificate for \
       the witness network — together a proof of optimality. Not \
       available with --shuffle or --resume."
    in
    Arg.(value & opt (some string) None & info [ "emit-cert" ] ~docv:"FILE" ~doc)
  in
  let pp_layer layer =
    String.concat "" (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) layer)
  in
  let print_stats (s : Driver.stats) =
    Printf.printf
      "nodes: %d  pruned: %d  deduped: %d  subsumed: %d  redundant: %d  \
       peak frontier: %d\n"
      s.Driver.nodes s.Driver.pruned s.Driver.deduped s.Driver.subsumed
      s.Driver.redundant s.Driver.peak_frontier
  in
  let run n depth _optimal shuffle domains max_depth budget emit ckpt interval
      resume trace metrics =
    let budget = { Driver.max_nodes = budget; max_seconds = None } in
    let domains = if domains <= 0 then Par.recommended_domains () else domains in
    record_domains domains;
    if resume && ckpt = None then
      usage_error "search: --resume needs --checkpoint FILE"
    else if emit <> None && shuffle then
      usage_error "search: --emit-cert does not support --shuffle"
    else if emit <> None && resume then
      usage_error
        "search: --emit-cert needs the full frontier log; not available \
         with --resume"
    else begin
      let checkpoint = Option.map (fun path -> (path, interval)) ckpt in
      if shuffle then begin
        if not (Bitops.is_power_of_two n) || n < 2 || n > 16 then
          usage_error "search: --shuffle needs n a power of two in [2,16]"
        else
          with_obs ~trace ~metrics @@ fun sink ->
          with_signals @@ fun cancel ->
          match depth with
          | Some depth -> (
              match
                Min_depth.search ~n ~depth ~budget ~domains ~sink ~cancel
                  ?checkpoint ~resume ()
              with
              | Min_depth.Sorter prog ->
                  Printf.printf "depth-%d shuffle-based sorter EXISTS for n=%d " depth n;
                  Printf.printf "(witness verified: %b)\n"
                    (Min_depth.verify_witness ~n prog);
                  List.iteri
                    (fun i ops ->
                      let ops = Array.map (Format.asprintf "%a" Register_model.pp_op) ops in
                      Printf.printf "  stage %d: %s\n" (i + 1)
                        (String.concat "" (Array.to_list ops)))
                    prog;
                  0
              | Min_depth.Impossible ->
                  Printf.printf "no depth-%d shuffle-based sorter for n=%d (exhaustive)\n"
                    depth n;
                  0
              | Min_depth.Inconclusive ->
                  Printf.printf "inconclusive within %d nodes; raise --budget\n"
                    budget.Driver.max_nodes;
                  exit_budget
              | Min_depth.Interrupted -> interrupted_exit "search")
          | None -> (
              let max_depth = Option.value max_depth ~default:6 in
              match
                Min_depth.minimal_depth ~n ~max_depth ~budget ~domains ~sink
                  ~cancel ?checkpoint ~resume ()
              with
              | Min_depth.Minimal (depth, _) ->
                  Printf.printf
                    "minimal shuffle-based sorter depth for n=%d: %d (bitonic: %d)\n" n
                    depth (Bitonic.depth_formula ~n);
                  0
              | Min_depth.No_sorter ->
                  Printf.printf "no sorter within %d stages\n" max_depth;
                  0
              | Min_depth.Unknown k ->
                  Printf.printf
                    "inconclusive: stages <= %d refuted within %d nodes; raise --budget\n"
                    k budget.Driver.max_nodes;
                  exit_budget
              | Min_depth.Stopped k ->
                  Printf.printf "stages <= %d refuted before interruption\n" k;
                  interrupted_exit "search")
      end
      else if n < 2 || n > 10 then
        usage_error "search: n must be in [2,10] (state space is 2^n)"
      else begin
        with_obs ~trace ~metrics @@ fun sink ->
        with_signals @@ fun cancel ->
        let max_depth =
          match (max_depth, depth) with
          | Some d, _ -> d
          | None, Some d -> d
          | None, None -> n
        in
        let report = function
          | Driver.Sorted { depth; moves; stats } ->
              Printf.printf "optimal depth for n=%d: %d (witness verified: %b)\n"
                n depth
                (Driver.verify_witness ~n moves);
              List.iteri
                (fun i layer ->
                  Printf.printf "  layer %d: %s\n" (i + 1) (pp_layer layer))
                moves;
              print_stats stats;
              0
          | Driver.Unsorted stats ->
              Printf.printf
                "no sorting network of depth <= %d for n=%d (exhaustive)\n"
                max_depth n;
              print_stats stats;
              0
          | Driver.Inconclusive stats ->
              Printf.printf
                "inconclusive within %d nodes (depths <= %d refuted); raise --budget\n"
                budget.Driver.max_nodes stats.Driver.completed_levels;
              print_stats stats;
              exit_budget
          | Driver.Interrupted stats ->
              Printf.printf "depths <= %d refuted before interruption\n"
                stats.Driver.completed_levels;
              print_stats stats;
              interrupted_exit "search"
        in
        match emit with
        | None ->
            report
              (Driver.optimal_depth ~domains ~budget ~sink ~cancel ?checkpoint
                 ~resume ~max_depth ~n ())
        | Some path ->
            (* The exhaustion certificate replays every child of every
               frontier state, so the log must come from the
               unrestricted reference search: every layer, equality-
               only dedup. The restricted search's symmetry-reduced
               second layers leave children no pool entry covers. *)
            let frontiers = ref [] in
            let frontier_log ~level:_ states =
              frontiers := states :: !frontiers
            in
            let outcome =
              Driver.optimal_depth ~domains ~budget ~sink ~cancel ~frontier_log
                ?checkpoint ~restrict:false ~max_depth ~n ()
            in
            let frontiers = List.rev !frontiers in
            let code = report outcome in
            let emitted =
              match outcome with
              | Driver.Unsorted _ ->
                  Result.map
                    (fun c -> [ c ])
                    (Cert_emit.exhaustion ~n ~max_depth ~frontiers)
              | Driver.Sorted { depth; moves; _ } ->
                  let sorted =
                    Analysis_cert.sortedness (Driver.witness_network ~n moves)
                  in
                  let exhausted =
                    if depth <= 1 then Ok []
                    else
                      Result.map
                        (fun c -> [ c ])
                        (Cert_emit.exhaustion ~n ~max_depth:(depth - 1)
                           ~frontiers)
                  in
                  (match (exhausted, sorted) with
                  | Ok ex, Ok sc -> Ok (ex @ [ sc ])
                  | Error e, _ | _, Error e -> Error e)
              | Driver.Inconclusive _ | Driver.Interrupted _ ->
                  Error "search ended without a verdict"
            in
            (match emitted with
            | Ok certs ->
                write_certs path certs;
                code
            | Error e ->
                Printf.eprintf "search: cannot emit certificate: %s\n" e;
                if code = 0 then exit_failure else code)
      end
    end
  in
  let doc =
    "Exact optimal-depth search for small sorting networks: layered BFS with      subsumption pruning; --shuffle restricts to shuffle-based sorters      (Knuth 5.3.4.47 / the paper's Section 6). With --checkpoint the      search snapshots its progress at level boundaries and --resume      continues an interrupted run from the last snapshot."
  in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(
      const run $ search_n_arg $ depth_arg $ optimal_arg $ shuffle_arg
      $ domains_arg $ max_depth_arg $ budget_arg $ emit_cert_arg
      $ checkpoint_arg $ interval_arg $ resume_arg $ trace_arg $ metrics_arg)

(* evolve *)

let evolve_cmd =
  let n_arg =
    let doc = "Number of channels." in
    Arg.(value & opt int 6 & info [ "n"; "size" ] ~docv:"N" ~doc)
  in
  let depth_arg =
    let doc =
      "Fixed genome depth shape (default: the known optimal sorting depth \
       for N when proved, else N)."
    in
    Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"D" ~doc)
  in
  let pop_arg =
    let doc = "Population size." in
    Arg.(value & opt int 256 & info [ "pop" ] ~docv:"P" ~doc)
  in
  let gens_arg =
    let doc = "Generation cap." in
    Arg.(value & opt int 200 & info [ "gens" ] ~docv:"G" ~doc)
  in
  let domains_arg =
    let doc = "Parallel domains for the fitness fan-out (0 = auto)." in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let islands_arg =
    let doc =
      "Evolve $(docv) independent populations of --pop genomes each \
       (island model), one domain per island, synchronising every --epoch \
       generations (0 = a single population)."
    in
    Arg.(value & opt int 0 & info [ "islands" ] ~docv:"K" ~doc)
  in
  let epoch_arg =
    let doc =
      "Generations per island between synchronisation barriers (migration \
       and champion comparison happen at the barrier)."
    in
    Arg.(value & opt int 10 & info [ "epoch" ] ~docv:"G" ~doc)
  in
  let migrants_arg =
    let doc =
      "At every barrier, each island's first $(docv) genomes (its elite \
       while $(docv) <= 2) overwrite the last $(docv) of its ring \
       neighbour (must be at most half the population)."
    in
    Arg.(value & opt int 2 & info [ "migrants" ] ~docv:"M" ~doc)
  in
  let run n depth pop gens seed domains islands epoch migrants ckpt interval
      resume trace metrics =
    if resume && ckpt = None then
      usage_error "evolve: --resume needs --checkpoint FILE"
    else if n < 2 || n > 16 then usage_error "evolve: n must be in [2,16]"
    else if islands < 0 then usage_error "evolve: --islands must be >= 0"
    else if islands > 0 && (ckpt <> None || resume) then
      usage_error "evolve: --islands does not support --checkpoint/--resume"
    else if islands > 0 && epoch < 1 then
      usage_error "evolve: --epoch must be >= 1"
    else if islands > 0 && (migrants < 0 || migrants > pop / 2) then
      usage_error "evolve: --migrants must be in [0, pop/2]"
    else begin
      let depth =
        match depth with
        | Some d -> d
        | None -> (
            match Evolve.known_optimal_depth n with Some d -> d | None -> n)
      in
      let domains =
        if domains <= 0 then Par.recommended_domains () else domains
      in
      record_domains domains;
      with_obs ~trace ~metrics @@ fun sink ->
      with_signals @@ fun cancel ->
      let cfg =
        { (Evolve.default_config ~wires:n ~depth) with
          Evolve.pop;
          gens;
          seed;
          domains;
        }
      in
      let max_fit = Fitness.max_fitness ~wires:n in
      let print_layers g =
        Array.iteri
          (fun l pairs ->
            Printf.printf "  layer %d: %s\n" (l + 1)
              (String.concat ""
                 (List.map
                    (fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
                    (Array.to_list pairs))))
          g.Genome.levels
      in
      let print_witness best =
        print_layers best;
        (match Evolve.known_optimal_depth n with
        | Some opt when Network.depth (Genome.to_network best) = opt ->
            Printf.printf "depth %d matches the known optimum for n=%d\n" opt n
        | Some opt ->
            Printf.printf "depth %d vs known optimum %d for n=%d\n"
              (Network.depth (Genome.to_network best))
              opt n
        | None -> ());
        Printf.printf "witness verified (0-1 principle): %b\n"
          (Zero_one.is_sorting_network (Genome.to_network best))
      in
      if islands > 0 then begin
        let r = Islands.run ~sink ~cancel ~islands ~epoch ~migrants cfg in
        Printf.printf
          "evolving n=%d depth=%d: pop=%d gens<=%d seed=%d islands=%d \
           epoch=%d migrants=%d\n"
          n depth pop gens seed islands epoch migrants;
        let outcome =
          match r.Islands.found with
          | Some (g, island) ->
              Printf.printf
                "sorter found at generation %d on island %d (fitness %d/%d, \
                 %d comparators)\n"
                g island r.Islands.best_fitness max_fit
                (Genome.size r.Islands.best);
              print_witness r.Islands.best;
              0
          | None ->
              Printf.printf
                "no sorter within %d generations on %d islands; best fitness \
                 %d/%d (%d comparators)\n"
                r.Islands.generations islands r.Islands.best_fitness max_fit
                (Genome.size r.Islands.best);
              exit_budget
        in
        Array.iteri
          (fun i pop ->
            Printf.printf "island %d digest: %s\n" i
              (Evolve.population_digest pop))
          r.Islands.populations;
        if r.Islands.interrupted then interrupted_exit "evolve" else outcome
      end
      else begin
        let checkpoint = Option.map (fun path -> (path, interval)) ckpt in
        let r = Evolve.run ~sink ~cancel ?checkpoint ~resume cfg in
        Printf.printf "evolving n=%d depth=%d: pop=%d gens<=%d seed=%d\n" n
          depth pop gens seed;
        let outcome =
          match r.Evolve.found_at with
          | Some g ->
              Printf.printf
                "sorter found at generation %d (fitness %d/%d, %d comparators)\n"
                g r.Evolve.best_fitness max_fit (Genome.size r.Evolve.best);
              print_witness r.Evolve.best;
              0
          | None ->
              Printf.printf
                "no sorter within %d generations; best fitness %d/%d (%d \
                 comparators)\n"
                r.Evolve.generations r.Evolve.best_fitness max_fit
                (Genome.size r.Evolve.best);
              exit_budget
        in
        Printf.printf "population digest: %s\n"
          (Evolve.population_digest r.Evolve.population);
        if r.Evolve.interrupted then interrupted_exit "evolve" else outcome
      end
    end
  in
  let doc =
    "Evolve sorting networks of a fixed depth shape: tournament selection \
     with elitism, level crossover, and analyzer-guided repair mutation, \
     with fitness (sorted 0-1 inputs) evaluated population-at-a-time on \
     the bit-sliced engine. Deterministic under --seed; with --checkpoint \
     the population is snapshotted at generation boundaries and --resume \
     finishes with the byte-identical final population of an uninterrupted \
     run."
  in
  Cmd.v (Cmd.info "evolve" ~doc)
    Term.(
      const run $ n_arg $ depth_arg $ pop_arg $ gens_arg $ seed_arg
      $ domains_arg $ islands_arg $ epoch_arg $ migrants_arg $ checkpoint_arg
      $ interval_arg $ resume_arg $ trace_arg $ metrics_arg)

(* fuzz *)

let fuzz_cmd =
  let seconds_arg =
    let doc = "Wall-clock fuzzing budget in seconds." in
    Arg.(value & opt float 10. & info [ "seconds" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Stop after checking $(docv) networks (before --seconds)." in
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"K" ~doc)
  in
  let run seconds count seed trace metrics =
    with_obs ~trace ~metrics @@ fun sink ->
    with_signals @@ fun cancel ->
    let r = Fuzz.run ~sink ~cancel ~seconds ?count ~seed () in
    Printf.eprintf "fuzz: %.1f s, %.0f nets/s\n%!" r.Fuzz.elapsed
      (if r.Fuzz.elapsed > 0. then
         float_of_int r.Fuzz.checked /. r.Fuzz.elapsed
       else 0.);
    Printf.printf "fuzz: checked %d networks, %d disagreements\n"
      r.Fuzz.checked
      (List.length r.Fuzz.disagreements);
    List.iter
      (fun (d : Fuzz.disagreement) ->
        Printf.printf "DISAGREEMENT [%s] at seed=%d index=%d: %s\n"
          d.Fuzz.kind seed d.Fuzz.index d.Fuzz.detail;
        Printf.printf "minimized reproducer (%d comparators):\n%s"
          (Genome.size d.Fuzz.genome)
          (Genome.to_string d.Fuzz.genome))
      r.Fuzz.disagreements;
    if Cancel.cancelled cancel then interrupted_exit "fuzz"
    else if r.Fuzz.disagreements <> [] then exit_failure
    else 0
  in
  let doc =
    "Differentially fuzz the verification stack on seeded random networks: \
     for every sampled genome the compiled bit-sliced engine, the \
     gate-by-gate interpreter, the exact static analyzer (sortedness and \
     dead-comparator proofs), the naive adversary's fooling-pair \
     certificates, the independent checker on the analyzer's emitted \
     certificates, and the proved optimal-depth table must all agree. Any \
     disagreement is minimized into a reproducer and exits 1."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seconds_arg $ count_arg $ seed_arg $ trace_arg $ metrics_arg)

(* route *)

let route_cmd =
  let run n seed =
    if not (Bitops.is_power_of_two n) then
      usage_error "route: n must be a power of two"
    else begin
      let rng = Xoshiro.of_seed seed in
      let p = Perm.random rng n in
      let nw = Benes.route p in
      Format.printf "permutation: %a@." Perm.pp p;
      Printf.printf "Benes network: %d exchange levels, %d crossed switches
"
        (List.length (Network.levels nw))
        (Benes.switch_count nw);
      let out = Network.eval nw (Array.init n (fun i -> i)) in
      let ok = ref true in
      for i = 0 to n - 1 do
        if out.(Perm.apply p i) <> i then ok := false
      done;
      Printf.printf "routing verified: %b
" !ok;
      if !ok then 0 else 1
    end
  in
  let doc = "Route a random permutation through a Benes network." in
  Cmd.v (Cmd.info "route" ~doc) Term.(const run $ n_arg $ seed_arg)

(* serve / client *)

let socket_arg =
  let doc = "Serve on (or dial) a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Serve on (or dial) TCP port $(docv) on 127.0.0.1." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let serve_addr socket port =
  match (socket, port) with
  | Some path, None -> Ok (Server.Unix_path path)
  | None, Some p -> Ok (Server.Tcp p)
  | None, None -> Error "give --socket PATH or --port PORT"
  | Some _, Some _ -> Error "give --socket or --port, not both"

let serve_cmd =
  let domains_arg =
    let doc = "Parallel domains per verify sweep (0 = auto)." in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let window_arg =
    let doc =
      "Batch gather window in milliseconds: the longest the scheduler \
       lingers after a request arrives so concurrent clients land in \
       the same bit-sliced pass. A round closes sooner, as soon as \
       every request in flight has reached the scheduler (0 = no \
       gathering)."
    in
    Arg.(value & opt float 2.0 & info [ "window-ms" ] ~docv:"MS" ~doc)
  in
  let cache_arg =
    let doc = "Response-cache capacity in entries (0 disables)." in
    Arg.(value & opt int 512 & info [ "cache-capacity" ] ~docv:"K" ~doc)
  in
  let max_request_arg =
    let doc = "Largest accepted request frame, in bytes." in
    Arg.(value & opt int (1 lsl 20) & info [ "max-request" ] ~docv:"BYTES" ~doc)
  in
  let max_wires_arg =
    let doc =
      Printf.sprintf
        "Widest accepted network, at most %d (verification sweeps \
         2^wires inputs)."
        Zero_one.default_max_wires
    in
    Arg.(value & opt int 16 & info [ "max-wires" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Close a session that sits idle between requests for more than \
       $(docv) seconds, after one typed idle-timeout error (0 disables \
       the reaper)."
    in
    Arg.(value & opt float 300. & info [ "idle-timeout" ] ~docv:"SECS" ~doc)
  in
  let deadline_arg =
    let doc =
      "Answer deadline-exceeded and close when one request takes more \
       than $(docv) seconds from its first frame byte to its response \
       (0 disables)."
    in
    Arg.(
      value & opt float 30. & info [ "request-deadline" ] ~docv:"SECS" ~doc)
  in
  let run socket port domains window_ms cache_capacity max_request max_wires
      idle_timeout request_deadline trace metrics =
    match serve_addr socket port with
    | Error e -> usage_error ("serve: " ^ e)
    | Ok addr ->
        if window_ms < 0. || cache_capacity < 0 || max_request < 1
           || max_wires < 2 || max_wires > Zero_one.default_max_wires
           || idle_timeout < 0. || request_deadline < 0.
        then
          usage_error "serve: nonsensical limits"
        else begin
          let domains =
            if domains <= 0 then Par.recommended_domains () else domains
          in
          record_domains domains;
          let config =
            { (Server.default_config addr) with
              Server.domains;
              window = window_ms /. 1000.;
              cache_capacity;
              max_request;
              max_wires;
              idle_timeout;
              request_deadline;
            }
          in
          with_obs ~trace ~metrics @@ fun sink ->
          with_signals @@ fun cancel ->
          let ready () =
            Printf.printf "serve: listening on %s\n%!" (Server.addr_text addr)
          in
          match Server.run ~sink ~ready ~cancel config with
          | Error e ->
              prerr_endline ("serve: " ^ e);
              exit_failure
          | Ok () ->
              if Cancel.cancelled cancel then begin
                if metrics then print_metrics ();
                interrupted_exit "serve"
              end
              else 0
        end
  in
  let doc =
    "Run the network-verification daemon: length-prefixed JSON requests \
     (verify / certify / lint / eval) over a Unix or loopback TCP \
     socket, with concurrent clients' requests coalesced into shared \
     64-lane bit-sliced engine passes and verdicts cached under \
     wire-permutation canonical keys. SIGINT/SIGTERM drain in-flight \
     requests and exit 130. The wire protocol is documented in \
     README.md."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ port_arg $ domains_arg $ window_arg $ cache_arg
      $ max_request_arg $ max_wires_arg $ idle_timeout_arg $ deadline_arg
      $ trace_arg $ metrics_arg)

let client_cmd =
  let verb_arg =
    let doc = "Request verb: verify, certify, lint, or eval." in
    Arg.(
      required
      & pos 0 (some (enum
           [ ("verify", "verify"); ("certify", "certify"); ("lint", "lint");
             ("eval", "eval") ])) None
      & info [] ~docv:"VERB" ~doc)
  in
  let file_arg =
    let doc = "Send the network from $(docv) (snlb text format) \
               instead of a registry sorter." in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"NET" ~doc)
  in
  let input_arg =
    let doc = "Input values for eval, comma-separated." in
    Arg.(value & opt (some string) None & info [ "input" ] ~docv:"V,V,..." ~doc)
  in
  let repeat_arg =
    let doc = "Send the request $(docv) times (distinct ids, one \
               connection)." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"K" ~doc)
  in
  let wait_arg =
    let doc = "Retry the dial for up to $(docv) seconds while the \
               daemon starts." in
    Arg.(value & opt float 5.0 & info [ "wait" ] ~docv:"SECS" ~doc)
  in
  let dial addr wait =
    let deadline = Unix.gettimeofday () +. wait in
    let rec go () =
      match Server.connect addr with
      | fd -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          if Unix.gettimeofday () >= deadline then
            Error (Unix.error_message e)
          else begin
            Unix.sleepf 0.05;
            go ()
          end
    in
    go ()
  in
  let run socket port verb algo n file input repeat wait =
    match serve_addr socket port with
    | Error e -> usage_error ("client: " ^ e)
    | Ok addr -> (
        let net_fields =
          match file with
          | Some path -> (
              match In_channel.with_open_bin path In_channel.input_all with
              | text -> Ok [ ("network", Json.Str text) ]
              | exception Sys_error e -> Error e)
          | None -> Ok [ ("algo", Json.Str algo); ("n", Json.Int n) ]
        in
        let input_fields =
          match input with
          | None -> Ok []
          | Some s -> (
              match
                List.map
                  (fun v -> Json.Int (int_of_string (String.trim v)))
                  (String.split_on_char ',' s)
              with
              | vs -> Ok [ ("input", Json.List vs) ]
              | exception Failure _ -> Error "client: bad --input")
        in
        match (net_fields, input_fields) with
        | Error e, _ | _, Error e -> usage_error ("client: " ^ e)
        | Ok net_fields, Ok input_fields -> (
            match dial addr wait with
            | Error e ->
                prerr_endline ("client: cannot connect: " ^ e);
                exit_failure
            | Ok fd ->
                let reader = Frame.reader fd in
                let failures = ref 0 in
                for k = 1 to repeat do
                  let req =
                    Json.Obj
                      (("id", Json.Int k) :: ("verb", Json.Str verb)
                      :: (net_fields @ input_fields))
                  in
                  Frame.write fd (Json.to_string req);
                  match Frame.read ~max:(1 lsl 24) reader with
                  | Ok payload ->
                      print_endline payload;
                      (match
                         Option.bind
                           (Option.bind (Json.of_string payload |> Result.to_option)
                              (Json.member "ok"))
                           Json.to_bool
                       with
                      | Some true -> ()
                      | _ -> incr failures)
                  | Error err ->
                      Printf.eprintf "client: %s\n" (Frame.error_text err);
                      incr failures
                done;
                Unix.close fd;
                if !failures > 0 then exit_failure else 0))
  in
  let doc =
    "Send requests to a running $(b,snlb serve) daemon and print the \
     JSON responses, one per line. Exits 1 if any response is an \
     error."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ port_arg $ verb_arg $ algo_arg $ n_arg
      $ file_arg $ input_arg $ repeat_arg $ wait_arg)

(* list *)

let list_cmd =
  let run () =
    Printf.printf "sorting networks:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-16s %s\n" e.Sorter_registry.name
          (if e.Sorter_registry.pow2_only then "(n = power of two)" else ""))
      Sorter_registry.all;
    Printf.printf "experiments:\n";
    List.iter
      (fun e -> Printf.printf "  %-4s %s\n" e.Registry.id e.Registry.title)
      Registry.all;
    0
  in
  let doc = "List available networks and experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let main =
  let doc =
    "Sorting networks based on the shuffle permutation: constructions, \
     verification, and the Plaxton-Suel lower-bound adversary."
  in
  Cmd.group (Cmd.info "snlb" ~version:"1.0.0" ~doc)
    [ list_cmd; sort_cmd; verify_cmd; certify_cmd; check_cmd; table_cmd;
      dot_cmd; draw_cmd; save_cmd; load_cmd; lint_cmd; search_cmd; route_cmd;
      serve_cmd; client_cmd; evolve_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' ~term_err:exit_usage main)
