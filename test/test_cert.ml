(* Tests for the certificate layer (lib/cert + its emitters): soundness
   of the bounds order-matrix facts the certificates cite, print/parse
   round-trips through the portable text format, pinned bytes of an
   exhaustion certificate, and rejection of corrupted certificates
   with typed CRT*** errors. The checker shares no code with the
   engine, searcher, or analyzer, so every accepted certificate here is
   an independent confirmation of the emitting component. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let zero_one_inputs n =
  Array.init (1 lsl n) (fun m -> Array.init n (fun w -> (m lsr w) land 1))

let random_network rng ~n ~levels =
  let level () =
    let wires = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Xoshiro.int rng ~bound:(i + 1) in
      let t = wires.(i) in
      wires.(i) <- wires.(j);
      wires.(j) <- t
    done;
    let pairs = Xoshiro.int rng ~bound:((n / 2) + 1) in
    List.init pairs (fun k ->
        let a = wires.(2 * k) and b = wires.((2 * k) + 1) in
        Gate.Compare { lo = min a b; hi = max a b })
  in
  Network.of_gate_levels ~wires:n (List.init levels (fun _ -> level ()))

let code_of = function Ok () -> "ok" | Error e -> e.Cert.code

(* --- bounds order-matrix soundness: every leq fact the bounds walk
   derives after every level really holds on all 2^n inputs of the
   prefix network --- *)

let test_bounds_soundness () =
  let rng = Xoshiro.of_seed 513 in
  for _ = 1 to 60 do
    let n = 2 + Xoshiro.int rng ~bound:7 (* 2..8 *) in
    let levels = 1 + Xoshiro.int rng ~bound:6 in
    let nw = random_network rng ~n ~levels in
    let b = Bounds.create n in
    List.iteri
      (fun li (level : Network.level) ->
        (match level.Network.pre with
        | None -> ()
        | Some p -> Bounds.transfer_perm b p);
        List.iter (fun g -> Bounds.transfer_gate b g) level.Network.gates;
        (* evaluate the prefix ending at this level on every input *)
        let prefix =
          Network.create ~wires:n
            (List.filteri (fun i _ -> i <= li) (Network.levels nw))
        in
        Array.iter
          (fun input ->
            let out = Network.eval prefix input in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if i <> j && Bounds.leq b i j && out.(i) > out.(j) then
                  Alcotest.failf
                    "bounds claims %d <= %d after level %d, violated" i j
                    (li + 1)
              done
            done)
          (zero_one_inputs n))
      (Network.levels nw)
  done

(* --- registry round-trip: every registry sorter's n=8 sortedness
   certificate prints, re-parses to the same text, and checks --- *)

let test_registry_roundtrip () =
  List.iter
    (fun (e : Sorter_registry.entry) ->
      let nw = e.build 8 in
      match Analysis_cert.sortedness nw with
      | Error err -> Alcotest.failf "%s: no certificate: %s" e.name err
      | Ok c ->
          check_string (e.name ^ " kind") "sortedness" (Cert.kind_name c);
          let text = Cert.to_string c in
          (match Cert.parse text with
          | Error err ->
              Alcotest.failf "%s: reparse rejected: %s %s: %s" e.name
                err.Cert.code err.Cert.where err.Cert.reason
          | Ok [ c' ] ->
              check_string (e.name ^ " round-trip") text (Cert.to_string c');
              check_string (e.name ^ " checks") "ok" (code_of (Cert.check c'))
          | Ok certs ->
              Alcotest.failf "%s: %d certificates from one text" e.name
                (List.length certs)))
    Sorter_registry.all

(* --- the search's frontier log emits an exhaustion certificate
   (n=6, depth 4) whose length and MD5 are pinned, so a change to the
   logged frontiers or to the emitter shows here --- *)

let exhaustion_text ~n ~max_depth =
  let frontiers = ref [] in
  let frontier_log ~level:_ states = frontiers := states :: !frontiers in
  match Driver.optimal_depth ~frontier_log ~restrict:false ~max_depth ~n () with
  | Driver.Unsorted _ -> (
      match
        Cert_emit.exhaustion ~n ~max_depth ~frontiers:(List.rev !frontiers)
      with
      | Ok c -> Cert.to_string c
      | Error e -> Alcotest.failf "no exhaustion certificate: %s" e)
  | _ -> Alcotest.fail "expected Unsorted at n=6 depth 4"

let test_exhaustion_bytes_pinned () =
  let text = exhaustion_text ~n:6 ~max_depth:4 in
  check_int "length" 139595 (String.length text);
  check_string "MD5" "3debfb569ba7e4634c0d32274bd87e1b"
    (Digest.to_hex (Digest.string text));
  match Cert.parse text with
  | Error e -> Alcotest.failf "reparse rejected: %s" e.Cert.reason
  | Ok certs -> check_string "checks" "ok" (code_of (Cert.check_all certs))

(* the emitter covers only the search's own widths; the checker's
   wider range is not its to use *)
let test_exhaustion_width_range () =
  List.iter
    (fun n ->
      match Cert_emit.exhaustion ~n ~max_depth:1 ~frontiers:[] with
      | Error e ->
          check_string (Printf.sprintf "n=%d refused" n)
            "cert emission supports n in [2, 10]" e
      | Ok _ -> Alcotest.failf "n=%d emitted" n)
    [ 1; 11; 12 ];
  match Cert_emit.exhaustion ~n:10 ~max_depth:1 ~frontiers:[] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "n=10 depth 1 refused: %s" e

(* --- refutation: a truncated sorter gets a witness-replay
   certificate; a corrupted (sorted) witness is rejected CRT211 --- *)

let broken4 =
  Network.of_gate_levels ~wires:4
    [ [ Gate.Compare { lo = 0; hi = 1 }; Gate.Compare { lo = 2; hi = 3 } ];
      [ Gate.Compare { lo = 0; hi = 2 }; Gate.Compare { lo = 1; hi = 3 } ];
    ]

let test_refutation () =
  match Analysis_cert.sortedness broken4 with
  | Error e -> Alcotest.failf "no certificate: %s" e
  | Ok (Cert.Refutation { network; witness } as c) ->
      check_string "checks" "ok" (code_of (Cert.check c));
      check_bool "witness really unsorted" false
        (Cert.is_sorted_mask ~n:4 (Cert.eval_mask network witness));
      (* input 0 sorts trivially: the claim becomes false *)
      let bad = Cert.Refutation { network; witness = 0 } in
      check_string "corrupt witness rejected" "CRT211" (code_of (Cert.check bad))
  | Ok c -> Alcotest.failf "expected refutation, got %s" (Cert.kind_name c)

(* --- dead gates: a re-compare after sorting is certified dead; the
   same claim against a live gate is rejected CRT221 --- *)

let test_dead_gates () =
  let dup =
    Network.of_gate_levels ~wires:4
      [ [ Gate.Compare { lo = 0; hi = 1 }; Gate.Compare { lo = 2; hi = 3 } ];
        [ Gate.Compare { lo = 0; hi = 2 }; Gate.Compare { lo = 1; hi = 3 } ];
        [ Gate.Compare { lo = 1; hi = 2 } ];
        [ Gate.Compare { lo = 1; hi = 2 } ];
      ]
  in
  match Analysis_cert.dead_gates dup with
  | Error e -> Alcotest.failf "no certificate: %s" e
  | Ok None -> Alcotest.fail "expected a dead-gate certificate"
  | Ok (Some (Cert.Dead_gates { network; sets; claims } as c)) ->
      check_string "checks" "ok" (code_of (Cert.check c));
      check_bool "has a dead claim" true
        (List.exists
           (function Cert.Dead { level = 4; _ } -> true | _ -> false)
           claims);
      let bad =
        Cert.Dead_gates
          { network; sets; claims = [ Cert.Dead { level = 1; gate = 0 } ] }
      in
      check_string "live gate claim rejected" "CRT221"
        (code_of (Cert.check bad))
  | Ok (Some c) ->
      Alcotest.failf "expected dead-gates, got %s" (Cert.kind_name c)

(* --- lower bound: the naive adversary's fooling pair on an all-plus
   shuffle network packages into a register-model transcript the
   checker replays; breaking the value adjacency is rejected --- *)

let test_lower_bound () =
  let prog = Shuffle_net.all_plus_program ~n:4 ~stages:4 in
  let nw = Register_model.to_network prog in
  let res = Theorem41.run (Shuffle_net.to_iterated prog) in
  match Certificate.of_pattern res.Theorem41.final_pattern with
  | None -> Alcotest.fail "adversary found no fooling pair on all-plus n=4"
  | Some cert -> (
      check_string "fooling pair validates" "ok"
        (match Certificate.validate nw cert with
        | Ok () -> "ok"
        | Error e -> e);
      match Certificate.to_cert nw cert with
      | Error e -> Alcotest.failf "no portable certificate: %s" e
      | Ok (Cert.Lower_bound lb as c) -> (
          check_string "checks" "ok" (code_of (Cert.check c));
          let text = Cert.to_string c in
          (match Cert.parse text with
          | Ok [ c' ] -> check_string "round-trip" text (Cert.to_string c')
          | Ok _ | Error _ -> Alcotest.fail "reparse failed");
          let bad = Cert.Lower_bound { lb with value1 = lb.value0 } in
          match Cert.check bad with
          | Ok () -> Alcotest.fail "non-adjacent values accepted"
          | Error e ->
              check_bool "typed rejection" true
                (String.length e.Cert.code = 6
                && String.sub e.Cert.code 0 3 = "CRT"))
      | Ok c -> Alcotest.failf "expected lower-bound, got %s" (Cert.kind_name c))

(* --- lower bound: the M-set-sized trace decides as the n x n one.
   [reference_replay] is the checker's earlier replay, kept verbatim as
   the oracle: it records every value comparison in an n x n table,
   then runs the CRT232..CRT235 checks. --- *)

let reference_replay ~n ~stages ~input ~twin ~value0 ~value1 ~m_set =
  let err code where fmt =
    Printf.ksprintf (fun reason -> Error (code, where, reason)) fmt
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let compared = Bytes.make (n * n) '\000' in
  let run ~trace input =
    let v = ref (Array.copy input) in
    List.iter
      (fun (st : Cert.stage) ->
        let cur = !v in
        let nxt = Array.make n 0 in
        Array.iteri (fun j x -> nxt.(st.perm.(j)) <- x) cur;
        String.iteri
          (fun k op ->
            let a = 2 * k and b = (2 * k) + 1 in
            let x = nxt.(a) and y = nxt.(b) in
            let swap () =
              nxt.(a) <- y;
              nxt.(b) <- x
            in
            match op with
            | '+' ->
                if trace then begin
                  Bytes.set compared ((x * n) + y) '\001';
                  Bytes.set compared ((y * n) + x) '\001'
                end;
                if x > y then swap ()
            | '-' ->
                if trace then begin
                  Bytes.set compared ((x * n) + y) '\001';
                  Bytes.set compared ((y * n) + x) '\001'
                end;
                if x < y then swap ()
            | '1' -> swap ()
            | _ -> ())
          st.ops;
        v := nxt)
      stages;
    !v
  in
  let out0 = run ~trace:true input in
  let out1 = run ~trace:false twin in
  let was_compared x y = Bytes.get compared ((x * n) + y) <> '\000' in
  let* () =
    if was_compared value0 value1 then
      err "CRT232" "trace" "witness values %d and %d were compared" value0
        value1
    else Ok ()
  in
  let swap v =
    if v = value0 then value1
    else if v = value1 then value0
    else v
  in
  let* () =
    if Array.for_all2 (fun a b -> b = swap a) out0 out1 then Ok ()
    else err "CRT233" "outputs" "outputs differ beyond the witness swap"
  in
  let sorted a =
    let ok = ref true in
    for i = 0 to Array.length a - 2 do
      if a.(i) > a.(i + 1) then ok := false
    done;
    !ok
  in
  let* () =
    if sorted out0 && sorted out1 then
      err "CRT234" "outputs" "both fooling-pair outputs are sorted"
    else Ok ()
  in
  let values = List.map (fun w -> input.(w)) m_set in
  let rec audit = function
    | [] -> Ok ()
    | v :: rest -> (
        match List.find_opt (fun u -> was_compared v u) rest with
        | Some u -> err "CRT235" "mset" "M-set values %d and %d were compared" v u
        | None -> audit rest)
  in
  audit values

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A random register-model transcript over all four ops, a random input,
   a random adjacent witness pair and a random M-set around its wires;
   every structural check passes, so the verdict is the replay's. *)
let prop_lower_bound_mset_trace =
  QCheck.Test.make ~name:"lower-bound M-set trace = n x n reference" ~count:400
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 6))
    (fun (seed, d) ->
      let rng = Xoshiro.of_seed seed in
      let n = 1 lsl d in
      let stages =
        List.init (1 + Xoshiro.int rng ~bound:4) (fun _ ->
            { Cert.perm = shuffled rng (Array.init n Fun.id);
              ops = String.init (n / 2) (fun _ -> "+-01".[Xoshiro.int rng ~bound:4]) })
      in
      let input = shuffled rng (Array.init n Fun.id) in
      let value0 = Xoshiro.int rng ~bound:(n - 1) in
      let value1 = value0 + 1 in
      let wire_of v =
        let w = ref 0 in
        Array.iteri (fun i x -> if x = v then w := i) input;
        !w
      in
      let wire0 = wire_of value0 and wire1 = wire_of value1 in
      let twin = Array.copy input in
      twin.(wire0) <- value1;
      twin.(wire1) <- value0;
      let others =
        shuffled rng
          (Array.of_list
             (List.filter (fun w -> w <> wire0 && w <> wire1) (List.init n Fun.id)))
      in
      let extra = Xoshiro.int rng ~bound:(min (n - 2) 6 + 1) in
      let m_set =
        Array.to_list
          (shuffled rng
             (Array.append [| wire0; wire1 |] (Array.sub others 0 extra)))
      in
      let got =
        match
          Cert.check
            (Cert.Lower_bound
               { n; stages; input; twin; wire0; wire1; value0; value1; m_set })
        with
        | Ok () -> Ok ()
        | Error e -> Error (e.Cert.code, e.Cert.where, e.Cert.reason)
      in
      got = reference_replay ~n ~stages ~input ~twin ~value0 ~value1 ~m_set)

(* --- certificate I/O against its earlier form. [Reference] is the
   printer and token-list parser [Cert] used before it read and wrote
   text in place, kept verbatim as the oracle for bytes, parsed values
   and errors. --- *)

module Reference = struct
  open Cert

  let add_ints b l =
    List.iter (fun v -> Buffer.add_string b (" " ^ string_of_int v)) l

  let add_network b nw =
    Buffer.add_string b "network\n";
    Buffer.add_string b (Network_io.to_string nw);
    Buffer.add_string b "end-network\n"

  let add_sets b sets =
    Array.iteri
      (fun l ms ->
        Buffer.add_string b (Printf.sprintf "set %d" (l + 1));
        add_ints b ms;
        Buffer.add_char b '\n')
      sets

  let to_string c =
    let b = Buffer.create 1024 in
    Buffer.add_string b "snlb-cert 1\n";
    Buffer.add_string b ("kind " ^ kind_name c ^ "\n");
    (match c with
    | Sortedness { network; domain } -> (
        add_network b network;
        match domain with
        | Reach_sets sets ->
            Buffer.add_string b "domain reach\n";
            add_sets b sets
        | Bounds_leq lvls ->
            Buffer.add_string b "domain bounds\n";
            Array.iteri
              (fun l pairs ->
                Buffer.add_string b (Printf.sprintf "leq %d" (l + 1));
                List.iter
                  (fun (i, j) ->
                    Buffer.add_string b (Printf.sprintf " %d %d" i j))
                  pairs;
                Buffer.add_char b '\n')
              lvls)
    | Refutation { network; witness } ->
        add_network b network;
        Buffer.add_string b (Printf.sprintf "witness %d\n" witness)
    | Dead_gates { network; sets; claims } ->
        add_network b network;
        add_sets b sets;
        List.iter
          (fun (Dead { level; gate }) ->
            Buffer.add_string b (Printf.sprintf "dead %d %d\n" level gate))
          claims
    | Lower_bound { n; stages; input; twin; wire0; wire1; value0; value1; m_set }
      ->
        Buffer.add_string b (Printf.sprintf "n %d\n" n);
        List.iter
          (fun st ->
            Buffer.add_string b "stage";
            add_ints b (Array.to_list st.perm);
            Buffer.add_string b (" " ^ st.ops ^ "\n"))
          stages;
        Buffer.add_string b "input";
        add_ints b (Array.to_list input);
        Buffer.add_char b '\n';
        Buffer.add_string b "twin";
        add_ints b (Array.to_list twin);
        Buffer.add_char b '\n';
        Buffer.add_string b (Printf.sprintf "wires %d %d\n" wire0 wire1);
        Buffer.add_string b
          (Printf.sprintf "values %d %d\n" value0 value1);
        Buffer.add_string b "mset";
        add_ints b m_set;
        Buffer.add_char b '\n'
    | Exhaustion { n; max_depth; frontiers; covers } ->
        Buffer.add_string b (Printf.sprintf "n %d\n" n);
        Buffer.add_string b (Printf.sprintf "max-depth %d\n" max_depth);
        Array.iteri
          (fun l states ->
            Buffer.add_string b (Printf.sprintf "level %d\n" (l + 1));
            List.iter
              (fun ms ->
                Buffer.add_string b "state";
                add_ints b ms;
                Buffer.add_char b '\n')
              states;
            List.iter
              (fun cv ->
                Buffer.add_string b (Printf.sprintf "cover %d" cv.cite);
                add_ints b (Array.to_list cv.pi);
                Buffer.add_char b '\n')
              covers.(l))
          frontiers);
    Buffer.add_string b "end-cert\n";
    Buffer.contents b

  exception Fail of error

  let fail code lineno fmt =
    Printf.ksprintf
      (fun reason ->
        raise (Fail { code; where = Printf.sprintf "line %d" lineno; reason }))
      fmt

  let parse text =
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let nlines = Array.length lines in
    let int_of lineno s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail "CRT001" lineno "expected integer, got %S" s
    in
    let tokens_of line =
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    in
    let i = ref 0 in
    let skippable line = line = "" || line.[0] = '#' in
    let skip_blanks () =
      while !i < nlines && skippable (String.trim lines.(!i)) do
        incr i
      done
    in
    (* collect one certificate's directives: (lineno, tokens) in order,
       with at most one verbatim network block *)
    let read_body () =
      let dirs = ref [] in
      let net : (int * string) option ref = ref None in
      let closed = ref false in
      while not !closed do
        if !i >= nlines then
          fail "CRT001" nlines "unterminated certificate (missing end-cert)";
        let lineno = !i + 1 in
        let line = String.trim lines.(!i) in
        incr i;
        if skippable line then ()
        else if line = "end-cert" then closed := true
        else if line = "network" then begin
          if !net <> None then fail "CRT101" lineno "duplicate network block";
          let b = Buffer.create 256 in
          let net_done = ref false in
          while not !net_done do
            if !i >= nlines then
              fail "CRT001" lineno "unterminated network block";
            let raw = lines.(!i) in
            incr i;
            if String.trim raw = "end-network" then net_done := true
            else begin
              Buffer.add_string b raw;
              Buffer.add_char b '\n'
            end
          done;
          net := Some (lineno, Buffer.contents b)
        end
        else dirs := (lineno, tokens_of line) :: !dirs
      done;
      (List.rev !dirs, !net)
    in
    let parse_network kind_line net =
      match net with
      | None -> fail "CRT101" kind_line "missing network block"
      | Some (lineno, text) -> (
          match Network_io.of_string text with
          | Ok nw -> nw
          | Error e -> fail "CRT002" lineno "embedded network invalid: %s" e)
    in
    (* sequential "set L ..." / "leq L ..." / "level L" numbering *)
    let expect_seq lineno what expected l =
      if l <> expected then
        fail "CRT101" lineno "%s %d out of order (expected %s %d)" what l what
          expected
    in
    let assemble kind_line kind (dirs, net) =
      let unknown lineno tok =
        fail "CRT001" lineno "unrecognised directive %S in a %s certificate" tok
          kind
      in
      match kind with
      | "sortedness" ->
          let network = parse_network kind_line net in
          let dom = ref None in
          let sets = ref [] and leqs = ref [] in
          List.iter
            (fun (lineno, toks) ->
              match toks with
              | [ "domain"; ("reach" | "bounds") ] when !dom <> None ->
                  fail "CRT101" lineno "duplicate domain directive"
              | [ "domain"; ("reach" | "bounds" as d) ] -> dom := Some d
              | [ "domain"; d ] -> fail "CRT001" lineno "unknown domain %S" d
              | "set" :: l :: ms ->
                  expect_seq lineno "set" (List.length !sets + 1) (int_of lineno l);
                  sets := List.map (int_of lineno) ms :: !sets
              | "leq" :: l :: ps ->
                  expect_seq lineno "leq" (List.length !leqs + 1) (int_of lineno l);
                  let rec pairs = function
                    | [] -> []
                    | [ _ ] ->
                        fail "CRT001" lineno "leq needs an even number of wires"
                    | a :: b :: rest ->
                        (int_of lineno a, int_of lineno b) :: pairs rest
                  in
                  leqs := pairs ps :: !leqs
              | tok :: _ -> unknown lineno tok
              | [] -> ())
            dirs;
          let domain =
            match !dom with
            | Some "reach" ->
                if !leqs <> [] then
                  fail "CRT101" kind_line "leq lines in a reach-domain certificate";
                Reach_sets (Array.of_list (List.rev !sets))
            | Some "bounds" ->
                if !sets <> [] then
                  fail "CRT101" kind_line "set lines in a bounds-domain certificate";
                Bounds_leq (Array.of_list (List.rev !leqs))
            | _ -> fail "CRT101" kind_line "missing domain directive"
          in
          Sortedness { network; domain }
      | "refutation" ->
          let network = parse_network kind_line net in
          let witness = ref None in
          List.iter
            (fun (lineno, toks) ->
              match toks with
              | [ "witness"; _ ] when !witness <> None ->
                  fail "CRT101" lineno "duplicate witness directive"
              | [ "witness"; m ] -> witness := Some (int_of lineno m)
              | tok :: _ -> unknown lineno tok
              | [] -> ())
            dirs;
          (match !witness with
          | Some witness -> Refutation { network; witness }
          | None -> fail "CRT101" kind_line "missing witness directive")
      | "dead" ->
          let network = parse_network kind_line net in
          let sets = ref [] and claims = ref [] in
          List.iter
            (fun (lineno, toks) ->
              match toks with
              | "set" :: l :: ms ->
                  expect_seq lineno "set" (List.length !sets + 1) (int_of lineno l);
                  sets := List.map (int_of lineno) ms :: !sets
              | [ "dead"; l; g ] ->
                  let level = int_of lineno l and gate = int_of lineno g in
                  claims := Dead { level; gate } :: !claims
              | tok :: _ -> unknown lineno tok
              | [] -> ())
            dirs;
          if !claims = [] then
            fail "CRT101" kind_line "a dead certificate needs at least one claim";
          Dead_gates
            { network;
              sets = Array.of_list (List.rev !sets);
              claims = List.rev !claims }
      | "lower-bound" ->
          if net <> None then
            fail "CRT101" kind_line
              "lower-bound certificates carry stages, not a network block";
          let n = ref None in
          let need_n lineno =
            match !n with
            | Some n -> n
            | None -> fail "CRT101" lineno "n must be declared first"
          in
          let stages = ref [] in
          let input = ref None and twin = ref None in
          let wires = ref None and values = ref None and mset = ref None in
          let ints lineno what expected toks =
            let l = List.map (int_of lineno) toks in
            if List.length l <> expected then
              fail "CRT001" lineno "%s needs %d integers, got %d" what expected
                (List.length l);
            l
          in
          let once lineno what r v =
            if !r <> None then fail "CRT101" lineno "duplicate %s directive" what;
            r := Some v
          in
          List.iter
            (fun (lineno, toks) ->
              match toks with
              | [ "n"; v ] -> once lineno "n" n (int_of lineno v)
              | "stage" :: rest ->
                  let nn = need_n lineno in
                  if List.length rest <> nn + 1 then
                    fail "CRT001" lineno
                      "stage needs %d permutation images and an op string" nn;
                  let rec split k acc = function
                    | rest when k = 0 -> (List.rev acc, rest)
                    | x :: rest -> split (k - 1) (x :: acc) rest
                    | [] -> assert false
                  in
                  let imgs, ops = split nn [] rest in
                  let ops =
                    match ops with [ o ] -> o | _ -> assert false
                  in
                  String.iter
                    (fun ch ->
                      match ch with
                      | '+' | '-' | '0' | '1' -> ()
                      | _ -> fail "CRT001" lineno "bad op character %C" ch)
                    ops;
                  stages :=
                    { perm = Array.of_list (List.map (int_of lineno) imgs); ops }
                    :: !stages
              | "input" :: rest ->
                  once lineno "input" input
                    (Array.of_list (ints lineno "input" (need_n lineno) rest))
              | "twin" :: rest ->
                  once lineno "twin" twin
                    (Array.of_list (ints lineno "twin" (need_n lineno) rest))
              | "wires" :: rest ->
                  once lineno "wires" wires (ints lineno "wires" 2 rest)
              | "values" :: rest ->
                  once lineno "values" values (ints lineno "values" 2 rest)
              | "mset" :: rest -> once lineno "mset" mset (List.map (int_of lineno) rest)
              | tok :: _ -> unknown lineno tok
              | [] -> ())
            dirs;
          let req what = function
            | Some v -> v
            | None -> fail "CRT101" kind_line "missing %s directive" what
          in
          let w0, w1 =
            match req "wires" !wires with [ a; b ] -> (a, b) | _ -> assert false
          in
          let v0, v1 =
            match req "values" !values with [ a; b ] -> (a, b) | _ -> assert false
          in
          Lower_bound
            { n = req "n" !n;
              stages = List.rev !stages;
              input = req "input" !input;
              twin = req "twin" !twin;
              wire0 = w0;
              wire1 = w1;
              value0 = v0;
              value1 = v1;
              m_set = req "mset" !mset }
      | "exhaustion" ->
          if net <> None then
            fail "CRT101" kind_line
              "exhaustion certificates carry frontiers, not a network block";
          let n = ref None and depth = ref None in
          let need lineno what = function
            | Some v -> v
            | None -> fail "CRT101" lineno "%s must be declared first" what
          in
          (* blocks built in reverse; the current block is the head *)
          let fronts : int list list list ref = ref [] in
          let covs : cover list list ref = ref [] in
          List.iter
            (fun (lineno, toks) ->
              match toks with
              | [ "n"; v ] ->
                  if !n <> None then fail "CRT101" lineno "duplicate n directive";
                  n := Some (int_of lineno v)
              | [ "max-depth"; v ] ->
                  if !depth <> None then
                    fail "CRT101" lineno "duplicate max-depth directive";
                  depth := Some (int_of lineno v)
              | [ "level"; l ] ->
                  ignore (need lineno "max-depth" !depth);
                  expect_seq lineno "level" (List.length !fronts + 1)
                    (int_of lineno l);
                  fronts := [] :: !fronts;
                  covs := [] :: !covs
              | "state" :: ms -> (
                  match !fronts with
                  | [] -> fail "CRT101" lineno "state outside a level block"
                  | blk :: rest ->
                      fronts := (List.map (int_of lineno) ms :: blk) :: rest)
              | "cover" :: cite :: pi -> (
                  match !covs with
                  | [] -> fail "CRT101" lineno "cover outside a level block"
                  | blk :: rest ->
                      let nn = need lineno "n" !n in
                      if List.length pi <> nn then
                        fail "CRT001" lineno
                          "cover needs a %d-wire permutation, got %d entries" nn
                          (List.length pi);
                      let cv =
                        { cite = int_of lineno cite;
                          pi = Array.of_list (List.map (int_of lineno) pi) }
                      in
                      covs := (cv :: blk) :: rest)
              | tok :: _ -> unknown lineno tok
              | [] -> ())
            dirs;
          let req what = function
            | Some v -> v
            | None -> fail "CRT101" kind_line "missing %s directive" what
          in
          let max_depth = req "max-depth" !depth in
          let blocks = List.length !fronts in
          if max_depth >= 1 && blocks <> max_depth - 1 then
            fail "CRT101" kind_line "max-depth %d needs %d level blocks, got %d"
              max_depth (max_depth - 1) blocks;
          Exhaustion
            { n = req "n" !n;
              max_depth;
              frontiers =
                Array.of_list (List.rev_map List.rev !fronts);
              covers = Array.of_list (List.rev_map List.rev !covs) }
      | k -> fail "CRT001" kind_line "unknown certificate kind %S" k
    in
    try
      let certs = ref [] in
      skip_blanks ();
      while !i < nlines do
        let lineno = !i + 1 in
        (match tokens_of (String.trim lines.(!i)) with
        | [ "snlb-cert"; "1" ] -> incr i
        | [ "snlb-cert"; v ] ->
            fail "CRT001" lineno "unsupported certificate format version %S" v
        | _ -> fail "CRT001" lineno "expected snlb-cert 1 header");
        skip_blanks ();
        let kind_line = !i + 1 in
        let kind =
          if !i >= nlines then fail "CRT001" kind_line "missing kind directive"
          else
            match tokens_of (String.trim lines.(!i)) with
            | [ "kind"; k ] ->
                incr i;
                k
            | _ -> fail "CRT001" kind_line "expected kind directive"
        in
        certs := assemble kind_line kind (read_body ()) :: !certs;
        skip_blanks ()
      done;
      if !certs = [] then
        Error
          { code = "CRT001"; where = "line 1"; reason = "empty certificate file" }
      else Ok (List.rev !certs)
    with Fail e -> Error e
end

(* Certificates of all five kinds: the adversary's lower bounds on
   random 2-block shuffle programs (n = 4..256) and on an all-plus one,
   exhaustion certificates from the n = 4 and n = 5 searches, and the
   analyzer's reach, bounds, refutation and dead-gate certificates of
   registry networks. *)
let corpus =
  lazy
    (let lower_bounds =
       List.concat_map
         (fun d ->
           List.filter_map
             (fun seed ->
               let n = 1 lsl d in
               let prog =
                 if seed = 0 then Shuffle_net.all_plus_program ~n ~stages:(2 * d)
                 else
                   Shuffle_net.random_program (Xoshiro.of_seed seed) ~n
                     ~stages:(2 * d)
               in
               let res = Theorem41.run (Shuffle_net.to_iterated prog) in
               Option.bind (Certificate.of_pattern res.Theorem41.final_pattern)
                 (fun pair ->
                   Result.to_option
                     (Certificate.to_cert (Register_model.to_network prog) pair)))
             [ 0; 1; 2; 3 ])
         [ 2; 3; 4; 5; 6; 7; 8 ]
     in
     let exhaustions =
       List.map
         (fun (n, max_depth) ->
           let frontiers = ref [] in
           let frontier_log ~level:_ states = frontiers := states :: !frontiers in
           match
             Driver.optimal_depth ~frontier_log ~restrict:false ~max_depth ~n ()
           with
           | Driver.Unsorted _ -> (
               match
                 Cert_emit.exhaustion ~n ~max_depth
                   ~frontiers:(List.rev !frontiers)
               with
               | Ok c -> c
               | Error e -> Alcotest.failf "no exhaustion certificate: %s" e)
           | _ -> Alcotest.failf "n=%d depth %d is not exhausted" n max_depth)
         [ (4, 2); (5, 3); (5, 4) ]
     in
     let analyzer =
       List.concat_map
         (fun (e : Sorter_registry.entry) ->
           List.concat_map
             (fun n ->
               if e.pow2_only && not (Bitops.is_power_of_two n) then []
               else
                 let nw = e.build n in
                 let levels = Network.levels nw in
                 let last = List.length levels - 1 in
                 let prefix =
                   Network.create ~wires:n (List.filteri (fun i _ -> i < last) levels)
                 in
                 let doubled =
                   Network.create ~wires:n (levels @ [ List.nth levels last ])
                 in
                 List.filter_map Result.to_option
                   [ Analysis_cert.sortedness nw;
                     Analysis_cert.sortedness ~exact_max_wires:1 nw;
                     Analysis_cert.sortedness prefix ]
                 @ List.filter_map
                     (fun r -> Option.join (Result.to_option r))
                     [ Analysis_cert.dead_gates doubled ])
             [ 4; 5; 8 ])
         Sorter_registry.all
     in
     lower_bounds @ exhaustions @ analyzer)

(* the kind, with the two sortedness domains apart *)
let klass = function
  | Cert.Sortedness { domain = Cert.Bounds_leq _; _ } -> "bounds"
  | c -> Cert.kind_name c

let classes =
  [| "sortedness"; "bounds"; "refutation"; "dead"; "lower-bound"; "exhaustion" |]

let of_class k = List.filter (fun c -> klass c = k) (Lazy.force corpus)

let test_printer_bytes () =
  List.iter
    (fun c ->
      check_string (Cert.kind_name c ^ " bytes") (Reference.to_string c)
        (Cert.to_string c))
    (Lazy.force corpus);
  let all = Lazy.force corpus in
  let joined = String.concat "\n" (List.map Cert.to_string all) in
  let path = Filename.temp_file "snlb" ".cert" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> List.iter (Cert.output oc) all);
      check_string "output" (String.concat "" (List.map Cert.to_string all))
        (In_channel.with_open_bin path In_channel.input_all));
  match (Cert.parse joined, Reference.parse joined) with
  | Ok a, Ok b -> check_bool "one file of every certificate" true (a = b && a = all)
  | _ -> Alcotest.fail "the concatenated corpus does not parse"

(* the starts and ends of the text's maximal digit runs *)
let digit_runs text =
  let runs = ref [] and i = ref 0 and n = String.length text in
  while !i < n do
    if text.[!i] >= '0' && text.[!i] <= '9' then begin
      let s = !i in
      while !i < n && text.[!i] >= '0' && text.[!i] <= '9' do
        incr i
      done;
      runs := (s, !i) :: !runs
    end
    else incr i
  done;
  Array.of_list !runs

let replace_range text s e by =
  String.sub text 0 s ^ by ^ String.sub text e (String.length text - e)

(* One damaged copy of a certificate text. *)
let mutate rng text =
  let len = String.length text in
  let pos () = Xoshiro.int rng ~bound:(len + 1) in
  let pick a = a.(Xoshiro.int rng ~bound:(Array.length a)) in
  let replace_all text a b =
    String.concat b (String.split_on_char a text)
  in
  match Xoshiro.int rng ~bound:8 with
  | 0 -> String.sub text 0 (pos ())
  | 1 when len = 0 -> text
  | 1 ->
      let p = Xoshiro.int rng ~bound:len in
      replace_range text p (p + 1)
        (String.make 1 (pick [| '0'; '7'; '9'; ' '; '\n'; '#'; '-'; '+'; 'x'; 'a'; '\t'; '\r'; '_' |]))
  | 2 -> (
      (* a tab inside a token, in place of a space, or ending a line *)
      match Xoshiro.int rng ~bound:3 with
      | 0 ->
          let p = pos () in
          replace_range text p p "\t"
      | 1 -> (
          match String.index_from_opt text (pos () mod max 1 len) ' ' with
          | Some p -> replace_range text p (p + 1) "\t"
          | None -> text)
      | _ -> (
          match String.index_from_opt text (pos () mod max 1 len) '\n' with
          | Some p -> replace_range text p p "\t"
          | None -> text ^ "\t"))
  | 3 -> replace_all text '\n' "\r\n"
  | 4 -> (
      match String.index_from_opt text (pos () mod max 1 len) ' ' with
      | Some p -> replace_range text p (p + 1) "  "
      | None -> text ^ "  ")
  | 5 ->
      (* the same integer, or an out-of-range one, in another spelling *)
      let runs = digit_runs text in
      if Array.length runs = 0 then text
      else
        let s, e = pick runs in
        let digits = String.sub text s (e - s) in
        (* a run left by an earlier respelling may overflow *)
        let v = Option.value (int_of_string_opt digits) ~default:31 in
        let by =
          match Xoshiro.int rng ~bound:7 with
          | 0 -> Printf.sprintf "0x%x" v
          | 1 -> "+" ^ digits
          | 2 -> "-" ^ digits
          | 3 ->
              if String.length digits >= 2 then
                String.sub digits 0 1 ^ "_" ^ String.sub digits 1 (String.length digits - 1)
              else digits ^ "_"
          | 4 -> String.make (19 - min 18 (String.length digits)) '0' ^ digits
          | 5 -> "9999999999999999999"
          | _ -> "0x1f"
        in
        replace_range text s e by
  | 6 ->
      (* a whole line dropped or repeated *)
      let lines = String.split_on_char '\n' text in
      let k = Xoshiro.int rng ~bound:(List.length lines) in
      String.concat "\n"
        (List.concat
           (List.mapi
              (fun i l ->
                if i <> k then [ l ] else if Xoshiro.bool rng then [] else [ l; l ])
              lines))
  | _ ->
      (* one line's arguments garbled, dropped or repeated, so that several
         faults meet on a line, and the line perhaps a repeated directive *)
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let k = Xoshiro.int rng ~bound:(Array.length lines) in
      let garble tok =
        match Xoshiro.int rng ~bound:6 with
        | 0 -> [ pick [| "z"; "1z"; "-"; "0x"; "9999999999999999999" |] ]
        | 1 -> []
        | 2 -> [ tok; tok ]
        | _ -> [ tok ]
      in
      (match String.split_on_char ' ' lines.(k) with
      | [] -> ()
      | word :: args ->
          let garbled = String.concat " " (word :: List.concat_map garble args) in
          lines.(k) <-
            (if Xoshiro.bool rng then lines.(k) ^ "\n" ^ garbled else garbled));
      String.concat "\n" (Array.to_list lines)

let reference_parse text =
  match Reference.parse text with
  | r -> Some r
  | exception _ -> None

let same_parse text =
  match (reference_parse text, Cert.parse text) with
  | Some (Ok a), Ok b -> a = b
  | Some (Error a), Error b -> a = b
  | None, Error _ -> true (* the reference raised; an error is enough *)
  | _ -> false

(* Every line of the smallest certificate of each kind, damaged in
   each of a fixed set of ways that put several faults on one line. *)
let test_line_faults_match_reference () =
  let smallest k =
    match List.map Cert.to_string (of_class k) with
    | [] -> Alcotest.failf "no %s certificate" k
    | t :: ts ->
        List.fold_left
          (fun a b -> if String.length b < String.length a then b else a)
          t ts
  in
  Array.iter
    (fun k ->
      let text = smallest k in
      let lines = Array.of_list (String.split_on_char '\n' text) in
      Array.iteri
        (fun i line ->
          let word, args =
            match String.split_on_char ' ' line with
            | [] -> ("", [])
            | w :: a -> (w, a)
          in
          let with_args a = String.concat " " (word :: a) in
          let last = List.length args - 1 in
          let variants =
            [ with_args (List.map (fun _ -> "z") args);
              with_args (List.mapi (fun j a -> if j = 0 then "z" else if j = last then "y" else a) args);
              line ^ "\n" ^ with_args (List.map (fun _ -> "z") args);
              line ^ "\n" ^ line;
              with_args (List.filteri (fun j _ -> j <> last) args);
              with_args (List.filteri (fun j _ -> j <> last) args @ [ "z" ]);
              with_args (args @ [ "7" ]);
              word;
              "" ]
          in
          List.iter
            (fun v ->
              let damaged =
                String.concat "\n"
                  (Array.to_list (Array.mapi (fun j l -> if j = i then v else l) lines))
              in
              if not (same_parse damaged) then
                Alcotest.failf "%s certificate, line %d as %S: parsers differ" k
                  (i + 1) v)
            variants)
        lines)
    classes

let prop_parse_matches_reference =
  QCheck.Test.make ~name:"parse of damaged certificates = reference" ~count:3000
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      (* a class first, so that each is damaged as often *)
      let certs =
        Array.of_list (of_class classes.(Xoshiro.int rng ~bound:(Array.length classes)))
      in
      let text = Cert.to_string certs.(Xoshiro.int rng ~bound:(Array.length certs)) in
      let text = mutate rng text in
      same_parse (if Xoshiro.int rng ~bound:4 = 0 then mutate rng text else text))

(* --- parse errors are typed --- *)

let test_parse_errors () =
  (match Cert.parse "not a certificate\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> check_string "magic line" "CRT001" e.Cert.code);
  match Cert.parse "snlb-cert 1\nkind exhaustion\nn 4\nmax-depth 2\n" with
  | Ok _ -> Alcotest.fail "truncated certificate accepted"
  | Error e -> check_string "unterminated" "CRT001" e.Cert.code

let () =
  Alcotest.run "cert"
    [
      ( "domains",
        [
          Alcotest.test_case "bounds-soundness-60" `Quick test_bounds_soundness;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "registry-n8" `Quick test_registry_roundtrip;
          Alcotest.test_case "exhaustion-bytes-n6" `Quick
            test_exhaustion_bytes_pinned;
          Alcotest.test_case "exhaustion-width-range" `Quick
            test_exhaustion_width_range;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "refutation" `Quick test_refutation;
          Alcotest.test_case "dead-gates" `Quick test_dead_gates;
          Alcotest.test_case "lower-bound" `Quick test_lower_bound;
          Alcotest.test_case "parse-errors" `Quick test_parse_errors;
        ] );
      ( "io",
        [
          Alcotest.test_case "printer-bytes" `Quick test_printer_bytes;
          Alcotest.test_case "line-faults" `Quick test_line_faults_match_reference;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lower_bound_mset_trace; prop_parse_matches_reference ] );
    ]
