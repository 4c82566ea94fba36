type t = {
  input : int array;
  twin : int array;
  wire0 : int;
  wire1 : int;
  value0 : int;
  value1 : int;
  m_set : int list;
}

let of_pattern p =
  match Pattern.m_set p 0 with
  | w0 :: w1 :: _ as m_set ->
      (* canonical_input gives wires of one symbol consecutive values in
         wire order, so the two smallest-index M_0 wires receive m and
         m+1. *)
      let input, twin = Pattern.input_with_swap p w0 w1 in
      Some
        { input;
          twin;
          wire0 = w0;
          wire1 = w1;
          value0 = input.(w0);
          value1 = input.(w1);
          m_set }
  | [] | [ _ ] -> None

let is_permutation a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      if v < 0 || v >= n || seen.(v) then false
      else begin
        seen.(v) <- true;
        true
      end)
    a

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check cond msg = if cond then Ok () else Error msg

let validate nw cert =
  let n = Network.wires nw in
  let* () = check (Array.length cert.input = n) "input length mismatch" in
  let* () = check (is_permutation cert.input) "input is not a permutation" in
  let* () =
    check
      (cert.value1 = cert.value0 + 1)
      "witness values are not adjacent"
  in
  let* () =
    check
      (cert.input.(cert.wire0) = cert.value0
      && cert.input.(cert.wire1) = cert.value1)
      "witness wires do not carry the witness values"
  in
  let* () =
    let expected = Array.copy cert.input in
    expected.(cert.wire0) <- cert.value1;
    expected.(cert.wire1) <- cert.value0;
    check (cert.twin = expected) "twin is not input with the stated swap"
  in
  let* () =
    check
      (not (Trace.wires_collide nw cert.input cert.wire0 cert.wire1))
      "witness values were compared: certificate is void"
  in
  let out = Network.eval nw cert.input in
  let out' = Network.eval nw cert.twin in
  let swap v =
    if v = cert.value0 then cert.value1
    else if v = cert.value1 then cert.value0
    else v
  in
  let* () =
    check
      (Array.for_all2 (fun a b -> b = swap a) out out')
      "outputs are not identical up to the witness swap"
  in
  check
    (not (Sortedness.is_sorted out && Sortedness.is_sorted out'))
    "both outputs sorted (impossible)"

(* Rewrite the network as register-model stages — wire permutation plus
   ops on register pairs [(2k, 2k+1)] — and pack this fooling pair into
   a portable {!Cert.Lower_bound} the independent checker can replay.
   Only networks whose every gate sits on a register pair convert
   (shuffle-based topologies do by construction). *)
let to_cert nw cert =
  let n = Network.wires nw in
  if n < 2 || n mod 2 <> 0 then
    Error "register-model certificates need an even wire count"
  else begin
    let exception Bad of string in
    try
      let stages =
        List.mapi
          (fun li (level : Network.level) ->
            let perm =
              match level.Network.pre with
              | None -> Array.init n Fun.id
              | Some p -> Perm.to_array p
            in
            let ops = Bytes.make (n / 2) '0' in
            List.iter
              (fun g ->
                let pair, op =
                  match g with
                  | Gate.Compare { lo; hi } when hi = lo + 1 && lo mod 2 = 0 ->
                      (lo / 2, '+')
                  | Gate.Compare { lo; hi } when lo = hi + 1 && hi mod 2 = 0 ->
                      (hi / 2, '-')
                  | Gate.Exchange { a; b }
                    when abs (a - b) = 1 && min a b mod 2 = 0 ->
                      (min a b / 2, '1')
                  | _ ->
                      raise
                        (Bad
                           (Printf.sprintf
                              "level %d has a gate off the register pairs"
                              (li + 1)))
                in
                if Bytes.get ops pair <> '0' then
                  raise
                    (Bad
                       (Printf.sprintf "level %d reuses register pair %d"
                          (li + 1) pair));
                Bytes.set ops pair op)
              level.Network.gates;
            Cert.{ perm; ops = Bytes.to_string ops })
          (Network.levels nw)
      in
      let c =
        Cert.Lower_bound
          { n;
            stages;
            input = cert.input;
            twin = cert.twin;
            wire0 = cert.wire0;
            wire1 = cert.wire1;
            value0 = cert.value0;
            value1 = cert.value1;
            m_set = cert.m_set }
      in
      match Cert.check c with
      | Ok () -> Ok c
      | Error e ->
          Error
            (Printf.sprintf
               "emitted certificate fails its own check: %s %s: %s" e.Cert.code
               e.Cert.where e.Cert.reason)
    with Bad why -> Error why
  end

let validate_noncolliding nw cert =
  let _, trace = Trace.run nw cert.input in
  let values = List.map (fun w -> cert.input.(w)) cert.m_set in
  let rec pairs = function
    | [] -> Ok ()
    | v :: rest ->
        let bad = List.find_opt (fun u -> Trace.compared trace v u) rest in
        (match bad with
        | Some u ->
            Error
              (Printf.sprintf "M_0 values %d and %d were compared" v u)
        | None -> pairs rest)
  in
  pairs values
