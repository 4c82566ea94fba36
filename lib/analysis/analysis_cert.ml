(* Certificate emission for the analyzer's verdicts. The analyzer
   proves; {!Cert.check} re-verifies from first principles — every
   certificate leaving this module has already survived that check, so
   a [Ok] here means an independent audit of the verdict, not a
   restatement of it. *)

let self_check cert =
  match Cert.check cert with
  | Ok () -> Ok cert
  | Error e ->
      Error
        (Printf.sprintf "emitted certificate fails its own check: %s %s: %s"
           e.Cert.code e.Cert.where e.Cert.reason)

(* all order facts the bounds walk has proved at this point, as
   deterministic lexicographic (i, j) pairs *)
let bounds_claims b =
  let n = Bounds.n b in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i <> j && Bounds.leq b i j then pairs := (i, j) :: !pairs
    done
  done;
  !pairs

(* the exact walk's verdicts, with the set reaching each level's end *)
let exact nw =
  let wpr = Maskset.words ~n:(Network.wires nw) in
  let sets = ref [] in
  let verdict, dead =
    Analysis.exact_verdicts nw ~on_level:(fun r ->
        sets := Array.to_list (Maskset.elements r ~wpr 0) :: !sets)
  in
  (verdict, dead, Array.of_list (List.rev !sets))

let sortedness ?(exact_max_wires = Analysis.default_exact_max_wires) nw =
  let n = Network.wires nw in
  if n <= min exact_max_wires Analysis.exact_cap then begin
    match exact nw with
    | Analysis.Sorting_refuted _, _, _ -> (
        (* refute with a concrete input: the smallest 0-1 vector whose
           output is unsorted *)
        match Bitslice.find_unsorted (Compiled.of_network nw) with
        | Some witness -> self_check (Cert.Refutation { network = nw; witness })
        | None ->
            Error
              "the exact walk refutes sortedness but the input sweep finds \
               no unsorted input")
    | _, _, sets ->
        self_check
          (Cert.Sortedness { network = nw; domain = Cert.Reach_sets sets })
  end
  else begin
    let lvls = ref [] in
    let verdict, _ =
      Analysis.bounds_verdicts nw ~on_level:(fun b ->
          lvls := bounds_claims b :: !lvls)
    in
    if verdict = Analysis.Sorted_by_bounds then
      self_check
        (Cert.Sortedness
           { network = nw;
             domain = Cert.Bounds_leq (Array.of_list (List.rev !lvls)) })
    else
      Error
        (Printf.sprintf
           "the bounds domain cannot decide sortedness at %d wires (exact \
            domain capped at %d)"
           n
           (min exact_max_wires Analysis.exact_cap))
  end

let dead_gates ?(exact_max_wires = Analysis.default_exact_max_wires) nw =
  if Network.wires nw > min exact_max_wires Analysis.exact_cap then Ok None
  else begin
    match exact nw with
    | _, [], _ -> Ok None
    | _, dead, sets ->
        let claims =
          List.map
            (fun (r : Analysis.gate_ref) ->
              Cert.Dead { level = r.level; gate = r.gate })
            dead
        in
        Result.map Option.some
          (self_check (Cert.Dead_gates { network = nw; sets; claims }))
  end
