let c_networks = Metrics.counter "analysis.networks"
let c_comparators = Metrics.counter "analysis.comparators"
let c_dead = Metrics.counter "analysis.dead"
let c_cross = Metrics.counter "analysis.cross_checks"

type sortedness =
  | Sorting_proved
  | Sorting_refuted of int
  | Sorted_by_bounds
  | Unknown

type gate_ref = { level : int; gate : int; a : int; b : int }

type facts = {
  wires : int;
  levels : int;
  depth : int;
  comparators : int;
  exchanges : int;
  exact : bool;
  sortedness : sortedness;
  dead : gate_ref list;
  shuffle_stages : int option;
  reverse_delta_blocks : int option;
  delta_blocks : int option;
}

type report = { facts : facts; diags : Diag.t list }

let default_exact_max_wires = 12
let exact_cap = 16

(* Dead gates in walk order. [level_verdicts li level] says which
   gates of level [li] (0-based) are dead. *)
let gate_verdicts nw level_verdicts =
  let dead = ref [] in
  List.iteri
    (fun li (level : Network.level) ->
      List.iteri
        (fun gi (g, is_dead) ->
          if is_dead then
            let a, b = Gate.wires g in
            dead := { level = li + 1; gate = gi; a; b } :: !dead)
        (List.combine level.gates (level_verdicts li level)))
    (Network.levels nw);
  List.rev !dead

(* The exact domain is the kernel's sweep over all 2^n inputs: a
   comparator is dead iff it never fires. An exchange never is: two
   distinct wires differ on some reachable vector (DESIGN.md). *)
let exact_verdicts nw c =
  let { Bitslice.fires; least_unsorted } = Bitslice.gate_activity c in
  let dead =
    gate_verdicts nw (fun li (level : Network.level) ->
        List.mapi
          (fun gi g ->
            Gate.is_comparator g
            && not fires.(c.Compiled.level_off.(li) + gi))
          level.gates)
  in
  let sortedness =
    match least_unsorted with
    | None -> Sorting_proved
    | Some m -> Sorting_refuted m
  in
  (sortedness, dead)

(* The one order-bounds walk. A level's gates are all queried against
   its entry state (they fire in parallel on disjoint wires), then
   transferred. *)
let bounds_verdicts nw ~on_level =
  let b = Bounds.create (Network.wires nw) in
  let dead =
    gate_verdicts nw (fun _ (level : Network.level) ->
        Option.iter (Bounds.transfer_perm b) level.pre;
        let verdicts = List.map (Bounds.gate_dead b) level.gates in
        List.iter (Bounds.transfer_gate b) level.gates;
        on_level b;
        verdicts)
  in
  let sortedness = if Bounds.sorted_proved b then Sorted_by_bounds else Unknown in
  (sortedness, dead)

let mask_bits ~n m =
  String.init n (fun i -> if m land (1 lsl (n - 1 - i)) <> 0 then '1' else '0')

let analyze_gen ?(exact_max_wires = default_exact_max_wires)
    ?(cross_check = false) ~conformance nw =
  let n = Network.wires nw in
  let exact = n <= min exact_max_wires exact_cap in
  let sortedness, dead =
    if exact then exact_verdicts nw (Compiled.of_network nw)
    else bounds_verdicts nw ~on_level:ignore
  in
  let comparators = Network.size nw in
  let exchanges =
    List.fold_left
      (fun acc (l : Network.level) ->
        acc
        + List.length (List.filter (fun g -> not (Gate.is_comparator g)) l.gates))
      0 (Network.levels nw)
  in
  Metrics.incr c_networks;
  Metrics.add c_comparators comparators;
  Metrics.add c_dead (List.length dead);
  let shuffle_stages, reverse_delta_blocks, delta_blocks =
    if conformance then
      ( Conform.shuffle_stages nw,
        Conform.iterated_reverse_delta nw,
        Conform.delta_blocks nw )
    else (None, None, None)
  in
  let facts =
    {
      wires = n;
      levels = List.length (Network.levels nw);
      depth = Network.depth nw;
      comparators;
      exchanges;
      exact;
      sortedness;
      dead;
      shuffle_stages;
      reverse_delta_blocks;
      delta_blocks;
    }
  in
  let diags = ref (List.rev (Lint.structural nw)) in
  let add d = diags := d :: !diags in
  if not exact then
    add
      (Diag.make ~code:"SNL206" ~severity:Diag.Info
         (Printf.sprintf
            "exact 0-1 domain unavailable at %d wires (cap %d): sortedness \
             and gate verdicts use the approximate bounds domain"
            n
            (min exact_max_wires exact_cap)));
  List.iter
    (fun r ->
      add
        (Diag.make
           ~span:{ Diag.level = r.level; gate = Some r.gate }
           ~code:"SNL201" ~severity:Diag.Warning
           (Printf.sprintf
              "dead comparator (%d,%d): never exchanges on any reachable \
               input; removable"
              r.a r.b)))
    dead;
  (match sortedness with
  | Sorting_proved ->
      add
        (Diag.make ~code:"SNL204" ~severity:Diag.Info
           (Printf.sprintf
              "sorting network: proved over all %d zero-one inputs (exact \
               domain)"
              (1 lsl n)))
  | Sorting_refuted m ->
      add
        (Diag.make ~code:"SNL203" ~severity:Diag.Info
           (Printf.sprintf
              "not a sorting network: some zero-one input leaves unsorted \
               output %s (exact domain)"
              (mask_bits ~n m)))
  | Sorted_by_bounds ->
      add
        (Diag.make ~code:"SNL205" ~severity:Diag.Info
           "sorting network: proved by the order-bounds domain")
  | Unknown -> ());
  if conformance then begin
    (match shuffle_stages with
    | Some s ->
        add
          (Diag.make ~code:"SNL301" ~severity:Diag.Info
             (Printf.sprintf
                "shuffle-based: all %d stages act on shuffle register pairs" s))
    | None -> ());
    (match reverse_delta_blocks with
    | Some b ->
        add
          (Diag.make ~code:"SNL302" ~severity:Diag.Info
             (Printf.sprintf
                "iterated reverse delta: %d block%s of %d levels (Definition \
                 3.4)"
                b
                (if b = 1 then "" else "s")
                (Bitops.log2_exact n)))
    | None -> ());
    match delta_blocks with
    | Some b ->
        add
          (Diag.make ~code:"SNL303" ~severity:Diag.Info
             (Printf.sprintf "delta skeleton: %d block%s (levels mirrored)" b
                (if b = 1 then "" else "s")))
    | None -> ()
  end;
  if cross_check && exact then begin
    Metrics.incr c_cross;
    let engine_sorts = Bitslice.is_sorting_network (Cache.compile nw) in
    let claimed = sortedness = Sorting_proved in
    if engine_sorts <> claimed then
      add
        (Diag.make ~code:"SNL999" ~severity:Diag.Error
           (Printf.sprintf
              "analyzer/engine disagree on sortedness (analyzer: %b, \
               bit-sliced engine: %b) — please report"
              claimed engine_sorts))
  end;
  { facts; diags = List.rev !diags }

let analyze ?exact_max_wires ?cross_check nw =
  analyze_gen ?exact_max_wires ?cross_check ~conformance:true nw

let remove_dead nw facts =
  let dead = List.map (fun r -> (r.level, r.gate)) facts.dead in
  let levels =
    List.mapi
      (fun li (level : Network.level) ->
        let gates =
          List.filteri (fun gi _ -> not (List.mem (li + 1, gi) dead)) level.gates
        in
        { level with Network.gates })
      (Network.levels nw)
  in
  Network.create ~wires:(Network.wires nw) levels

type strictness = Off | Warn | Strict

let check ?(strictness = Warn) nw =
  match strictness with
  | Off -> Ok []
  | Warn | Strict ->
      let { diags; _ } = analyze_gen ~conformance:false nw in
      let errs = Diag.count diags Diag.Error
      and warns = Diag.count diags Diag.Warning in
      if errs > 0 || (strictness = Strict && warns > 0) then Error diags
      else Ok diags

let load ?strictness path =
  match Network_io.load path with
  | Error e -> Error e
  | Ok nw -> (
      match check ?strictness nw with
      | Ok diags -> Ok (nw, diags)
      | Error diags ->
          let errs = Diag.count diags Diag.Error
          and warns = Diag.count diags Diag.Warning in
          Error
            (Printf.sprintf "network rejected by analysis (%d error%s, %d warning%s)"
               errs
               (if errs = 1 then "" else "s")
               warns
               (if warns = 1 then "" else "s")))
