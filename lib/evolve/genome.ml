type t = { wires : int; levels : (int * int) array array }

let normalize_level pairs =
  let pairs =
    Array.map (fun (a, b) -> if a < b then (a, b) else (b, a)) pairs
  in
  Array.sort compare pairs;
  pairs

let validate_level ~wires pairs =
  let used = Array.make wires false in
  Array.iter
    (fun (a, b) ->
      if a < 0 || a >= wires || b < 0 || b >= wires then
        invalid_arg
          (Printf.sprintf "Genome.create: channel out of [0,%d)" wires);
      if a = b then invalid_arg "Genome.create: self-compare";
      List.iter
        (fun w ->
          if used.(w) then
            invalid_arg
              (Printf.sprintf "Genome.create: channel %d used twice in a level"
                 w)
          else used.(w) <- true)
        [ a; b ])
    pairs

let create ~wires levels =
  if wires < 2 then invalid_arg "Genome.create: wires must be >= 2";
  let levels = Array.map normalize_level levels in
  Array.iter (validate_level ~wires) levels;
  { wires; levels }

let wires g = g.wires
let shape g = Array.length g.levels
let size g = Array.fold_left (fun acc l -> acc + Array.length l) 0 g.levels
let equal a b = a.wires = b.wires && a.levels = b.levels

let to_network g =
  Network.of_gate_levels ~wires:g.wires
    (Array.to_list
       (Array.map
          (fun pairs ->
            Array.to_list
              (Array.map (fun (a, b) -> Gate.compare_up a b) pairs))
          g.levels))

(* Fisher-Yates on a scratch channel array; adjacent pairs of the
   shuffle are a uniform random perfect matching (modulo the leftover
   channel at odd wires). *)
let random_level rng ~wires ~density =
  let chan = Array.init wires (fun i -> i) in
  for i = wires - 1 downto 1 do
    let j = Xoshiro.int rng ~bound:(i + 1) in
    let tmp = chan.(i) in
    chan.(i) <- chan.(j);
    chan.(j) <- tmp
  done;
  let pairs = ref [] in
  let i = ref 0 in
  while !i + 1 < wires do
    if Xoshiro.float rng < density then
      pairs := (chan.(!i), chan.(!i + 1)) :: !pairs;
    i := !i + 2
  done;
  normalize_level (Array.of_list !pairs)

let random rng ~wires ~depth ?(density = 0.9) () =
  if wires < 2 then invalid_arg "Genome.random: wires must be >= 2";
  if depth < 0 then invalid_arg "Genome.random: depth must be >= 0";
  { wires; levels = Array.init depth (fun _ -> random_level rng ~wires ~density) }

let free_channels ~wires pairs =
  let used = Array.make wires false in
  Array.iter
    (fun (a, b) ->
      used.(a) <- true;
      used.(b) <- true)
    pairs;
  let free = ref [] in
  for w = wires - 1 downto 0 do
    if not used.(w) then free := w :: !free
  done;
  Array.of_list !free

let set_level g l pairs =
  let levels = Array.copy g.levels in
  levels.(l) <- normalize_level pairs;
  { g with levels }

(* pick uniformly among the levels satisfying [ok]; None if none do *)
let pick_level rng g ok =
  let eligible = ref [] in
  Array.iteri (fun l pairs -> if ok pairs then eligible := l :: !eligible)
    g.levels;
  match !eligible with
  | [] -> None
  | ls ->
      let ls = Array.of_list ls in
      Some ls.(Xoshiro.int rng ~bound:(Array.length ls))

let mutate_rewire rng g l =
  let pairs = Array.copy g.levels.(l) in
  let gi = Xoshiro.int rng ~bound:(Array.length pairs) in
  let a, b = pairs.(gi) in
  let keep, move = if Xoshiro.bool rng then (a, b) else (b, a) in
  (* candidate targets: the level's free channels plus the endpoint
     being abandoned (a pure re-orientation is not a move here — lo<hi
     normalization makes orientation immaterial) *)
  let free = free_channels ~wires:g.wires pairs in
  let cands = Array.of_list (List.filter (fun w -> w <> keep)
                               (move :: Array.to_list free)) in
  let w = cands.(Xoshiro.int rng ~bound:(Array.length cands)) in
  pairs.(gi) <- (keep, w);
  set_level g l pairs

let mutate_add rng g l =
  let pairs = g.levels.(l) in
  let free = free_channels ~wires:g.wires pairs in
  let k = Array.length free in
  let i = Xoshiro.int rng ~bound:k in
  let j = ref (Xoshiro.int rng ~bound:(k - 1)) in
  if !j >= i then incr j;
  set_level g l (Array.append pairs [| (free.(i), free.(!j)) |])

let mutate_remove rng g l =
  let pairs = g.levels.(l) in
  let gi = Xoshiro.int rng ~bound:(Array.length pairs) in
  set_level g l
    (Array.of_list
       (List.filteri (fun i _ -> i <> gi) (Array.to_list pairs)))

let mutate rng g =
  let has_gate pairs = Array.length pairs > 0 in
  let has_room pairs = Array.length (free_channels ~wires:g.wires pairs) >= 2 in
  (* the applicable operator set, decided before any draw so the draw
     count per op is stable *)
  let ops =
    (if Array.exists has_gate g.levels then [ `Rewire; `Remove ] else [])
    @ if Array.exists has_room g.levels then [ `Add ] else []
  in
  match ops with
  | [] -> g
  | ops -> (
      let ops = Array.of_list ops in
      match ops.(Xoshiro.int rng ~bound:(Array.length ops)) with
      | `Rewire -> (
          match pick_level rng g has_gate with
          | Some l -> mutate_rewire rng g l
          | None -> g)
      | `Add -> (
          match pick_level rng g has_room with
          | Some l -> mutate_add rng g l
          | None -> g)
      | `Remove -> (
          match pick_level rng g has_gate with
          | Some l -> mutate_remove rng g l
          | None -> g))

let crossover rng a b =
  if a.wires <> b.wires then invalid_arg "Genome.crossover: wires differ";
  if shape a <> shape b then invalid_arg "Genome.crossover: shapes differ";
  let d = shape a in
  if d < 2 then a
  else begin
    let k = 1 + Xoshiro.int rng ~bound:(d - 1) in
    { a with
      levels =
        Array.init d (fun l ->
            if l < k then a.levels.(l) else b.levels.(l));
    }
  end

let c_repairs = Metrics.counter "evolve.repairs"
let c_repaired_gates = Metrics.counter "evolve.repaired_gates"

let repair g =
  if g.wires > Analysis.default_exact_max_wires then g
  else begin
    let r = Analysis.analyze (to_network g) in
    match r.Analysis.facts.Analysis.dead with
    | [] -> g
    | dead ->
        Metrics.incr c_repairs;
        Metrics.add c_repaired_gates (List.length dead);
        (* gate_ref.level is 1-based over network levels, which map
           index-for-index onto genome levels (to_network preserves
           empty ones); gate is the index into the level's pair array *)
        let levels =
          Array.mapi
            (fun l pairs ->
              Array.of_list
                (List.filteri
                   (fun gi _ ->
                     not
                       (List.exists
                          (fun (d : Analysis.gate_ref) ->
                            d.Analysis.level = l + 1 && d.Analysis.gate = gi)
                          dead))
                   (Array.to_list pairs)))
            g.levels
        in
        { g with levels }
  end

let repair_grow rng g =
  let repaired = repair g in
  if size repaired = size g then repaired
  else
    { repaired with
      levels =
        Array.mapi
          (fun l pairs ->
            if Array.length pairs >= Array.length g.levels.(l) then pairs
            else begin
              (* refill the channels freed by dead-gate removal with
                 fresh random comparators, one per lost gate at most *)
              let pairs = ref pairs in
              let lost = Array.length g.levels.(l) - Array.length !pairs in
              (try
                 for _ = 1 to lost do
                   let free = free_channels ~wires:g.wires !pairs in
                   let k = Array.length free in
                   if k < 2 then raise Exit;
                   let i = Xoshiro.int rng ~bound:k in
                   let j = ref (Xoshiro.int rng ~bound:(k - 1)) in
                   if !j >= i then incr j;
                   pairs :=
                     normalize_level
                       (Array.append !pairs [| (free.(i), free.(!j)) |])
                 done
               with Exit -> ());
              !pairs
            end)
          repaired.levels;
    }

let to_string g =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" g.wires (shape g));
  Array.iter
    (fun pairs ->
      Array.iteri
        (fun i (a, b) ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Printf.sprintf "%d,%d" a b))
        pairs;
      Buffer.add_char buf '\n')
    g.levels;
  Buffer.contents buf

let of_string s =
  match String.split_on_char '\n' s with
  | [] -> Error "empty genome"
  | header :: rest -> (
      match String.split_on_char ' ' (String.trim header) with
      | [ w; d ] -> (
          match (int_of_string_opt w, int_of_string_opt d) with
          | Some wires, Some depth when wires >= 2 && depth >= 0 -> (
              let rest = Array.of_list rest in
              if Array.length rest < depth then Error "truncated genome"
              else
                let parse_pair p =
                  match String.split_on_char ',' p with
                  | [ a; b ] -> (
                      match (int_of_string_opt a, int_of_string_opt b) with
                      | Some a, Some b -> (a, b)
                      | _ -> failwith ("bad pair " ^ p))
                  | _ -> failwith ("bad pair " ^ p)
                in
                let parse_level line =
                  let line = String.trim line in
                  if line = "" then [||]
                  else
                    Array.of_list
                      (List.map parse_pair (String.split_on_char ' ' line))
                in
                match
                  create ~wires (Array.init depth (fun l -> parse_level rest.(l)))
                with
                | g -> Ok g
                | exception (Failure e | Invalid_argument e) -> Error e)
          | _ -> Error ("bad genome header: " ^ header))
      | _ -> Error ("bad genome header: " ^ header))
