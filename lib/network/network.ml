type level = { pre : Perm.t option; gates : Gate.t list }

type t = { wires : int; levels : level list }

let touch ~wires used w =
  if w < 0 || w >= wires then
    invalid_arg (Printf.sprintf "Network.create: wire %d out of [0,%d)" w wires)
  else if Bytes.unsafe_get used w <> '\000' then
    invalid_arg (Printf.sprintf "Network.create: wire %d used twice in a level" w)
  else Bytes.unsafe_set used w '\001'

(* [used] is one byte per wire, allocated once per network and cleared
   per level. *)
let validate_level ~wires used lvl =
  (match lvl.pre with
  | None -> ()
  | Some p ->
      if Perm.n p <> wires then
        invalid_arg
          (Printf.sprintf "Network.create: permutation size %d <> wires %d"
             (Perm.n p) wires));
  Bytes.fill used 0 wires '\000';
  List.iter
    (function
      | Gate.Compare { lo; hi } ->
          touch ~wires used lo;
          touch ~wires used hi
      | Gate.Exchange { a; b } ->
          touch ~wires used a;
          touch ~wires used b)
    lvl.gates

let create ~wires levels =
  if wires < 1 then invalid_arg "Network.create: wires must be >= 1";
  let used = Bytes.create wires in
  List.iter (validate_level ~wires used) levels;
  { wires; levels }

let of_gate_levels ~wires gss =
  create ~wires (List.map (fun gates -> { pre = None; gates }) gss)

let wires nw = nw.wires
let levels nw = nw.levels

let level_has_comparator lvl = List.exists Gate.is_comparator lvl.gates

let depth nw =
  List.fold_left
    (fun acc lvl -> if level_has_comparator lvl then acc + 1 else acc)
    0 nw.levels

let size nw =
  List.fold_left
    (fun acc lvl ->
      acc + List.length (List.filter Gate.is_comparator lvl.gates))
    0 nw.levels

let empty n = create ~wires:n []

let permutation_level p =
  create ~wires:(Perm.n p) [ { pre = Some p; gates = [] } ]

let serial a b =
  if a.wires <> b.wires then invalid_arg "Network.serial: width mismatch";
  { wires = a.wires; levels = a.levels @ b.levels }

let serial_perm a p b =
  if a.wires <> b.wires || Perm.n p <> a.wires then
    invalid_arg "Network.serial_perm: width mismatch";
  { wires = a.wires;
    levels = a.levels @ ({ pre = Some p; gates = [] } :: b.levels) }

let parallel a b =
  let uses_pre nw = List.exists (fun l -> l.pre <> None) nw.levels in
  if uses_pre a || uses_pre b then
    invalid_arg "Network.parallel: flatten components first (pre permutations present)";
  let off = a.wires in
  let shift g = Gate.map_wires (fun w -> w + off) g in
  let rec zip la lb =
    match (la, lb) with
    | [], [] -> []
    | la, [] -> la
    | [], lb -> List.map (fun l -> { l with gates = List.map shift l.gates }) lb
    | ha :: ta, hb :: tb ->
        { pre = None; gates = ha.gates @ List.map shift hb.gates } :: zip ta tb
  in
  { wires = a.wires + b.wires; levels = zip a.levels b.levels }

let apply_gate_generic ~cmp ~on_compare values g =
  match g with
  | Gate.Compare { lo; hi } ->
      let u = values.(lo) and v = values.(hi) in
      on_compare u v;
      if cmp u v > 0 then begin
        values.(lo) <- v;
        values.(hi) <- u
      end
  | Gate.Exchange { a; b } ->
      let u = values.(a) in
      values.(a) <- values.(b);
      values.(b) <- u

let eval_generic ~cmp ~on_compare nw input =
  if Array.length input <> nw.wires then
    invalid_arg
      (Printf.sprintf "Network.eval: input length %d <> wires %d"
         (Array.length input) nw.wires);
  let values = ref (Array.copy input) in
  let step lvl =
    (match lvl.pre with
    | None -> ()
    | Some p -> values := Perm.permute_array p !values);
    List.iter (apply_gate_generic ~cmp ~on_compare !values) lvl.gates
  in
  List.iter step nw.levels;
  !values

let nop2 _ _ = ()

let eval nw input = eval_generic ~cmp:Int.compare ~on_compare:nop2 nw input

let eval_gen ~cmp nw input = eval_generic ~cmp ~on_compare:nop2 nw input

let eval_trace ~on_compare nw input =
  eval_generic ~cmp:Int.compare ~on_compare nw input

let flatten nw =
  (* [slot] tracks, for each register r, the flattened slot x currently
     holding the value that the original network keeps in register r;
     gates are rewired through it.  Values never move in the flattened
     coordinates except when a gate swaps them, which is the same swap
     in both coordinate systems. *)
  let n = nw.wires in
  let slot = Array.init n (fun r -> r) in
  let flat_levels =
    List.map
      (fun lvl ->
        (match lvl.pre with
        | None -> ()
        | Some p ->
            (* Content of register r moves to register (p r): register
               (p r) now maps to the slot that register r mapped to. *)
            let old = Array.copy slot in
            for r = 0 to n - 1 do
              slot.(Perm.apply p r) <- old.(r)
            done);
        let gates = List.map (Gate.map_wires (fun r -> slot.(r))) lvl.gates in
        { pre = None; gates })
      nw.levels
  in
  (* Final routing: the value for output register r sits in slot.(r). *)
  let routing =
    let p = Perm.inverse (Perm.of_array slot) in
    if Perm.is_identity p then [] else [ { pre = Some p; gates = [] } ]
  in
  { wires = n; levels = flat_levels @ routing }

let gates_of_level lvl = lvl.gates

let output_wiring_only nw =
  if List.exists (fun l -> l.gates <> []) nw.levels then None
  else
    Some
      (List.fold_left
         (fun acc l ->
           match l.pre with None -> acc | Some p -> Perm.compose p acc)
         (Perm.identity nw.wires) nw.levels)

let comparator_pairs nw =
  List.concat_map
    (fun lvl ->
      List.filter_map
        (function
          | Gate.Compare { lo; hi } -> Some (lo, hi)
          | Gate.Exchange _ -> None)
        lvl.gates)
    nw.levels

let to_dot nw =
  let nw = flatten nw in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph network {\n  rankdir=LR;\n  node [shape=point];\n";
  let n = nw.wires in
  let col = ref 0 in
  let node c w = Printf.sprintf "n%d_%d" c w in
  for w = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  %s [xlabel=\"w%d\"];\n" (node 0 w) w)
  done;
  List.iter
    (fun lvl ->
      let c = !col in
      incr col;
      for w = 0 to n - 1 do
        Buffer.add_string buf
          (Printf.sprintf "  %s -> %s [arrowhead=none,color=gray];\n" (node c w)
             (node (c + 1) w))
      done;
      List.iter
        (fun g ->
          match g with
          | Gate.Compare { lo; hi } ->
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s [color=black,label=\"min\"];\n"
                   (node (c + 1) hi) (node (c + 1) lo))
          | Gate.Exchange { a; b } ->
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s [color=blue,dir=both];\n"
                   (node (c + 1) a) (node (c + 1) b)))
        lvl.gates)
    nw.levels;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats fmt nw =
  let exchanges =
    List.fold_left
      (fun acc lvl ->
        acc + List.length (List.filter (fun g -> not (Gate.is_comparator g)) lvl.gates))
      0 nw.levels
  in
  Format.fprintf fmt "wires=%d levels=%d depth=%d comparators=%d exchanges=%d"
    nw.wires (List.length nw.levels) (depth nw) (size nw) exchanges
