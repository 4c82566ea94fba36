type kind = Min_left | Min_right | Swap

type cross = { left : int; right : int; kind : kind }

type t = Wire of int | Node of { sub0 : t; sub1 : t; cross : cross list }

let rec leaves_rev acc = function
  | Wire w -> w :: acc
  | Node { sub0; sub1; _ } -> leaves_rev (leaves_rev acc sub0) sub1

let leaves rd = Array.of_list (List.rev (leaves_rev [] rd))

let rec levels = function
  | Wire _ -> 0
  | Node { sub0; _ } -> 1 + levels sub0

let inputs rd = 1 lsl levels rd

(* The last leaf position seen so far for each wire: a flat array when
   the wire ids are dense in the leaf count (a whole block's tree), a
   hash table otherwise (one small tree of a forest over n wires), so
   memory stays linear in the tree. *)
let last_positions ~count ~top =
  if top < 4 * count then begin
    let a = Array.make (top + 1) (-1) in
    ((fun w -> if w < 0 || w > top then -1 else Array.unsafe_get a w),
     fun w p -> a.(w) <- p)
  end
  else begin
    let h = Hashtbl.create count in
    ((fun w -> match Hashtbl.find_opt h w with Some p -> p | None -> -1),
     Hashtbl.replace h)
  end

(* Linear passes. Leaves are numbered in DFS order, so each node owns
   the contiguous range [lo, hi) of leaf positions, split at [mid]
   between sub0 and sub1. Nodes are checked in post-order, as the
   recursion nests, so every repeated leaf inside a node's range has
   already been reported at a lower node when the node is checked;
   with exactly the leaf positions [0, hi) visited so far:
   - sub0 and sub1 share a wire iff some position in [mid, hi) has the
     previous occurrence of its wire at or after [lo] (the recursion
     carries the maximum previous occurrence up);
   - a wire is a leaf of this node iff its last occurrence so far is at
     or after [lo], and its side is a range test against [mid];
   - "used twice in a cross level" is the node's stamp on a position. *)
let validate rd =
  let count = ref 0 and top = ref (-1) in
  let rec extent = function
    | Wire w ->
        incr count;
        if w > !top then top := w
    | Node { sub0; sub1; _ } ->
        extent sub0;
        extent sub1
  in
  extent rd;
  let last, set_last = last_positions ~count:!count ~top:!top in
  let stamp = Array.make !count (-1) in
  let next_pos = ref 0 and next_node = ref 0 in
  (* Returns the level count and the largest previous-occurrence
     position over the subtree's leaves (-1 if none). *)
  let rec go = function
    | Wire w ->
        if w < 0 then invalid_arg "Reverse_delta.validate: negative wire id";
        let p = !next_pos in
        incr next_pos;
        let prev = last w in
        set_last w p;
        (0, prev)
    | Node { sub0; sub1; cross } ->
        let lo = !next_pos in
        let l0, prev0 = go sub0 in
        let mid = !next_pos in
        let l1, prev1 = go sub1 in
        if l0 <> l1 then
          invalid_arg
            (Printf.sprintf "Reverse_delta.validate: subnetworks of depth %d and %d" l0 l1);
        if prev1 >= lo then invalid_arg "Reverse_delta.validate: subnetworks share a wire";
        let node = !next_node in
        incr next_node;
        let touch w p =
          if stamp.(p) = node then
            invalid_arg
              (Printf.sprintf "Reverse_delta.validate: wire %d used twice in a cross level" w)
          else stamp.(p) <- node
        in
        List.iter
          (fun c ->
            let pl = last c.left in
            if pl < lo || pl >= mid then
              invalid_arg
                (Printf.sprintf "Reverse_delta.validate: left wire %d not in sub0" c.left);
            let pr = last c.right in
            if pr < mid then
              invalid_arg
                (Printf.sprintf "Reverse_delta.validate: right wire %d not in sub1" c.right);
            touch c.left pl;
            touch c.right pr)
          cross;
        (l0 + 1, max prev0 prev1)
  in
  ignore (go rd)

let rec cross_count = function
  | Wire _ -> 0
  | Node { sub0; sub1; cross } ->
      List.length cross + cross_count sub0 + cross_count sub1

let rec comparator_count = function
  | Wire _ -> 0
  | Node { sub0; sub1; cross } ->
      let here =
        List.length
          (List.filter (fun c -> match c.kind with Swap -> false | Min_left | Min_right -> true) cross)
      in
      here + comparator_count sub0 + comparator_count sub1

let gate_of_cross c =
  match c.kind with
  | Min_left -> Gate.Compare { lo = c.left; hi = c.right }
  | Min_right -> Gate.Compare { lo = c.right; hi = c.left }
  | Swap -> Gate.Exchange { a = c.left; b = c.right }

let to_network ~wires rd =
  let l = levels rd in
  (* time_levels.(k) collects, newest first, the gates firing at time
     step k+1; a node at recursion depth j fires at time step l - j.
     Reversing each level once at the end lists its gates in walk
     order. *)
  let time_levels = Array.make l [] in
  let rec walk depth = function
    | Wire _ -> ()
    | Node { sub0; sub1; cross } ->
        let step = l - depth - 1 in
        time_levels.(step) <-
          List.fold_left (fun acc c -> gate_of_cross c :: acc) time_levels.(step) cross;
        walk (depth + 1) sub0;
        walk (depth + 1) sub1
  in
  walk 0 rd;
  Network.of_gate_levels ~wires (Array.to_list (Array.map List.rev time_levels))

let butterfly_cross sub0 sub1 choose =
  let l0 = leaves sub0 and l1 = leaves sub1 in
  if Array.length l0 <> Array.length l1 then
    invalid_arg "Reverse_delta.butterfly_cross: subnetwork size mismatch";
  let out = ref [] in
  for i = Array.length l0 - 1 downto 0 do
    match choose i with
    | None -> ()
    | Some kind -> out := { left = l0.(i); right = l1.(i); kind } :: !out
  done;
  !out

let map_wires f rd =
  let rec go = function
    | Wire w -> Wire (f w)
    | Node { sub0; sub1; cross } ->
        Node
          { sub0 = go sub0;
            sub1 = go sub1;
            cross =
              List.map (fun c -> { c with left = f c.left; right = f c.right }) cross }
  in
  let rd' = go rd in
  validate rd';
  rd'

let pp_kind fmt = function
  | Min_left -> Format.pp_print_string fmt "+"
  | Min_right -> Format.pp_print_string fmt "-"
  | Swap -> Format.pp_print_string fmt "x"

let rec pp fmt = function
  | Wire w -> Format.fprintf fmt "w%d" w
  | Node { sub0; sub1; cross } ->
      Format.fprintf fmt "@[<hv 2>(node@ %a@ %a@ [" pp sub0 pp sub1;
      List.iteri
        (fun i c ->
          if i > 0 then Format.fprintf fmt ";@ ";
          Format.fprintf fmt "%d%a%d" c.left pp_kind c.kind c.right)
        cross;
      Format.fprintf fmt "])@]"
