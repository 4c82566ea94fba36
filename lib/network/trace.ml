module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type t = Pair_set.t

let norm u v = if u <= v then (u, v) else (v, u)

let run nw input =
  let seen = ref Pair_set.empty in
  let on_compare u v = seen := Pair_set.add (norm u v) !seen in
  let out = Network.eval_trace ~on_compare nw input in
  (out, !seen)

let compared tr u v = Pair_set.mem (norm u v) tr

let count tr = Pair_set.cardinal tr

let pairs tr = Pair_set.elements tr

let wires_collide nw input w0 w1 =
  let a = input.(w0) and b = input.(w1) in
  let hit = ref false in
  let on_compare u v = if (u = a && v = b) || (u = b && v = a) then hit := true in
  ignore (Network.eval_trace ~on_compare nw input);
  !hit
