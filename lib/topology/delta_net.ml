type t = Reverse_delta.t

let of_reverse_delta rd =
  Reverse_delta.validate rd;
  rd

let to_reverse_delta d = d

let levels = Reverse_delta.levels

let inputs = Reverse_delta.inputs

let to_network ~wires d =
  let nw = Reverse_delta.to_network ~wires d in
  Network.create ~wires (List.rev (Network.levels nw))

let butterfly ~levels = of_reverse_delta (Butterfly.ascending ~levels)

let rec is_butterfly_shape = function
  | Reverse_delta.Wire _ -> true
  | Reverse_delta.Node { sub0; sub1; cross } ->
      let l0 = Reverse_delta.leaves sub0 and l1 = Reverse_delta.leaves sub1 in
      let half = Array.length l0 in
      List.length cross = half
      && List.for_all
           (fun (c : Reverse_delta.cross) ->
             let rec index arr w i =
               if i >= Array.length arr then None
               else if arr.(i) = w then Some i
               else index arr w (i + 1)
             in
             match (index l0 c.left 0, index l1 c.right 0) with
             | Some i, Some j -> i = j
             | _, _ -> false)
           cross
      && is_butterfly_shape sub0 && is_butterfly_shape sub1
