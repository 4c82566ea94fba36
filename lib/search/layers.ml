type layer = (int * int) list

let all ~n =
  if n < 2 then invalid_arg "Layers.all: n must be >= 2";
  (* matchings by recursion on the smallest free channel: leave it
     unmatched, or pair it with any larger free channel *)
  let rec go = function
    | [] -> [ [] ]
    | c :: rest ->
        let without = go rest in
        let with_c =
          List.concat_map
            (fun c' ->
              let rest' = List.filter (fun x -> x <> c') rest in
              List.map (fun m -> (c, c') :: m) (go rest'))
            rest
        in
        without @ with_c
  in
  List.filter (fun l -> l <> []) (go (List.init n Fun.id))

let first ~n =
  if n < 2 then invalid_arg "Layers.first: n must be >= 2";
  List.init (n / 2) (fun k -> (2 * k, (2 * k) + 1))

(* The stabilizer of [first]: permute the floor(n/2) pairs and flip
   within each pair; any leftover channel is fixed. Elements are
   realised as channel maps. *)
let stabilizer ~n =
  let k = n / 2 in
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  let pair_perms = List.map Array.of_list (perms (List.init k Fun.id)) in
  List.concat_map
    (fun sigma ->
      List.init (1 lsl k) (fun flips ->
          Array.init n (fun c ->
              if c >= 2 * k then c
              else
                let p = c / 2 and b = c land 1 in
                (2 * sigma.(p)) + (b lxor ((flips lsr p) land 1)))))
    pair_perms

let apply_group_elt g layer =
  List.sort compare
    (List.map
       (fun (i, j) ->
         let i' = g.(i) and j' = g.(j) in
         (min i' j', max i' j'))
       layer)

(* Each orbit is walked once, from its first member in [all]'s order:
   every image is marked seen, and the orbit's least image is its
   representative. *)
let second ~n =
  let group = stabilizer ~n and all = all ~n in
  let seen = Hashtbl.create 1024 and reps = Hashtbl.create 64 in
  List.iter
    (fun layer ->
      if not (Hashtbl.mem seen layer) then begin
        let least =
          List.fold_left
            (fun best g ->
              let img = apply_group_elt g layer in
              Hashtbl.replace seen img ();
              if compare img best < 0 then img else best)
            layer group
        in
        Hashtbl.replace reps least ()
      end)
    all;
  List.filter (Hashtbl.mem reps) all

let gates layer = List.map (fun (i, j) -> Gate.compare_up i j) layer
