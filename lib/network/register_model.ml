type op = Plus | Minus | Zero | One

type stage = { perm : Perm.t; ops : op array }

type t = { n : int; stages : stage list }

let create ~n stages =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Register_model.create: n must be positive and even";
  List.iteri
    (fun i st ->
      if Perm.n st.perm <> n then
        invalid_arg
          (Printf.sprintf "Register_model.create: stage %d permutation size %d <> %d"
             i (Perm.n st.perm) n);
      if Array.length st.ops <> n / 2 then
        invalid_arg
          (Printf.sprintf "Register_model.create: stage %d has %d ops, want %d"
             i (Array.length st.ops) (n / 2)))
    stages;
  { n; stages }

let n p = p.n
let stages p = p.stages

let shuffle_program ~n opss =
  let sh = Perm.shuffle n in
  create ~n (List.map (fun ops -> { perm = sh; ops }) opss)

let stage_count p = List.length p.stages

let stage_has_comparator st =
  Array.exists (function Plus | Minus -> true | Zero | One -> false) st.ops

let depth p =
  List.fold_left
    (fun acc st -> if stage_has_comparator st then acc + 1 else acc)
    0 p.stages

let to_network p =
  (* One immutable gate per op per register pair, shared by every stage,
     so a stage's level costs only its list cells. *)
  let half = p.n / 2 in
  let plus = Array.init half (fun k -> Gate.Compare { lo = 2 * k; hi = (2 * k) + 1 }) in
  let minus = Array.init half (fun k -> Gate.Compare { lo = (2 * k) + 1; hi = 2 * k }) in
  let one = Array.init half (fun k -> Gate.Exchange { a = 2 * k; b = (2 * k) + 1 }) in
  let gates_of_ops ops =
    let out = ref [] in
    for k = half - 1 downto 0 do
      match ops.(k) with
      | Plus -> out := plus.(k) :: !out
      | Minus -> out := minus.(k) :: !out
      | One -> out := one.(k) :: !out
      | Zero -> ()
    done;
    !out
  in
  let level_of_stage st =
    { Network.pre = Some st.perm; gates = gates_of_ops st.ops }
  in
  Network.create ~wires:p.n (List.map level_of_stage p.stages)

let eval p input =
  if Array.length input <> p.n then
    invalid_arg "Register_model.eval: input length mismatch";
  let step values st =
    let values = Perm.permute_array st.perm values in
    Array.iteri
      (fun k op ->
        let a = 2 * k and b = (2 * k) + 1 in
        match op with
        | Plus ->
            if values.(a) > values.(b) then begin
              let t = values.(a) in
              values.(a) <- values.(b);
              values.(b) <- t
            end
        | Minus ->
            if values.(a) < values.(b) then begin
              let t = values.(a) in
              values.(a) <- values.(b);
              values.(b) <- t
            end
        | One ->
            let t = values.(a) in
            values.(a) <- values.(b);
            values.(b) <- t
        | Zero -> ())
      st.ops;
    values
  in
  List.fold_left step (Array.copy input) p.stages

let random_ops rng ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Register_model.random_ops: n must be positive and even";
  Array.init (n / 2) (fun _ ->
      match Xoshiro.int rng ~bound:4 with
      | 0 -> Plus
      | 1 -> Minus
      | 2 -> Zero
      | _ -> One)

let comparator_ops ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Register_model.comparator_ops: n must be positive and even";
  Array.make (n / 2) Plus

let pp_op fmt = function
  | Plus -> Format.pp_print_string fmt "+"
  | Minus -> Format.pp_print_string fmt "-"
  | Zero -> Format.pp_print_string fmt "0"
  | One -> Format.pp_print_string fmt "1"
