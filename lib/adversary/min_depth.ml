type outcome =
  | Sorter of Register_model.op array list
  | Impossible
  | Inconclusive
  | Interrupted

type minimal =
  | Minimal of int * Register_model.op array list
  | No_sorter
  | Unknown of int
  | Stopped of int

(* Masks encode one zero-one input/state: bit r = value of register r. *)

(* Op vector number [code] has op k = base-4 digit k of [code]; Plus
   is digit 0 so witnesses favour dense comparator levels. *)
let ops_of_code ~pairs code =
  Array.init pairs (fun k ->
      match (code lsr (2 * k)) land 3 with
      | 0 -> Register_model.Plus
      | 1 -> Register_model.Minus
      | 2 -> Register_model.One
      | _ -> Register_model.Zero)

let code_of_ops ops =
  let c = ref 0 in
  for k = Array.length ops - 1 downto 0 do
    let digit =
      match ops.(k) with
      | Register_model.Plus -> 0
      | Register_model.Minus -> 1
      | Register_model.One -> 2
      | Register_model.Zero -> 3
    in
    c := (!c lsl 2) lor digit
  done;
  !c

(* enumerate {+,-,0,1}^pairs in code order *)
let all_op_vectors ~pairs = List.init (1 lsl (2 * pairs)) (ops_of_code ~pairs)

(* Necessary condition for sorting within [r] more stages: every unit
   mask's one must sit at a register whose low [d - r] bits are all
   ones (its committed high position bits must already be correct);
   dually for single-zero masks. *)
let prunable ~n ~d ~remaining state =
  if remaining >= d then false
  else begin
    let low_bits = d - remaining in
    let low_mask = (1 lsl low_bits) - 1 in
    let full = (1 lsl n) - 1 in
    State.exists_mask
      (fun m ->
        if m <> 0 && m land (m - 1) = 0 then begin
          (* unit: position of the single one *)
          let p = Bitops.floor_log2 m in
          p land low_mask <> low_mask
        end
        else
          let c = full land lnot m in
          if c <> 0 && c land (c - 1) = 0 then begin
            let p = Bitops.floor_log2 c in
            p land low_mask <> 0
          end
          else false)
      state
  end

(* One stage as an arena move. The shuffle carries register c's content
   to register rotl c (a rotation of the lg n index bits), an exchange
   [One] then swaps the pair it lands in — both permute the registers,
   so together they are one permutation of the mask-index bits, and the
   exchanges commute with the comparators on the other, disjoint pairs.
   What is left is a directed comparator per [Plus] (minimum on 2k) and
   [Minus] (minimum on 2k + 1); [Zero] adds nothing. Every op vector's
   permutation and comparators are built once, indexed by its code. *)
let stager ~n ~d =
  let pairs = n / 2 in
  let rotl c = ((c lsl 1) lor (c lsr (d - 1))) land (n - 1) in
  let table =
    Array.init (1 lsl (2 * pairs)) (fun code ->
        let ops = ops_of_code ~pairs code in
        let perm =
          Array.init n (fun c ->
              let r = rotl c in
              if ops.(r / 2) = Register_model.One then r lxor 1 else r)
        in
        let cmps =
          List.concat
            (List.mapi
               (fun k op ->
                 match op with
                 | Register_model.Plus -> [ (2 * k, (2 * k) + 1) ]
                 | Register_model.Minus -> [ ((2 * k) + 1, 2 * k) ]
                 | Register_model.One | Register_model.Zero -> [])
               (Array.to_list ops))
        in
        (perm, cmps))
  in
  fun arena ~parent ops ->
    let perm, cmps = table.(code_of_ops ops) in
    Arena.stage_child arena ~perm ~parent cmps

(* Channel permutations do not commute with the fixed shuffle wiring,
   so subsumption (sound for the free-layer search) is NOT sound here;
   the frontier is deduplicated by state equality only. *)
let system ~n =
  let d = Bitops.log2_exact n in
  let pairs = n / 2 in
  let vectors = all_op_vectors ~pairs in
  { Driver.n;
    tag = "shuffle-ops";
    initial = State.initial ~n;
    moves_at = (fun ~level:_ -> vectors);
    stage = stager ~n ~d;
    prune = (fun ~level:_ ~remaining st -> prunable ~n ~d ~remaining st);
    (* redundancy hook off: the op-vector move set is tiny (4^(n/2)
       vectors, n <= 8 in practice) and equality dedup already
       collapses the children a never-firing op would duplicate *)
    redundant_of = Driver.no_redundant;
    dedup = Driver.Equal }

let check_n ~fn n =
  if not (Bitops.is_power_of_two n) || n < 2 || n > 16 then
    invalid_arg (fn ^ ": n must be a power of two in [2,16]")

let search ~n ~depth ?budget ?domains ?sink ?cancel ?checkpoint ?resume () =
  check_n ~fn:"Min_depth.search" n;
  match
    Driver.run ?domains ?budget ?sink ?cancel ?checkpoint ?resume
      ~max_depth:depth (system ~n)
  with
  | Driver.Sorted { moves; _ } -> Sorter moves
  | Driver.Unsorted _ -> Impossible
  | Driver.Inconclusive _ -> Inconclusive
  | Driver.Interrupted _ -> Interrupted

let verify_witness ~n program =
  let prog = Register_model.shuffle_program ~n program in
  Zero_one.is_sorting_network (Register_model.to_network prog)

let minimal_depth ~n ~max_depth ?budget ?domains ?sink ?cancel ?checkpoint
    ?resume () =
  check_n ~fn:"Min_depth.minimal_depth" n;
  match
    Driver.run ?domains ?budget ?sink ?cancel ?checkpoint ?resume ~max_depth
      (system ~n)
  with
  | Driver.Sorted { depth; moves; _ } ->
      assert (verify_witness ~n moves);
      Minimal (depth, moves)
  | Driver.Unsorted _ -> No_sorter
  | Driver.Inconclusive stats -> Unknown stats.Driver.completed_levels
  | Driver.Interrupted stats -> Stopped stats.Driver.completed_levels
