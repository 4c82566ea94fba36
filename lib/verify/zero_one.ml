(* Exact 0-1 verification, routed through the compiled engine: the
   network is compiled once (structurally cached), then the bit-sliced
   executor checks 64 test inputs per pass over the instruction
   stream.  This module owns the exponential-blowup guard and the
   witness cross-check against the interpretive Network.eval. *)

let default_max_wires = 26

let check_guard ?(max_wires = default_max_wires) nw =
  let n = Network.wires nw in
  if n > max_wires then
    invalid_arg
      (Printf.sprintf "Zero_one: %d wires exceeds max_wires=%d (2^n inputs)" n max_wires);
  n

let input_of_index n t = Array.init n (fun w -> (t lsr w) land 1)

let c_sweeps = Metrics.counter "verify.zero_one.sweeps"
let c_inputs = Metrics.counter "verify.zero_one.inputs"
let h_rate = Metrics.histogram "verify.zero_one.inputs_per_s"

let verify ?max_wires ?(domains = 1) nw =
  let n = check_guard ?max_wires nw in
  let c = Cache.compile nw in
  let t0 = Clock.wall () in
  let answer = Bitslice.find_unsorted ~domains c in
  let dt = Float.max 1e-9 (Clock.wall () -. t0) in
  Metrics.incr c_sweeps;
  Metrics.add c_inputs (1 lsl n);
  Metrics.observe h_rate (float_of_int (1 lsl n) /. dt);
  match answer with
  | None -> Ok ()
  | Some t ->
      let input = input_of_index n t in
      (* independent cross-check: the witness must also fail under the
         interpretive evaluator, or engine and network disagree *)
      if Sortedness.is_sorted (Network.eval nw input) then
        failwith "Zero_one.verify: engine and direct evaluation disagree";
      Error input

let is_sorting_network ?max_wires ?domains nw =
  match verify ?max_wires ?domains nw with Ok () -> true | Error _ -> false

let failing_input ?max_wires ?domains nw =
  match verify ?max_wires ?domains nw with
  | Ok () -> None
  | Error input -> Some input

let unsorted_count ?max_wires ?(domains = 1) nw =
  ignore (check_guard ?max_wires nw);
  Bitslice.count_unsorted ~domains (Cache.compile nw)
