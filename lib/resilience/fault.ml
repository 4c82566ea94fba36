let points =
  [ "ckpt-write-fail"; "ckpt-truncate"; "kill-level"; "kill-block"; "kill-gen" ]

type spec = { point : string; prob : float; rng : Splitmix.t }

let c_injected = Metrics.counter "faults.injected"

(* None until the env var has been consulted; Some config afterwards.
   A mutex guards the rng draw (fire can be consulted from the CLI
   main loop and, in principle, worker domains). *)
let config : spec option option ref = ref None
let lock = Mutex.create ()

let parse s =
  let fail msg = Error (Printf.sprintf "bad fault spec %S: %s" s msg) in
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> fail "empty"
  | point :: rest ->
      if not (List.mem point points) then
        fail
          (Printf.sprintf "unknown point (known: %s)"
             (String.concat ", " points))
      else begin
        match rest with
        | [] -> Ok (point, 1.0, 0)
        | [ p ] | [ p; "" ] -> (
            match float_of_string_opt p with
            | Some prob when prob >= 0.0 && prob <= 1.0 -> Ok (point, prob, 0)
            | Some _ -> fail "probability outside [0, 1]"
            | None -> fail "probability is not a float")
        | [ p; sd ] -> (
            match (float_of_string_opt p, int_of_string_opt sd) with
            | Some prob, Some seed when prob >= 0.0 && prob <= 1.0 ->
                Ok (point, prob, seed)
            | Some _, Some _ -> fail "probability outside [0, 1]"
            | None, _ -> fail "probability is not a float"
            | _, None -> fail "seed is not an integer")
        | _ -> fail "too many ':' fields"
      end

let install = function
  | None ->
      config := Some None;
      Ok ()
  | Some s -> (
      match parse s with
      | Ok (point, prob, seed) ->
          config :=
            Some (Some { point; prob; rng = Splitmix.create (Int64.of_int seed) });
          Ok ()
      | Error _ as e -> e)

let set spec =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> install spec)

let from_env () =
  match Sys.getenv_opt "SNLB_FAULT" with
  | None -> config := Some None
  | Some s -> (
      match install (Some s) with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "snlb: SNLB_FAULT ignored: %s\n%!" msg;
          config := Some None)

let current () =
  match !config with
  | Some c -> c
  | None ->
      from_env ();
      Option.join !config

let active () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () -> Option.map (fun s -> s.point) (current ()))

let fire point =
  match !config with
  | Some None -> false (* the common case: injection off, one ref read *)
  | _ ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match current () with
          | None -> false
          | Some spec ->
              spec.point = point
              && (spec.prob >= 1.0
                 ||
                 (* 53 uniform mantissa bits from the private stream *)
                 let u =
                   Int64.to_float (Int64.shift_right_logical (Splitmix.next spec.rng) 11)
                   /. 9007199254740992.0
                 in
                 u < spec.prob)
              &&
              (Metrics.incr c_injected;
               true))
