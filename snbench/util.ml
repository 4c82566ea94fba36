(* Shared benchmark plumbing: clocks, order statistics, the check
   tally, the end-to-end metric set, and the result line. *)

let now = Clock.wall

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linearly interpolated quantile (numpy's default); [nan] when empty. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* Run [f] repeatedly for about [seconds]: another iteration starts only
   while the time used plus half the last iteration stays inside the
   budget, so a run overshoots by at most half an iteration. At least
   one iteration always runs. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go acc =
    let r, dt = time f in
    let acc = r :: acc in
    if now () -. t0 +. (dt /. 2.) < seconds then go acc else List.rev acc
  in
  go []

(* {!repeat}, with a burst of set-up samples from [sample] before every
   unit and one after the last. A set-up of a few milliseconds timed in
   one burst sees the host's state of one moment; spread over the run,
   its median covers the same stretch of time as the units'. *)
let repeat_with_setups ~seconds ~sample f =
  let setups = ref [] in
  let units =
    repeat ~seconds (fun () ->
        setups := sample () @ !setups;
        f ())
  in
  (units, sample () @ !setups)

(* Output checks feed [attempted]/[failed]; a failed traced-run
   consistency check makes the whole result incorrect. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable consistent : bool;
}

let tally () = { attempted = 0; failed = 0; consistent = true }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "snbench: CHECK FAILED: %s\n%!" what
  end

let consistency t what ok =
  if not ok then begin
    t.consistent <- false;
    Printf.eprintf "snbench: CONSISTENCY CHECK FAILED: %s\n%!" what
  end

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* VmHWM (peak resident set) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:nan

(* The end-to-end set every workload reports. A workload's checked
   unit of work is one search, one block of serve requests, one evolve
   run or one prove pipeline; [walls] are those units' times. An
   operation is what a caller waits on: a serve request, otherwise the
   unit itself. [latency] is the operations' (p50, p90) in seconds;
   {!unit_latency} gives it when the operation is the unit. *)
let end_to_end ~walls ~setups ~ops ~latency:(p50, p90) ~rss t =
  let show what xs =
    Printf.eprintf "snbench: %d %s: %s s\n" (List.length xs) what
      (String.concat " " (List.map (Printf.sprintf "%.4f") xs))
  in
  show "units" walls;
  show "setups" setups;
  let ok_ratio =
    if t.attempted = 0 then 0.
    else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted
  in
  [ m "wall_s" "s" (median walls);
    m "setup_s" "s" (median setups);
    m "peak_rss_mb" "MB" rss;
    m "ok_ratio" "ratio" ok_ratio;
    m "ops_per_s" "1/s" (float_of_int ops /. sum walls);
    m "latency_p50_ms" "ms" (1000. *. p50);
    m "latency_p90_ms" "ms" (1000. *. p90) ]

let unit_latency walls = (median walls, quantile 0.9 walls)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines on stderr, then the one-line JSON result as the
   last line of stdout. A non-finite value is a benchmark bug: it is
   reported as 0 and fails the run. *)
let emit t metrics =
  List.iter
    (fun x -> Printf.eprintf "  %-32s %16s %s\n" x.name (number x.value) x.unit_)
    metrics;
  flush stderr;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then prerr_endline "snbench: non-finite metric value";
  let correct = t.failed = 0 && t.consistent && finite && t.attempted > 0 in
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (number (if Float.is_finite x.value then x.value else 0.))
          x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 t.attempted) t.failed (String.concat ", " fields);
  correct
