(* serve-mix: a child `snlb serve` daemon with its default config, driven
   by two closed-loop connections replaying a seeded request stream:
   ~35% verify on a hot set of 64 networks, ~20% verify on fresh
   networks, ~35% 0-1 eval on bitonic-16, ~10% lint on fresh networks.
   With ~45% of requests answered without the gather window and ~55%
   waiting in it, the median sits inside the window mode instead of in
   the gap between the two. *)

open Util

let block_size = 2000
let connections = 2
let hot_size = 64
let exact_max_wires = 12
let run_dir = ".snbench-run"

(* --- the seeded stream --- *)

type kind = Hot | Fresh | Eval | Lint
type expect = Sorts of bool | Output of int array | Linted

type req = { kind : kind; id : int; payload : string; net : Network.t; expect : expect }

let kind_name = function Hot -> "hot" | Fresh -> "fresh" | Eval -> "eval" | Lint -> "lint"

(* A random partial matching of ascending comparators. *)
let random_layer rng ~wires =
  let perm = Workload.random_permutation rng ~n:wires in
  List.filter_map
    (fun k ->
      if Xoshiro.int rng ~bound:4 = 0 then None
      else Some (Gate.compare_up perm.(2 * k) perm.((2 * k) + 1)))
    (List.init (wires / 2) Fun.id)

(* A standard network on 8-12 wires: 6-10 random layers, or, when
   [sorts], one or two random layers in front of odd-even transposition
   sort. Random networks have large, varied reachable sets, so fresh
   ones get fresh canonical keys. *)
let network rng ~sorts =
  let wires = 8 + Xoshiro.int rng ~bound:5 in
  let layers k = List.init k (fun _ -> random_layer rng ~wires) in
  let levels =
    if sorts then
      layers (1 + Xoshiro.int rng ~bound:2)
      @ List.map Network.gates_of_level (Network.levels (Transposition.network ~n:wires))
    else layers (6 + Xoshiro.int rng ~bound:5)
  in
  Network.of_gate_levels ~wires (List.filter (( <> ) []) levels)

let payload id verb fields =
  Json.to_string (Json.Obj (("id", Json.Int id) :: ("verb", Json.Str verb) :: fields))

let net_field nw = ("network", Json.Str (Network_io.to_string nw))
let bitonic16 = Bitonic.network ~n:16

let verify_req kind id nw =
  { kind; id; net = nw;
    payload = payload id "verify" [ net_field nw ];
    expect = Sorts (Result.is_ok (Zero_one.verify nw)) }

(* The hot set as warm-up requests, answers computed once. *)
let hot_set rng =
  Array.init hot_size (fun i -> verify_req Hot (-1 - i) (network rng ~sorts:(i mod 4 = 0)))

let request rng ~hot id =
  let u = Xoshiro.int rng ~bound:100 in
  if u < 35 then
    let h = hot.(Xoshiro.int rng ~bound:hot_size) in
    { h with id; payload = payload id "verify" [ net_field h.net ] }
  else if u < 55 then verify_req Fresh id (network rng ~sorts:false)
  else if u < 90 then begin
    let input = Array.init 16 (fun _ -> Xoshiro.int rng ~bound:2) in
    { kind = Eval; id; net = bitonic16;
      payload =
        payload id "eval"
          [ ("algo", Json.Str "bitonic"); ("n", Json.Int 16); ("input", Wire.ints_json input) ];
      expect = Output (Network.eval bitonic16 input) }
  end
  else
    let nw = network rng ~sorts:(Xoshiro.bool rng) in
    { kind = Lint; id; net = nw; payload = payload id "lint" [ net_field nw ]; expect = Linted }

(* Every response is [ok], echoes its id, and agrees with the
   in-process oracle: [Zero_one.verify] for verify, [Network.eval] for
   eval. *)
let response_ok req text =
  match Json.of_string text with
  | Error _ -> false
  | Ok j -> (
      Json.member "ok" j = Some (Json.Bool true)
      && Json.member "id" j = Some (Json.Int req.id)
      &&
      match req.expect with
      | Sorts b -> Json.member "sorts" j = Some (Json.Bool b)
      | Output o ->
          Option.bind (Json.member "output" j) Json.to_list
          = Some (Array.to_list (Array.map (fun v -> Json.Int v) o))
      | Linted -> true)

(* --- the daemon --- *)

type daemon = { pid : int; out : in_channel; sock : string }

let spawn ~snlb ~extra k =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let sock = Printf.sprintf "%s/serve-%d-%d.sock" run_dir (Unix.getpid ()) k in
  if Sys.file_exists sock then Sys.remove sock;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ([ snlb; "serve"; "--socket"; sock ] @ extra) in
  let pid = Unix.create_process snlb argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  match In_channel.input_line out with
  | Some line when String.starts_with ~prefix:"serve: listening" line -> { pid; out; sock }
  | _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in out;
      failwith "snlb serve did not start"

(* SIGTERM drains the daemon; whatever it printed after the listening
   line (the --metrics table) is returned. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rest = In_channel.input_all d.out in
  ignore (Unix.waitpid [] d.pid);
  close_in d.out;
  if Sys.file_exists d.sock then Sys.remove d.sock;
  rest

type conn = { fd : Unix.file_descr; reader : Frame.reader }

let connect d =
  let fd = Server.connect (Server.Unix_path d.sock) in
  { fd; reader = Frame.reader fd }

let roundtrip c payload =
  Frame.write c.fd payload;
  match Frame.read ~max:(1 lsl 24) c.reader with
  | Ok text -> text
  | Error e -> "frame error: " ^ Frame.error_text e

(* Set-up: from spawn until the daemon is ready for the stream — both
   connections accepted and the hot set verified once, so it is cached.
   The spawn alone (~3 ms, mostly exec) swings by a third from run to
   run; the warm-up, paced by the gather window, is steady. *)
let start ~snlb ~extra ~hot t k =
  let t0 = now () in
  let d = spawn ~snlb ~extra k in
  match
    let conns = List.init connections (fun _ -> connect d) in
    Array.iter
      (fun r ->
        check t "serve-mix: warm-up verify" (response_ok r (roundtrip (List.hd conns) r.payload)))
      hot;
    conns
  with
  | conns -> (d, conns, now () -. t0)
  | exception e ->
      ignore (stop d);
      raise e

let close_conns conns = List.iter (fun c -> Unix.close c.fd) conns

(* One block: the connections pull requests off a shared index, each
   sending its next request when the previous reply has arrived. *)
let run_block conns reqs =
  let next = Atomic.make 0 in
  let n = Array.length reqs in
  let lat = Array.make n 0. and resp = Array.make n "" in
  let worker c =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = now () in
        resp.(i) <- (try roundtrip c reqs.(i).payload with e -> Printexc.to_string e);
        lat.(i) <- now () -. t0;
        loop ()
      end
    in
    loop ()
  in
  let t0 = now () in
  List.iter Thread.join (List.map (Thread.create worker) conns);
  (now () -. t0, lat, resp)

type phase = {
  blocks : float list;  (** block wall times *)
  latencies : float list;  (** per-request, seconds *)
  block_latency : (float * float) list;  (** each block's (p50, p90) *)
  sent : (req * string) list;  (** every timed request with its response *)
  rss : float;
  setups : float list;
  metrics_text : string;
}

(* Spawn [spares] throw-away daemons for set-up samples, then serve
   blocks for [seconds] on one more, checking every response. *)
let phase ~snlb ~seed ~seconds ~extra ~spares t =
  let master = Xoshiro.of_seed seed in
  let hot = hot_set master in
  let setups =
    List.init spares (fun k ->
        let d, conns, dt = start ~snlb ~extra:[] ~hot t k in
        close_conns conns;
        ignore (stop d);
        dt)
  in
  let d, conns, dt = start ~snlb ~extra ~hot t spares in
  Fun.protect ~finally:(fun () -> if Sys.file_exists d.sock then ignore (stop d)) @@ fun () ->
  let blocks =
    repeat ~seconds (fun () ->
        let rng = Xoshiro.split master in
        let reqs = Array.init block_size (fun i -> request rng ~hot i) in
        let wall, lat, resp = run_block conns reqs in
        Array.iteri
          (fun i r ->
            check t ("serve-mix: response to " ^ kind_name r.kind) (response_ok r resp.(i)))
          reqs;
        (wall, Array.to_list lat, List.combine (Array.to_list reqs) (Array.to_list resp)))
  in
  let rss = peak_rss_mb (Some d.pid) in
  close_conns conns;
  let metrics_text = stop d in
  { blocks = List.map (fun (w, _, _) -> w) blocks;
    latencies = List.concat_map (fun (_, l, _) -> l) blocks;
    block_latency = List.map (fun (_, l, _) -> (median l, quantile 0.9 l)) blocks;
    sent = List.concat_map (fun (_, _, s) -> s) blocks;
    rss;
    setups = setups @ [ dt ];
    metrics_text }

let untraced ~snlb ~seed ~seconds t =
  let p = phase ~snlb ~seed ~seconds ~extra:[] ~spares:4 t in
  (* each block's p90 has 200 samples beyond it; the median over blocks
     keeps a stall in one block from moving the run's figure *)
  end_to_end ~walls:p.blocks ~setups:p.setups ~ops:(List.length p.latencies)
    ~latency:(median (List.map fst p.block_latency), median (List.map snd p.block_latency))
    ~rss:p.rss t

(* --- traced run --- *)

(* "name   value" rows of the daemon's --metrics table *)
let parse_metrics text =
  List.filter_map
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | [ name; v ] -> Option.map (fun f -> (name, f)) (float_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' text)

(* serve.request spans from the daemon's --trace file: trace id -> ms *)
let parse_spans path =
  let spans = Hashtbl.create 4096 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match Json.of_string line with
         | Ok j when Json.member "name" j = Some (Json.Str "serve.request") -> (
             match (Json.member "trace" j, Json.member "wall_s" j) with
             | Some (Json.Str tr), Some (Json.Float s) -> Hashtbl.replace spans tr (1000. *. s)
             | _ -> ())
         | _ -> ());
  spans

(* Per-request cost of the daemon's steps, replayed in process; cheap
   steps repeat [reps] times under one clock pair. *)
let per_call ?(reps = 1) f =
  let dt = snd (time (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done)) in
  1e6 *. dt /. float_of_int reps

let replay (req, text) =
  let decode () =
    match Wire.parse_request req.payload with
    | Ok r -> Wire.resolve_network ~max_wires:16 r
    | Error e -> Error e
  in
  let response = match Json.of_string text with Ok j -> j | Error _ -> Json.Null in
  let key () = Scache.key req.net in
  [ ("decode", per_call ~reps:16 decode);
    ("encode", per_call ~reps:16 (fun () -> Json.to_string response)) ]
  @
  match req.kind with
  | Hot -> [ ("key", per_call ~reps:4 key) ]
  | Fresh ->
      [ ("key", per_call ~reps:4 key);
        ("sweep", per_call (fun () -> Bitslice.find_unsorted (Cache.compile req.net))) ]
  | Eval ->
      let c = Cache.compile req.net in
      let mask =
        match Wire.parse_request req.payload with
        | Ok { Wire.input = Some a; _ } ->
            Array.fold_right (fun v acc -> (acc lsl 1) lor v) a 0
        | _ -> 0
      in
      [ ("eval", per_call ~reps:16 (fun () -> Bitslice.eval_masks c [| mask |])) ]
  | Lint -> [ ("lint", per_call (fun () -> Analysis.analyze ~exact_max_wires req.net)) ]

let traced ~snlb ~seed ~seconds t =
  let half = seconds /. 2. in
  let plain = phase ~snlb ~seed ~seconds:half ~extra:[] ~spares:0 t in
  let trace_file = Printf.sprintf "%s/serve-%d.trace" run_dir (Unix.getpid ()) in
  let p =
    phase ~snlb ~seed ~seconds:half ~extra:[ "--trace"; trace_file; "--metrics" ] ~spares:0 t
  in
  let spans = parse_spans trace_file in
  Sys.remove trace_file;
  let daemon = parse_metrics p.metrics_text in
  let dm name = Option.value (List.assoc_opt name daemon) ~default:0. in
  (* join each timed request to its span through the response's trace id *)
  let span_of (_, text) =
    match Json.of_string text with
    | Ok j -> (
        match Json.member "trace" j with
        | Some (Json.Str tr) -> Hashtbl.find_opt spans tr
        | _ -> None)
    | Error _ -> None
  in
  let spans_of kinds =
    List.filter_map
      (fun ((r, _) as s) -> if List.mem r.kind kinds then span_of s else None)
      p.sent
  in
  consistency t "every timed request has a serve.request span"
    (List.for_all (fun s -> span_of s <> None) p.sent);
  Cache.clear ();
  let replays = List.map (fun ((r, _) as s) -> (r.kind, replay s)) p.sent in
  let step kind name =
    median
      (List.filter_map
         (fun (k, steps) -> if k = kind then List.assoc_opt name steps else None)
         replays)
  in
  let med kinds = median (spans_of kinds) in
  let ms us = us /. 1000. in
  (* The serve.request span closes on the response value, before
     Json.to_string encodes it, so no span contains the encode step. *)
  let fresh_parts = step Fresh "decode" +. step Fresh "key" +. step Fresh "sweep" in
  let eval_parts = step Eval "decode" +. step Eval "eval" in
  let lint_parts = step Lint "decode" +. step Lint "lint" in
  List.iter
    (fun (what, parts, span) ->
      consistency t
        (Printf.sprintf "replayed %s steps (%.3f ms) within 5%% of their median span (%.3f ms)"
           what (ms parts) span)
        (ms parts <= 1.05 *. span))
    [ ("fresh verify", fresh_parts, med [ Fresh ]);
      ("eval", eval_parts, med [ Eval ]);
      ("lint", lint_parts, med [ Lint ]) ];
  let all name = median (List.filter_map (fun (_, st) -> List.assoc_opt name st) replays) in
  let lanes = dm "serve.eval.lanes" and passes = dm "serve.eval.passes" in
  let hits = dm "serve.cache.hits" and misses = dm "serve.cache.misses" in
  let ratio a b = if b = 0. then 0. else a /. b in
  [ m "serve.request_ms.verify" "ms" (med [ Hot; Fresh ]);
    m "serve.request_ms.eval" "ms" (med [ Eval ]);
    m "serve.request_ms.lint" "ms" (med [ Lint ]);
    m "serve.decode_us" "us" (all "decode");
    m "serve.key_us" "us" (step Fresh "key");
    m "serve.sweep_us" "us" (step Fresh "sweep");
    m "serve.eval_us" "us" (step Eval "eval");
    m "serve.lint_us" "us" (step Lint "lint");
    m "serve.encode_us" "us" (all "encode");
    m "serve.wait_ms" "ms" (med [ Fresh ] -. ms fresh_parts);
    m "serve.batch.rounds" "count" (dm "serve.batch.rounds");
    m "serve.batch.requests" "count" (dm "serve.batch.requests");
    m "serve.jobs_per_round" "ratio" (ratio (dm "serve.batch.requests") (dm "serve.batch.rounds"));
    m "serve.cache.hits" "count" hits;
    m "serve.cache.misses" "count" misses;
    m "serve.cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "serve.verify.coalesced" "count" (dm "serve.verify.coalesced");
    m "serve.eval.passes" "count" passes;
    m "serve.eval.lanes" "count" lanes;
    m "serve.eval.lane_fill" "ratio" (ratio lanes (63. *. passes));
    m "trace.overhead_ratio" "ratio" (median p.blocks /. median plain.blocks) ]
