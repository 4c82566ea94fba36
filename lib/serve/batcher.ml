(* The request scheduler: gather / batch / scatter.

   Session threads block in [verify] / [eval01]; a single worker
   thread drains the queue in rounds. Each round takes every pending
   job (up to [max_batch]), after lingering [window] seconds from the
   first arrival so concurrent clients land in the same round, then:

   - verify jobs are grouped by cache key: one bit-sliced 2^n sweep
     serves every request in the group (duplicates and isomorphic
     standard networks coalesce), and the verdict is published to the
     response cache so later resubmissions don't reach the engine at
     all;

   - eval jobs on 0-1 inputs are grouped by network and lane-packed
     into one Bitslice.eval_masks call, up to 64 unrelated clients'
     inputs per pass (one word-parallel execution of the compiled
     stream).

   Sequential mode — window 0, max_batch 1, no cache — degrades to
   one-request-per-pass and is the baseline the bench compares
   against.

   The worker is a thread, not a domain: it spends its life either
   blocked on the condition variable or inside the engine, and verify
   sweeps can still fan out across domains via [domains] (Zero_one
   releases the runtime lock per chunk). *)

type config = {
  window : float;  (* seconds to linger after the first job of a round *)
  max_batch : int;  (* jobs per round; 1 = sequential mode *)
  domains : int;  (* domains per verify sweep *)
  cache : Scache.t option;
}

type verify_result = {
  sorts : bool;
  witness : int array option;
  cached : bool;  (* served from the response cache, no engine pass *)
  coalesced : int;  (* requests sharing this round's sweep (>= 1) *)
  key : string;  (* the cache key used *)
}

(* one-shot result cell: the scatter half of gather/batch/scatter *)
module Cell = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let fill cell v =
    Mutex.lock cell.m;
    cell.v <- Some v;
    Condition.broadcast cell.c;
    Mutex.unlock cell.m

  let wait cell =
    Mutex.lock cell.m;
    while cell.v = None do
      Condition.wait cell.c cell.m
    done;
    let v = Option.get cell.v in
    Mutex.unlock cell.m;
    v
end

type job =
  | Jverify of {
      nw : Network.t;
      skey : string;
      key : string;
      cell : verify_result Cell.t;
    }
  | Jeval of { nw : Network.t; skey : string; mask : int; cell : int Cell.t }

type t = {
  config : config;
  m : Mutex.t;
  c : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;
  mutable worker : Thread.t option;
}

let c_requests = Metrics.counter "serve.batch.requests"
let c_rounds = Metrics.counter "serve.batch.rounds"
let c_queue_depth = Metrics.counter "serve.queue.depth"
let c_sweeps = Metrics.counter "serve.verify.sweeps"
let c_coalesced = Metrics.counter "serve.verify.coalesced"
let c_eval_passes = Metrics.counter "serve.eval.passes"
let c_eval_lanes = Metrics.counter "serve.eval.lanes"

let sweeps () = Metrics.value c_sweeps
let eval_passes () = Metrics.value c_eval_passes
let eval_lanes () = Metrics.value c_eval_lanes

(* group jobs by a string key, preserving arrival order within groups *)
let group_by key_of jobs =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      let k = key_of j in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := j :: !l
      | None ->
          Hashtbl.add tbl k (ref [ j ]);
          order := k :: !order)
    jobs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let run_verify_group t key jobs =
  let prior =
    match t.config.cache with
    | None -> None
    | Some cache -> Scache.peek cache key
  in
  let entry =
    match prior with
    | Some e -> e
    | None ->
        let nw, skey =
          match List.hd jobs with
          | Jverify { nw; skey; _ } -> (nw, skey)
          | Jeval _ -> assert false
        in
        Metrics.incr c_sweeps;
        Metrics.add c_coalesced (List.length jobs - 1);
        let entry =
          match Zero_one.verify ~domains:t.config.domains nw with
          | Ok () -> { Scache.sorts = true; witness = None; skey }
          | Error w -> { Scache.sorts = false; witness = Some w; skey }
        in
        Option.iter (fun cache -> Scache.add cache key entry) t.config.cache;
        entry
  in
  let cached = prior <> None in
  let coalesced = if cached then 1 else List.length jobs in
  List.iter
    (function
      | Jverify { skey; cell; _ } ->
          (* a witness is a property of the concrete network: only
             hand it to requests whose structural key matches the one
             that produced it (see Scache) *)
          let witness =
            if entry.Scache.skey = skey then entry.Scache.witness else None
          in
          Cell.fill cell
            { sorts = entry.Scache.sorts; witness; cached; coalesced; key }
      | Jeval _ -> assert false)
    jobs

let run_eval_group _t jobs =
  let nw =
    match List.hd jobs with Jeval { nw; _ } -> nw | Jverify _ -> assert false
  in
  let compiled = Cache.compile nw in
  let jobs = Array.of_list jobs in
  let masks =
    Array.map
      (function Jeval { mask; _ } -> mask | Jverify _ -> assert false)
      jobs
  in
  let out = Bitslice.eval_masks compiled masks in
  let len = Array.length masks in
  Metrics.add c_eval_passes ((len + Bitslice.lanes - 1) / Bitslice.lanes);
  Metrics.add c_eval_lanes len;
  Array.iteri
    (fun i o ->
      match jobs.(i) with
      | Jeval { cell; _ } -> Cell.fill cell o
      | Jverify _ -> assert false)
    out

let run_round t jobs =
  Metrics.incr c_rounds;
  let verifies, evals =
    List.partition (function Jverify _ -> true | Jeval _ -> false) jobs
  in
  List.iter
    (fun (key, group) -> run_verify_group t key group)
    (group_by (function Jverify { key; _ } -> key | Jeval _ -> assert false)
       verifies);
  List.iter
    (fun (_skey, group) -> run_eval_group t group)
    (group_by (function Jeval { skey; _ } -> skey | Jverify _ -> assert false)
       evals)

let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.c t.m
    done;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.m
    else begin
      (* linger so concurrently arriving requests join this round; no
         lingering during drain or in sequential mode *)
      if t.config.window > 0. && not t.stopping then begin
        Mutex.unlock t.m;
        Thread.delay t.config.window;
        Mutex.lock t.m
      end;
      let jobs = ref [] in
      let k = ref 0 in
      while (not (Queue.is_empty t.queue)) && !k < t.config.max_batch do
        jobs := Queue.pop t.queue :: !jobs;
        incr k
      done;
      Mutex.unlock t.m;
      Metrics.add c_queue_depth (- !k);
      run_round t (List.rev !jobs);
      loop ()
    end
  in
  loop ()

let create config =
  if config.max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  if config.domains < 1 then invalid_arg "Batcher.create: domains < 1";
  let t =
    { config;
      m = Mutex.create ();
      c = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      worker = None;
    }
  in
  t.worker <- Some (Thread.create worker_loop t);
  t

let submit t job =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    invalid_arg "Batcher: stopped"
  end
  else begin
    Queue.push job t.queue;
    Condition.signal t.c;
    Mutex.unlock t.m;
    Metrics.incr c_requests;
    Metrics.incr c_queue_depth
  end

let verify t nw =
  let skey = Scache.structural_key nw in
  let key = if t.config.cache = None then skey else Scache.key nw in
  match
    match t.config.cache with None -> None | Some c -> Scache.find c key
  with
  | Some entry ->
      (* response-cache fast path: no queue, no engine *)
      let witness =
        if entry.Scache.skey = skey then entry.Scache.witness else None
      in
      { sorts = entry.Scache.sorts; witness; cached = true; coalesced = 1; key }
  | None ->
      let cell = Cell.create () in
      submit t (Jverify { nw; skey; key; cell });
      Cell.wait cell

let eval01 t nw mask =
  let cell = Cell.create () in
  submit t (Jeval { nw; skey = Scache.structural_key nw; mask; cell });
  Cell.wait cell

let drain t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  match t.worker with
  | Some th ->
      Thread.join th;
      t.worker <- None
  | None -> ()
