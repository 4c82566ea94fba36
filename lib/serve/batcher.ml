(* The request scheduler: gather / batch / scatter.

   Session threads block in [verify] / [eval01]; a single worker
   thread drains the queue in rounds. Each round lingers after its
   first arrival so concurrent clients land in it, then takes every
   pending job (up to [max_batch]) and runs them:

   - verify jobs are grouped by cache key: one bit-sliced 2^n sweep
     serves every request in the group (duplicates and isomorphic
     standard networks coalesce), and the verdict is published to the
     response cache so later resubmissions don't reach the engine at
     all;

   - eval jobs on 0-1 inputs are grouped by network and lane-packed
     into one Bitslice.eval_masks call, up to 64 unrelated clients'
     inputs per pass (one word-parallel execution of the compiled
     stream).

   The linger ends as soon as every request in flight (every caller
   inside [request]) has queued its job or finished, or after [window]
   seconds, whichever comes first. A session has at most one request
   in flight and each request queues at most one job, so once the
   queue holds as many jobs as there are requests in flight, nothing
   else can join the round until some client sends a new frame. A
   request still in flight may yet queue, so the round never closes
   before it does; the window bounds the wait for one that is slow to
   get there. Jobs from callers outside [request] are unknown traffic:
   with no request in flight a round waits out the whole window.
   Drain never lingers.

   Stdlib's Condition has no timed wait, so the worker lingers in
   Unix.select on a non-blocking self-pipe, and whoever completes the
   round (a submit, the exit of a request, a drain) writes the one
   byte that wakes it.

   Sequential mode — window 0, max_batch 1, no cache — degrades to
   one-request-per-pass and is the baseline the bench compares
   against.

   The worker is a thread, not a domain: it spends its life either
   blocked on the condition variable or inside the engine, and verify
   sweeps can still fan out across domains via [domains] (Zero_one
   releases the runtime lock per chunk). *)

type config = {
  window : float;  (* longest a round lingers after its first job *)
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
  mutable active : int;  (* callers inside [request] *)
  mutable lingering : bool;  (* the worker selects; no byte written yet *)
  mutable stopping : bool;
  mutable worker : Thread.t option;
  wake_r : Unix.file_descr;  (* self-pipe, both ends non-blocking *)
  wake_w : Unix.file_descr;
}

let c_requests = Metrics.counter "serve.batch.requests"
let c_rounds = Metrics.counter "serve.batch.rounds"
let c_queue_depth = Metrics.counter "serve.queue.depth"
let c_sweeps = Metrics.counter "serve.verify.sweeps"
let c_coalesced = Metrics.counter "serve.verify.coalesced"
let c_eval_passes = Metrics.counter "serve.eval.passes"
let c_eval_lanes = Metrics.counter "serve.eval.lanes"
let c_early_closes = Metrics.counter "serve.batch.early_closes"
let h_linger_ms = Metrics.histogram "serve.batch.linger_ms"

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

(* every request in flight has queued its job or finished *)
let complete t = t.active > 0 && Queue.length t.queue >= t.active

(* With [t.m] held: end the worker's select once the round is
   complete or the batcher drains. [lingering] is set only while the
   worker selects, and cleared by the one byte written, so the pipe
   never fills; a failed write leaves the window to end the linger. *)
let wake t =
  if t.lingering && (t.stopping || complete t) then begin
    t.lingering <- false;
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()
  end

(* With [t.m] held, when a round has its first job: wait until the
   round is complete, the batcher drains, or [window] runs out.
   Returns with [t.m] held and the pipe empty. *)
let linger t =
  let t0 = Clock.wall () in
  let close_at = t0 +. t.config.window in
  let rec wait () =
    if complete t then true
    else if t.stopping then false
    else
      let left = close_at -. Clock.wall () in
      if left <= 0. then false
      else begin
        t.lingering <- true;
        Mutex.unlock t.m;
        (* EINTR comes back round and recomputes [left]; any other
           failure ends the linger rather than the worker *)
        let waited =
          match Unix.select [ t.wake_r ] [] [] left with
          | _ -> true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
          | exception Unix.Unix_error _ -> false
        in
        Mutex.lock t.m;
        if t.lingering then t.lingering <- false
        else begin
          (* [wake] wrote its byte: take it out, or a round that a new
             request reopened would select on it in a busy loop *)
          try ignore (Unix.read t.wake_r (Bytes.create 1) 0 1)
          with Unix.Unix_error _ -> ()
        end;
        waited && wait ()
      end
  in
  if wait () then Metrics.incr c_early_closes;
  Metrics.observe h_linger_ms (1000. *. (Clock.wall () -. t0))

let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.c t.m
    done;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.m
    else begin
      (* no lingering during drain or in sequential mode *)
      if t.config.window > 0. && not t.stopping then linger t;
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
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    { config;
      m = Mutex.create ();
      c = Condition.create ();
      queue = Queue.create ();
      active = 0;
      lingering = false;
      stopping = false;
      worker = None;
      wake_r;
      wake_w;
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
    wake t;
    Mutex.unlock t.m;
    Metrics.incr c_requests;
    Metrics.incr c_queue_depth
  end

let request t f =
  Mutex.lock t.m;
  t.active <- t.active + 1;
  Mutex.unlock t.m;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock t.m;
      t.active <- t.active - 1;
      wake t;
      Mutex.unlock t.m)

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
  wake t;
  Mutex.unlock t.m;
  match t.worker with
  | Some th ->
      Thread.join th;
      t.worker <- None;
      Unix.close t.wake_r;
      Unix.close t.wake_w
  | None -> ()
