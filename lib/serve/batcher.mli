(** The request scheduler: gather / batch / scatter.

    Session threads block in {!verify} / {!eval01}; one worker thread
    drains the queue in rounds. A round lingers after its first
    arrival so concurrent clients land together, and closes as soon
    as every request in flight (see {!request}) has queued its job or
    finished, or after {!type-config.window} seconds, whichever comes
    first. Verify requests group by cache key — one bit-sliced
    [2^n] sweep serves every request in the group, and the verdict is
    published to the response cache — and 0-1 eval requests on the
    same network go to one {!Bitslice.eval_masks} call, up to
    {!Bitslice.lanes} per pass, unrelated clients filling unused lanes
    of one word-parallel batch. [window = 0., max_batch = 1,
    cache = None] is sequential one-request-per-pass mode, the bench
    baseline.

    Counters ([serve.batch.*], [serve.verify.*], [serve.eval.*],
    [serve.queue.depth]) land in the global {!Obs.Metrics} registry;
    [serve.batch.early_closes] counts rounds closed by the in-flight
    rule rather than the window, and the [serve.batch.linger_ms]
    histogram times each lingering round from the start of its linger
    (its first arrival, when the worker was idle) to its close. *)

type config = {
  window : float;
      (** longest a round lingers after its first job, in seconds; a
          round whose requests in flight have all queued closes
          sooner *)
  max_batch : int;  (** jobs per round; 1 = sequential mode *)
  domains : int;  (** domains per verify sweep *)
  cache : Scache.t option;  (** response cache; [None] = uncached *)
}

type verify_result = {
  sorts : bool;
  witness : int array option;
      (** failing 0-1 input; only present when it belongs to the
          requesting network itself (see {!Scache}) *)
  cached : bool;  (** served from the response cache, no engine work *)
  coalesced : int;  (** requests sharing this round's sweep ([>= 1]) *)
  key : string;  (** the cache key used *)
}

type t

val create : config -> t
(** Starts the worker thread.
    @raise Invalid_argument if [max_batch < 1] or [domains < 1]. *)

val request : t -> (unit -> 'a) -> 'a
(** [request t f] runs [f] counted as one request in flight, and
    releases the count when [f] returns or raises. A caller that makes
    at most one {!verify} or {!eval01} call inside [f], as a session
    does per frame, lets a lingering round close once every request in
    flight has queued or finished. Calls made outside any [request]
    are unknown traffic: with nothing in flight, their rounds wait out
    the whole window. *)

val verify : t -> Network.t -> verify_result
(** Blocking exact 0-1 verification. The caller's width guard is
    {!Wire.resolve_network}; the sweep is [2^wires]. Cache fast path
    first (no queue, no engine), then gather/batch/scatter.
    @raise Invalid_argument after {!drain}. *)

val eval01 : t -> Network.t -> int -> int
(** [eval01 t nw mask] evaluates one 0-1 input (bit [w] = wire [w]),
    lane-packed with whatever else the round gathered on the same
    network. Returns the output mask (through the network's output
    routing). @raise Invalid_argument after {!drain}. *)

val drain : t -> unit
(** Stop accepting, end any linger, finish every queued job, join the
    worker and close its self-pipe. Idempotent. *)

val sweeps : unit -> int
(** Current value of the [serve.verify.sweeps] counter (tests). *)

val eval_passes : unit -> int
(** Current value of the [serve.eval.passes] counter (tests). *)

val eval_lanes : unit -> int
(** Current value of the [serve.eval.lanes] counter; divided by
    [Bitslice.lanes * eval_passes] this is the lane-fill ratio (tests,
    bench). *)
