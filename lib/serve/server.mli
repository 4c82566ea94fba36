(** The serve driver: listen, accept, drain.

    Binds a Unix-domain or loopback-TCP endpoint, spawns one
    {!Session} thread per accepted connection, and shares one
    {!Batcher} (plus, unless disabled, one {!Scache}) across all of
    them — that sharing is what lets unrelated clients coalesce into
    common engine passes and cache entries.

    Shutdown is cooperative: the accept loop polls the {!Cancel}
    token between short [select] timeouts; once tripped (the CLI
    trips it from SIGINT/SIGTERM handlers) the server stops
    accepting, removes the endpoint, shuts down the read side of
    every live connection — each session finishes the request it
    already read, so in-flight batches flush — joins the sessions,
    and drains the batcher before returning. *)

type addr = Unix_path of string | Tcp of int
(** [Tcp] binds loopback only: the daemon has no authentication, so
    it must not listen on routable interfaces. *)

val addr_text : addr -> string

type config = {
  addr : addr;
  domains : int;  (** domains per verify sweep *)
  window : float;  (** batch gather window, seconds *)
  cache_capacity : int;  (** response-cache entries; 0 disables *)
  max_request : int;  (** frame payload cap, bytes *)
  max_wires : int;  (** width cap — sweeps are [2^wires] *)
  idle_timeout : float;
      (** seconds a session may sit idle before the reaper closes it
          with a typed [idle-timeout] error; [0.] disables *)
  request_deadline : float;
      (** seconds one request may take end to end before the session
          answers [deadline-exceeded] and closes; [0.] disables *)
}

val default_config : addr -> config
(** 1 domain, 2 ms window, 512 cache entries, 1 MiB frames, 16 wires,
    300 s idle timeout, 30 s request deadline. Whatever the config,
    batch rounds hold up to 256 jobs and lint uses the exact domain up
    to {!Analysis.default_exact_max_wires} wires. *)

val connect : addr -> Unix.file_descr
(** Client-side dial (the CLI client and tests).
    @raise Unix.Unix_error when nobody is listening. *)

val run :
  ?sink:Sink.t ->
  ?ready:(unit -> unit) ->
  cancel:Cancel.t ->
  config ->
  (unit, string) result
(** Serve until [cancel] trips, then drain; [ready] fires once the
    endpoint is accepting (the CLI prints its "listening" line there,
    so a caller watching stdout can start dialing). [Error] only for
    startup failures (endpoint in use, bind permission); a served
    lifetime always ends in [Ok ()] after a clean drain. Ignores
    SIGPIPE process-wide. *)
