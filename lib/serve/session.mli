(** Per-connection request loop (one thread per connection).

    Reads frames, dispatches requests, writes responses — verify and
    0-1 eval through the {!Batcher} (so concurrent connections
    coalesce into shared engine passes), lint / certify / general
    eval inline. Each request runs inside {!Batcher.request} from its
    frame read until its response value exists, so a batch round
    stops waiting once every session's request has reached it. Each
    request gets a server-assigned trace id [c<conn>-r<seq>], present
    in the response and on the request's {!Span} (so a [--trace]
    capture correlates with client-side responses).

    Typed failures: protocol-level errors ([bad-json], [bad-request],
    [bad-network], [unsupported]) are answered and the connection
    lives on; framing violations ([malformed-frame],
    [oversized-request]) are answered best-effort and the connection
    is closed, since the stream position is no longer trustworthy.

    Timeouts close the same way — one typed error response, then the
    connection: a session idle past [idle_timeout] is reaped
    ([idle-timeout]), and a request that stalls mid-frame or whose
    processing overruns [request_deadline] answers
    [deadline-exceeded] — so one stalled client can never hold a
    session thread (and its batcher slot) forever. *)

type config = {
  batcher : Batcher.t;
  max_request : int;  (** frame payload cap, bytes *)
  max_wires : int;  (** width cap — sweeps are [2^wires] *)
  idle_timeout : float;
      (** seconds a session may sit between requests before it is
          reaped; [0.] disables the reaper *)
  request_deadline : float;
      (** seconds one request may take, first frame byte to response;
          [0.] disables. Enforced via [SO_RCVTIMEO] plus {!Frame}'s
          per-frame deadline on the read side, and an after-dispatch
          check on the processing side. *)
  sink : Sink.t;
}

val handle : config -> conn:int -> Unix.file_descr -> unit
(** Serve the connection until EOF, a framing violation, a timeout,
    or a peer / shutdown-induced I/O error. Does not close [fd] (the
    caller owns it). Never raises on connection-level I/O failures. *)
