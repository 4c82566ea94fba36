(* Per-connection request loop.

   One thread per connection reads frames, parses and validates
   requests, dispatches — verify and 0-1 eval block in the batcher so
   concurrent connections coalesce into shared engine passes; lint,
   certify and general eval run inline — and writes one response
   frame per request. The session thread is its connection's only
   writer, so no write lock is needed.

   Every request gets a server-assigned trace id ("c<conn>-r<seq>"),
   carried both in the response and on the request's span, so a
   --trace NDJSON capture correlates with what clients saw.

   Error handling is typed and connection-preserving where possible:
   bad JSON or a bad request gets an error response and the session
   continues; a framing violation (malformed or oversized) gets a
   best-effort error response and the connection is closed, because
   the stream position can no longer be trusted. *)

type config = {
  batcher : Batcher.t;
  max_request : int;  (* frame payload cap, bytes *)
  max_wires : int;  (* width cap (sweeps are 2^wires) *)
  idle_timeout : float;  (* seconds between requests; 0 disables *)
  request_deadline : float;  (* seconds per request; 0 disables *)
  sink : Sink.t;
}

let c_requests = Metrics.counter "serve.requests"
let c_errors = Metrics.counter "serve.errors"
let c_idle_closed = Metrics.counter "serve.idle_closed"
let c_deadline_expired = Metrics.counter "serve.deadline_expired"

let severity_json d = Json.Str (Diag.severity_name d.Diag.severity)

let diag_json d =
  let span_fields =
    match d.Diag.span with
    | None -> []
    | Some { Diag.level; gate } -> (
        [ ("level", Json.Int level) ]
        @ match gate with None -> [] | Some g -> [ ("gate", Json.Int g) ])
  in
  Json.Obj
    (("code", Json.Str d.Diag.code)
    :: ("severity", severity_json d)
    :: (span_fields @ [ ("message", Json.Str d.Diag.message) ]))

let sortedness_json = function
  | Analysis.Sorting_proved -> Json.Str "sorting-proved"
  | Analysis.Sorting_refuted _ -> Json.Str "sorting-refuted"
  | Analysis.Sorted_by_bounds -> Json.Str "sorted-by-bounds"
  | Analysis.Unknown -> Json.Str "unknown"

let mask_of_input input =
  let ok = Array.for_all (fun v -> v = 0 || v = 1) input in
  if not ok then None
  else begin
    let m = ref 0 in
    Array.iteri (fun w v -> if v = 1 then m := !m lor (1 lsl w)) input;
    Some !m
  end

let input_of_mask ~wires m = Array.init wires (fun w -> (m lsr w) land 1)

let witness_fields = function
  | None -> []
  | Some w -> [ ("witness", Wire.ints_json w) ]

(* Proof-carrying responses: on request (want_cert), the verdict is
   accompanied by snlb-cert text the client can hand to the
   independent checker (`snlb check`). Emission is best-effort — a
   verdict the certificate emitters cannot back (e.g. bounds-domain
   undecided above the exact cutoff) reports a [cert_error] field, it
   never fails the request. *)
let cert_fields ~dead want nw =
  if not want then []
  else
    match Analysis_cert.sortedness nw with
    | Error e -> [ ("cert_error", Json.Str e) ]
    | Ok sc ->
        let dead_certs =
          if not dead then []
          else
            match Analysis_cert.dead_gates nw with
            | Ok (Some dc) -> [ dc ]
            | Ok None | Error _ -> []
        in
        [ ( "cert",
            Json.Str
              (String.concat "\n"
                 (List.map Cert.to_string (sc :: dead_certs))) ) ]

let dispatch config req nw =
  match req.Wire.verb with
  | Wire.Verify ->
      let r = Batcher.verify config.batcher nw in
      (* the cache key is internal (and long); clients get a digest
         that is still equal exactly when the keys are *)
      let key_digest = Digest.to_hex (Digest.string r.Batcher.key) in
      Ok
        ([ ("sorts", Json.Bool r.Batcher.sorts);
           ("cached", Json.Bool r.Batcher.cached);
           ("coalesced", Json.Int r.Batcher.coalesced);
           ("key", Json.Str key_digest);
         ]
        @ witness_fields r.Batcher.witness
        @ cert_fields ~dead:false req.Wire.want_cert nw)
  | Wire.Certify -> (
      (* uncached, unbatched, independently re-checked: the verdict a
         client can audit. Negative: the witness is re-evaluated
         through the interpretive Network.eval (not the engine that
         produced it). Positive: the whole 2^n sweep is re-run
         interpretively when the width allows. *)
      match Zero_one.verify ~domains:1 nw with
      | Error w ->
          let out = Network.eval nw w in
          Ok
            ([ ("sorts", Json.Bool false);
               ("rechecked", Json.Bool (not (Sortedness.is_sorted out)));
               ("output", Wire.ints_json out);
             ]
            @ witness_fields (Some w)
            @ cert_fields ~dead:false req.Wire.want_cert nw)
      | Ok () ->
          let cross =
            if Network.wires nw <= 20 then
              Some (Exhaustive.sorts_all_zero_one nw)
            else None
          in
          if cross = Some false then
            Error
              ( Wire.e_unsupported,
                "internal: engine and interpretive sweeps disagree" )
          else
            Ok
              ([ ("sorts", Json.Bool true);
                 ("cross_checked", Json.Bool (cross = Some true));
               ]
              @ cert_fields ~dead:false req.Wire.want_cert nw))
  | Wire.Lint ->
      let r = Analysis.analyze nw in
      let f = r.Analysis.facts in
      Ok
        ([ ("wires", Json.Int f.Analysis.wires);
           ("levels", Json.Int f.Analysis.levels);
           ("depth", Json.Int f.Analysis.depth);
           ("comparators", Json.Int f.Analysis.comparators);
           ("exchanges", Json.Int f.Analysis.exchanges);
           ("exact", Json.Bool f.Analysis.exact);
           ("sortedness", sortedness_json f.Analysis.sortedness);
           ("dead", Json.Int (List.length f.Analysis.dead));
           ("diags", Json.List (List.map diag_json r.Analysis.diags));
         ]
        @ cert_fields ~dead:true req.Wire.want_cert nw)
  | Wire.Eval -> (
      let input = Option.get req.Wire.input in
      if Array.length input <> Network.wires nw then
        Error
          ( Wire.e_bad_request,
            Printf.sprintf "input has %d values for %d wires"
              (Array.length input) (Network.wires nw) )
      else
        match mask_of_input input with
        | Some mask ->
            (* 0-1 input: through the batcher, lane-packed with other
               clients' inputs on the same network *)
            let out = Batcher.eval01 config.batcher nw mask in
            let wires = Network.wires nw in
            Ok
              [ ("output", Wire.ints_json (input_of_mask ~wires out));
                ("sorted", Json.Bool (Bitslice.mask_sorted ~wires out));
              ]
        | None ->
            (* general integers: one pass of the compiled engine *)
            let out = Compiled.eval (Cache.compile nw) input in
            Ok
              [ ("output", Wire.ints_json out);
                ("sorted", Json.Bool (Sortedness.is_sorted out));
              ])

let respond fd response = Frame.write fd (Json.to_string response)

let handle config ~conn fd =
  (* the reaper: a blocking read wakes with EAGAIN after the larger
     enabled timeout; Frame.read's own deadline (started at a frame's
     first byte) then narrows mid-frame stalls to request_deadline *)
  let rcv_timeout =
    match (config.idle_timeout > 0., config.request_deadline > 0.) with
    | true, _ -> config.idle_timeout
    | false, true -> config.request_deadline
    | false, false -> 0.
  in
  if rcv_timeout > 0. then (
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO rcv_timeout
    with Unix.Unix_error _ | Invalid_argument _ -> ());
  let deadline =
    if config.request_deadline > 0. then Some config.request_deadline else None
  in
  let reader = Frame.reader fd in
  let seq = ref 0 in
  let next_trace () =
    incr seq;
    Printf.sprintf "c%d-r%d" conn !seq
  in
  let rec loop () =
    match Frame.read ?deadline ~max:config.max_request reader with
    | Error Frame.Eof -> ()
    | Error (Frame.Timed_out Frame.Idle) ->
        (* nothing in flight: reap the session with a typed goodbye *)
        Metrics.incr c_idle_closed;
        respond fd
          (Wire.error_response ~id:Json.Null ~trace:(next_trace ())
             ~code:Wire.e_idle_timeout
             (Printf.sprintf "session idle for more than %gs; closing"
                rcv_timeout))
    | Error (Frame.Timed_out Frame.Stalled) ->
        (* the peer started a frame and stalled: the request missed
           its deadline and the stream position is untrusted *)
        Metrics.incr c_deadline_expired;
        respond fd
          (Wire.error_response ~id:Json.Null ~trace:(next_trace ())
             ~code:Wire.e_deadline "request not received in time; closing")
    | Error (Frame.Oversized n) ->
        (* the payload was not consumed: answer and close *)
        Metrics.incr c_errors;
        respond fd
          (Wire.error_response ~id:Json.Null ~trace:(next_trace ())
             ~code:Wire.e_oversized
             (Printf.sprintf "request of %d bytes exceeds the %d-byte cap" n
                config.max_request))
    | Error (Frame.Malformed msg) ->
        Metrics.incr c_errors;
        respond fd
          (Wire.error_response ~id:Json.Null ~trace:(next_trace ())
             ~code:Wire.e_malformed_frame msg)
    | Ok payload ->
        let trace = next_trace () in
        Metrics.incr c_requests;
        let t_req = Unix.gettimeofday () in
        let response =
          (* in flight until the response value exists, so a round
             lingering on this session's job closes once it queued *)
          Batcher.request config.batcher @@ fun () ->
          Span.run ~sink:config.sink ~name:"serve.request" @@ fun sp ->
          Span.add sp "trace" (Sink.Str trace);
          match Wire.parse_request payload with
          | Error (code, msg) ->
              Metrics.incr c_errors;
              Wire.error_response ~id:Json.Null ~trace ~code msg
          | Ok req -> (
              Span.add sp "verb" (Sink.Str (Wire.verb_name req.Wire.verb));
              match Wire.resolve_network ~max_wires:config.max_wires req with
              | Error (code, msg) ->
                  Metrics.incr c_errors;
                  Wire.error_response ~id:req.Wire.id ~trace ~code msg
              | Ok nw -> (
                  Span.add sp "wires" (Sink.Int (Network.wires nw));
                  match dispatch config req nw with
                  | Ok fields -> Wire.ok_response ~id:req.Wire.id ~trace fields
                  | Error (code, msg) ->
                      Metrics.incr c_errors;
                      Wire.error_response ~id:req.Wire.id ~trace ~code msg
                  | exception Invalid_argument _ ->
                      (* the batcher stopped under us: a request racing
                         the drain gets a typed answer, not a dead
                         socket; the connection closes right after *)
                      Metrics.incr c_errors;
                      Wire.error_response ~id:req.Wire.id ~trace
                        ~code:Wire.e_shutting_down "daemon is draining"))
        in
        if
          config.request_deadline > 0.
          && Unix.gettimeofday () -. t_req > config.request_deadline
        then begin
          (* processing overran: the client is told which request
             died and why, then the connection closes — holding the
             session (and its batcher slot) is not an option *)
          Metrics.incr c_deadline_expired;
          Metrics.incr c_errors;
          respond fd
            (Wire.error_response ~id:Json.Null ~trace ~code:Wire.e_deadline
               (Printf.sprintf "request exceeded the %gs deadline; closing"
                  config.request_deadline))
        end
        else begin
          respond fd response;
          loop ()
        end
  in
  (* a vanished peer (EPIPE on write, ECONNRESET on read) or a
     drain-time shutdown of our read side ends the session cleanly *)
  try loop () with Unix.Unix_error _ -> ()
