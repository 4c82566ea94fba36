(** The serve request/response model and its JSON binding.

    Each frame carries one JSON object. Requests name a verb
    ([verify] / [certify] / [lint] / [eval]), a network (inline snlb
    text via [network], or a registry sorter via [algo] + [n]), an
    arbitrary [id] echoed back verbatim, and for [eval] an [input]
    list. Responses echo [id], add a server-assigned [trace]
    correlation id and [ok]; failures carry an [error] object with a
    stable machine-readable [code]. The full protocol reference with
    examples lives in README.md. *)

type verb = Verify | Certify | Lint | Eval

val verb_name : verb -> string

type net_spec = Text of string | Algo of { algo : string; n : int }

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  verb : verb;
  net : net_spec;
  input : int array option;  (** [eval] only *)
  want_cert : bool;
      (** [verify]/[certify]/[lint] only: client asked for a
          proof-carrying certificate of the verdict (the response's
          [cert] field, snlb-cert text) *)
}

(** {1 Stable error codes} (append-only) *)

val e_malformed_frame : string
val e_oversized : string
val e_bad_json : string
val e_bad_request : string
val e_bad_network : string
val e_unsupported : string
val e_shutting_down : string

val e_idle_timeout : string
(** the session sat idle past the server's idle timeout; the server
    answers once with this code and closes the connection *)

val e_deadline : string
(** the request ran past the server's per-request deadline (stalled
    mid-frame, or processing overran); sent once, then the connection
    is closed *)

val parse_request : string -> (request, string * string) result
(** Parse one frame payload. [Error (code, message)] uses
    {!e_bad_json} for JSON-level failures and {!e_bad_request} /
    {!e_unsupported} for shape violations. *)

val resolve_network :
  max_wires:int -> request -> (Network.t, string * string) result
(** Build and validate the request's network: inline text through
    {!Network_io.of_string}, registry sorters through
    {!Sorter_registry} (with the power-of-two check), under the serve
    width cap — sweeps are [2^wires], so the cap is the denial-of-
    service guard ({!e_unsupported} beyond it). A registry width above
    the cap is refused before its network is built: [transposition]
    at a million wires would be half a trillion comparators. *)

val ints_json : int array -> Json.t

val ok_response : id:Json.t -> trace:string -> (string * Json.t) list -> Json.t

val error_response :
  id:Json.t -> trace:string -> code:string -> string -> Json.t
