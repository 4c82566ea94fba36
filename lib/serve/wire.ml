(* The serve request/response model and its JSON binding.

   One request per frame, one response per frame. A request is an
   object with:

     id       any JSON value; echoed verbatim in the response
     verb     "verify" | "certify" | "lint" | "eval"
     network  the network in snlb text format, OR
     algo,n   a registry sorter by name and width
     input    (eval only) the input values, one per wire
     cert     (verify/certify/lint) true to request a proof-carrying
              certificate for the verdict, in the snlb-cert text
              format `snlb check` validates

   A response carries the request [id], a server-assigned [trace] id
   (the correlation key into --trace NDJSON spans), [ok], and either
   verb-specific result fields or an [error] object with a stable
   machine-readable [code] and a human [message]. *)

type verb = Verify | Certify | Lint | Eval

let verb_name = function
  | Verify -> "verify"
  | Certify -> "certify"
  | Lint -> "lint"
  | Eval -> "eval"

type net_spec = Text of string | Algo of { algo : string; n : int }

type request = {
  id : Json.t;
  verb : verb;
  net : net_spec;
  input : int array option;
  want_cert : bool;
}

(* stable error codes (append-only, mirrored in README) *)
let e_malformed_frame = "malformed-frame"
let e_oversized = "oversized-request"
let e_bad_json = "bad-json"
let e_bad_request = "bad-request"
let e_bad_network = "bad-network"
let e_unsupported = "unsupported"
let e_shutting_down = "shutting-down"
let e_idle_timeout = "idle-timeout"
let e_deadline = "deadline-exceeded"

let request_of_json j =
  let ( let* ) = Result.bind in
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  let* verb =
    match Json.member "verb" j with
    | Some (Json.Str "verify") -> Ok Verify
    | Some (Json.Str "certify") -> Ok Certify
    | Some (Json.Str "lint") -> Ok Lint
    | Some (Json.Str "eval") -> Ok Eval
    | Some (Json.Str v) ->
        Error (e_unsupported, Printf.sprintf "unknown verb %S" v)
    | Some _ -> Error (e_bad_request, "verb must be a string")
    | None -> Error (e_bad_request, "missing verb")
  in
  let* net =
    match (Json.member "network" j, Json.member "algo" j) with
    | Some (Json.Str text), None -> Ok (Text text)
    | Some _, None -> Error (e_bad_request, "network must be a string")
    | None, Some (Json.Str algo) -> (
        match Option.bind (Json.member "n" j) Json.to_int with
        | Some n -> Ok (Algo { algo; n })
        | None -> Error (e_bad_request, "algo needs an integer n"))
    | None, Some _ -> Error (e_bad_request, "algo must be a string")
    | Some _, Some _ ->
        Error (e_bad_request, "give either network or algo, not both")
    | None, None -> Error (e_bad_request, "missing network (or algo/n)")
  in
  let* input =
    match Json.member "input" j with
    | None -> Ok None
    | Some (Json.List xs) -> (
        match
          List.map (fun x -> Option.get (Json.to_int x)) xs
        with
        | ints -> Ok (Some (Array.of_list ints))
        | exception Invalid_argument _ ->
            Error (e_bad_request, "input must be a list of integers"))
    | Some _ -> Error (e_bad_request, "input must be a list of integers")
  in
  let* want_cert =
    match Json.member "cert" j with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error (e_bad_request, "cert must be a boolean")
  in
  match (verb, input) with
  | Eval, None -> Error (e_bad_request, "eval needs an input")
  | (Verify | Certify | Lint), Some _ ->
      Error (e_bad_request, "input is only meaningful for eval")
  | Eval, Some _ when want_cert ->
      Error (e_bad_request, "cert is only meaningful for verify/certify/lint")
  | _ -> Ok { id; verb; net; input; want_cert }

let parse_request payload =
  match Json.of_string payload with
  | Error msg -> Error (e_bad_json, msg)
  | Ok j -> request_of_json j

(* Resolve the network spec to a validated Network.t, enforcing the
   serve width cap (sweeps are 2^wires — the cap is the DoS guard). *)
let resolve_network ~max_wires req =
  let unsupported_width w =
    Error
      ( e_unsupported,
        Printf.sprintf "network has %d wires; this server caps at %d" w max_wires )
  in
  let built =
    match req.net with
    | Text text -> (
        match Network_io.of_string text with
        | Ok nw -> Ok nw
        | Error e -> Error (e_bad_network, e))
    | Algo { algo; n } -> (
        match Sorter_registry.find algo with
        | None ->
            Error
              ( e_bad_network,
                Printf.sprintf "unknown algo %S; try: %s" algo
                  (String.concat ", " Sorter_registry.names) )
        | Some entry ->
            if n < 2 then Error (e_bad_network, "n must be at least 2")
            else if entry.pow2_only && not (Bitops.is_power_of_two n) then
              Error
                ( e_bad_network,
                  Printf.sprintf "%s requires n to be a power of two" algo )
            else if n > max_wires then unsupported_width n
            else
              match entry.build n with
              | nw -> Ok nw
              | exception Invalid_argument e -> Error (e_bad_network, e))
  in
  match built with
  | Ok nw when Network.wires nw > max_wires -> unsupported_width (Network.wires nw)
  | r -> r

(* --- responses --- *)

let ints_json a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

let ok_response ~id ~trace fields =
  Json.Obj (("id", id) :: ("trace", Json.Str trace) :: ("ok", Json.Bool true) :: fields)

let error_response ~id ~trace ~code msg =
  Json.Obj
    [ ("id", id);
      ("trace", Json.Str trace);
      ("ok", Json.Bool false);
      ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str msg) ]);
    ]
