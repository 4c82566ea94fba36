type severity = Error | Warning | Info

type span = { level : int; gate : int option }

type t = {
  code : string;
  severity : severity;
  span : span option;
  message : string;
}

let make ?span ~code ~severity message = { code; severity; span; message }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let span_text = function
  | None -> ""
  | Some { level; gate = None } -> Printf.sprintf "level %d: " level
  | Some { level; gate = Some g } -> Printf.sprintf "level %d gate %d: " level g

let to_text d =
  Printf.sprintf "%s[%s] %s%s" (severity_name d.severity) d.code
    (span_text d.span) d.message

(* Codes and messages are ASCII, but a file path can reach a message,
   so both go through the full RFC 8259 escaper. *)
let to_json d =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"code\":\"";
  Sink.add_escaped b d.code;
  Buffer.add_string b "\",\"severity\":\"";
  Buffer.add_string b (severity_name d.severity);
  Buffer.add_char b '"';
  (match d.span with
  | None -> ()
  | Some { level; gate } -> (
      Buffer.add_string b (Printf.sprintf ",\"level\":%d" level);
      match gate with
      | None -> ()
      | Some g -> Buffer.add_string b (Printf.sprintf ",\"gate\":%d" g)));
  Buffer.add_string b ",\"message\":\"";
  Sink.add_escaped b d.message;
  Buffer.add_string b "\"}";
  Buffer.contents b

let count ds sev = List.length (List.filter (fun d -> d.severity = sev) ds)

let codes =
  [
    ("SNL001", "file cannot be parsed as a network");
    ("SNL002", "network structure invalid (width, wiring)");
    ("SNL101", "descending comparator (non-standard form)");
    ("SNL102", "unconditional exchange element");
    ("SNL103", "channel untouched by any gate");
    ("SNL104", "gate-free level (pure routing or padding)");
    ("SNL201", "dead comparator: never exchanges on any reachable 0-1 input");
    (* SNL202 (redundant comparator) is retired and never reused: on
       any network prefix two distinct wires differ on some input. *)
    ("SNL203", "sortedness refuted (exact 0-1 domain, witness input)");
    ("SNL204", "sortedness proved (exact 0-1 domain)");
    ("SNL205", "sortedness proved (order-bounds domain)");
    ("SNL206", "exact 0-1 domain unavailable at this width; using bounds");
    ("SNL301", "shuffle-based: every stage pairs shuffle-adjacent registers");
    ("SNL302", "iterated reverse delta skeleton (paper Section 2)");
    ("SNL303", "delta skeleton (paper Section 2)");
    ("SNL999", "internal: analyzer verdict contradicts engine evaluation");
  ]

let describe c = List.assoc_opt c codes
