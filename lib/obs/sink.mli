(** Event sinks: where observability events go.

    An event is a wall-clock-stamped, named record with typed fields.
    Producers emit unconditionally; the sink decides the cost:
    {!null} drops everything (and {!enabled} lets hot code skip even
    building the field list), {!ndjson} streams one JSON object per
    line to a channel — the [--trace FILE] format — and {!memory}
    accumulates events for tests and in-process consumers. All sinks
    are domain-safe. *)

type value = Int of int | Float of float | Str of string

type event = {
  ts : float;  (** wall-clock stamp ({!Clock.wall}) *)
  ev : string;  (** event kind, e.g. ["span"] *)
  name : string;  (** hierarchical name, ["/"]-separated *)
  fields : (string * value) list;
}

type t

val null : t
(** Drops every event. *)

val ndjson : out_channel -> t
(** One JSON object per line, flushed per event so a consumer tailing
    the file sees live progress. Writes are serialised by a mutex. *)

val memory : unit -> t * (unit -> event list)
(** A sink plus a reader returning everything emitted so far, in
    emission order. *)

val tee : t -> t -> t
(** Emit to both (a [null] operand collapses away). *)

val enabled : t -> bool
(** [false] exactly for {!null}: lets producers skip building fields. *)

val emit : t -> ev:string -> name:string -> (string * value) list -> unit
(** Stamp with {!Clock.wall} and deliver. No-op on {!null}. *)

val add_escaped : Buffer.t -> string -> unit
(** Append a string's JSON escaping per RFC 8259, without the
    quotes: the one escaper of trace events, lint diagnostics and
    serve replies. *)

val to_json : event -> string
(** One-line JSON object: keys [ts], [ev], [name], then the fields
    (strings escaped per RFC 8259; non-finite floats serialise as 0). *)
