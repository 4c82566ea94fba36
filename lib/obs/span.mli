(** Hierarchical timed spans.

    [run ~sink ~name f] times [f] and emits one ["span"] event when it
    returns, carrying [wall_s] and [cpu_s] plus any fields the body
    attached with {!add}. Nesting is tracked per thread (keyed by
    [Thread.id], since the systhreads of one domain share its
    [Domain.DLS]), so the event's [name] is the ["/"]-joined path of
    the spans enclosing it on the same thread — e.g. a {!Lemma41} span
    inside a {!Theorem41} block reports as ["adversary/block/lemma41"]
    — and spans opened concurrently on different threads or domains
    never interleave paths.

    A body that raises still closes its span: the event carries the
    fields attached so far plus an ["error"] field holding
    [Printexc.to_string] of the exception, the stack is popped, and
    the exception is re-raised with its original backtrace — so the
    trace of a failed run ends at the span that failed, and each
    enclosing span closes with the same error as it unwinds.

    With a disabled sink ({!Sink.null}) the body runs with no clock
    reads, no stack push and no allocation beyond the span handle —
    the instrumented hot paths cost nothing when nobody is watching. *)

type t

val add : t -> string -> Sink.value -> unit
(** Attach a field to the enclosing span's close event (emission
    order follows attachment order). No-op on a disabled sink. *)

val run : ?sink:Sink.t -> name:string -> (t -> 'a) -> 'a
