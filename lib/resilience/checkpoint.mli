(** Versioned, checksummed checkpoint container files.

    A checkpoint is an opaque payload (the writer's serialized
    progress) wrapped in a self-validating binary envelope and
    published atomically ({!Atomic_file}, with the previous version
    kept as [path ^ ".bak"]). The envelope:

    {v
    offset  size  field
    0       8     magic "SNLBCKPT"
    8       4     CRC-32 (big-endian) of every byte from offset 12 on
    12      4     format version (currently 1)
    16      4+k   kind: length-prefixed string, e.g. "snlb-search-driver"
    ..      ..    meta: count, then length-prefixed key/value pairs
    ..      4+p   payload: length-prefixed bytes
    v}

    All integers are unsigned 32-bit big-endian; nothing may follow
    the payload. {!read} re-derives the CRC over the tail, so {e any}
    single corrupted byte is caught: a flip in the magic fails the
    magic check, a flip in the CRC field itself or anywhere after it
    fails the checksum comparison. Torn files (truncated at any byte)
    fail the length or checksum checks. Validation never raises —
    every defect is an [Error] with a reason, so a crash mid-write can
    never take down the process that restarts afterwards.

    The [kind] string names the writer; the [meta] pairs carry the
    writer's compatibility keys, then its boundary counter. Only the
    resume contract below reads them.

    Observability: writes bump ["checkpoint.writes"] /
    ["checkpoint.bytes"] and time into the ["checkpoint.write_ms"]
    histogram; reads time into ["checkpoint.restore_ms"]. *)

type t = {
  kind : string;  (** writer identity, validated on resume *)
  meta : (string * string) list;  (** writer compatibility keys *)
  payload : string;  (** opaque serialized progress *)
}

val write :
  ?attempts:int -> ?backoff_ms:float -> path:string -> t -> (unit, string) result
(** Envelope, checksum and atomically publish, keeping any previous
    [path] as [path ^ ".bak"]. Never raises.

    Transient write failures (a full disk clearing up, an NFS blip, an
    injected ["ckpt-write-fail"]) are retried up to [attempts] times
    total (default 3) with exponential backoff starting at
    [backoff_ms] (default 10, doubling, capped at 1 s per sleep); each
    retry bumps the ["checkpoint.retries"] counter. After the budget
    the last error is returned unchanged — a permanently unwritable
    checkpoint still hard-fails the run. *)

val read : path:string -> (t, string) result
(** Read and validate one file: magic, version, structural lengths,
    CRC, no trailing bytes. Never raises. *)

val load : path:string -> (t * [ `Primary | `Backup of string ], string) result
(** {!read} [path]; if that fails for any reason (missing, torn,
    corrupted), fall back to [path ^ ".bak"]. [`Backup reason] reports
    why the primary was rejected so callers can warn; [Error] means
    both copies are unusable (the message covers both). *)

(** {1 The resume contract}

    Every long run — the exact search ({!Driver}, {!Min_depth}), the
    adversary ({!Theorem41}) and the GA ({!Evolve}) — checkpoints
    through one {!writer} and resumes through {!resume}. A run
    supplies only a {!spec} (its kind and compatibility keys) and its
    payload codec: a thunk that serializes a boundary, and a decoder
    that reads one back. *)

type spec = {
  kind : string;  (** the envelope kind, e.g. ["snlb-evolve-1"] *)
  keys : (string * string) list;
      (** compatibility keys, written in this order and each checked
          for equality before a payload is trusted *)
  step : string;
      (** the meta key of the boundary counter (a level, block or
          generation) written after the keys *)
}

val resume :
  spec -> string option -> decode:(step:int -> string -> ('a, string) result) ->
  'a option
(** [resume spec path ~decode] reads the snapshot at [path] back:
    {!load} (a [.bak] fallback prints [snlb: falling back to
    checkpoint backup <path>.bak (<why>)] to [stderr]), then the kind,
    every key of [spec] and a nonnegative [step] counter, then
    [decode ~step payload]. On success it bumps
    ["checkpoint.resumes"] and returns the payload. Any failure — no
    [path], an unreadable file, another kind, a key that differs or is
    missing, a payload [decode] refuses or raises [Failure] /
    [Invalid_argument] on — prints exactly one line, [snlb: cannot
    resume (<reason>); starting fresh], and returns [None]: resuming
    is never less safe than rerunning. *)

type writer
(** The newest unwritten boundary of one run and its write cadence. *)

val writer : spec -> (string * float) option -> writer
(** [writer spec target] writes [spec]'s snapshots to [target]'s path
    at most every [target]'s interval seconds ([0.] = every boundary),
    counted from the writer's creation, so the first write falls due
    one full interval into the run. Without a [target] every call is
    a no-op and no payload is ever built. *)

val boundary : writer -> step:int -> (unit -> string) -> unit
(** [boundary w ~step payload] records a consistent boundary; [step]
    is written as the spec's [step] key. It replaces any unwritten
    boundary and writes at once when the interval is due, so
    [payload] runs only for boundaries that get written: a skipped
    boundary costs a closure, not a serialization. *)

val flush : writer -> unit
(** Write the unwritten boundary, if any — called on interruption, so
    a stopped run loses at most its in-flight work. A failed write
    (after {!write}'s retries) is printed once, [snlb: checkpoint
    write failed (<why>); run continues], counted in
    ["checkpoint.failures"], and not retried: the run goes on, and
    the next boundary is written afresh. *)
