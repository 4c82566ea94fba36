type t = {
  kind : string;
  meta : (string * string) list;
  payload : string;
}

let magic = "SNLBCKPT"
let version = 1

let c_writes = Metrics.counter "checkpoint.writes"
let c_bytes = Metrics.counter "checkpoint.bytes"
let c_retries = Metrics.counter "checkpoint.retries"
let h_write_ms = Metrics.histogram "checkpoint.write_ms"
let h_restore_ms = Metrics.histogram "checkpoint.restore_ms"

let add_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_lstring buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let encode t =
  let body = Buffer.create (String.length t.payload + 256) in
  add_u32 body version;
  add_lstring body t.kind;
  add_u32 body (List.length t.meta);
  List.iter
    (fun (k, v) ->
      add_lstring body k;
      add_lstring body v)
    t.meta;
  add_lstring body t.payload;
  let body = Buffer.contents body in
  let head = Buffer.create 12 in
  Buffer.add_string head magic;
  add_u32 head (Crc32.string body);
  Buffer.add_string head body;
  Buffer.contents head

let write ?(attempts = 3) ?(backoff_ms = 10.) ~path t =
  let t0 = Clock.wall () in
  let contents = encode t in
  let rec go attempt =
    match Atomic_file.write ~backup:true ~path contents with
    | Ok () ->
        Metrics.incr c_writes;
        Metrics.add c_bytes (String.length contents);
        Metrics.observe h_write_ms ((Clock.wall () -. t0) *. 1e3);
        Ok ()
    | Error _ as e ->
        if attempt >= attempts then e
        else begin
          Metrics.incr c_retries;
          Unix.sleepf
            (Float.min 1.0
               (backoff_ms *. (2. ** float_of_int (attempt - 1)) /. 1000.));
          go (attempt + 1)
        end
  in
  go 1

(* --- reading --- *)

exception Bad of string

let u32 s pos =
  if pos + 4 > String.length s then raise (Bad "truncated integer field");
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let lstring s pos =
  let len = u32 s pos in
  if pos + 4 + len > String.length s then raise (Bad "truncated string field");
  (String.sub s (pos + 4) len, pos + 4 + len)

let decode s =
  let mlen = String.length magic in
  if String.length s < mlen + 8 then raise (Bad "file too short");
  if String.sub s 0 mlen <> magic then raise (Bad "bad magic (not a checkpoint)");
  let stored_crc = u32 s mlen in
  let body_pos = mlen + 4 in
  let crc = Crc32.update 0 s body_pos (String.length s - body_pos) in
  if crc <> stored_crc then
    raise
      (Bad (Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" stored_crc crc));
  let v = u32 s body_pos in
  if v <> version then raise (Bad (Printf.sprintf "unsupported format version %d" v));
  let kind, pos = lstring s (body_pos + 4) in
  let nmeta = u32 s pos in
  if nmeta > 0xFFFF then raise (Bad "implausible meta count");
  let pos = ref (pos + 4) in
  let meta = ref [] in
  for _ = 1 to nmeta do
    let k, p = lstring s !pos in
    let v, p = lstring s p in
    meta := (k, v) :: !meta;
    pos := p
  done;
  let payload, pos = lstring s !pos in
  if pos <> String.length s then raise (Bad "trailing bytes after payload");
  { kind; meta = List.rev !meta; payload }

let read ~path =
  let t0 = Clock.wall () in
  let contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error m -> Error m
  in
  match contents with
  | Error m -> Error (Printf.sprintf "cannot read checkpoint %s: %s" path m)
  | Ok s -> (
      match decode s with
      | t ->
          Metrics.observe h_restore_ms ((Clock.wall () -. t0) *. 1e3);
          Ok t
      | exception Bad m ->
          Error (Printf.sprintf "invalid checkpoint %s: %s" path m))

let load ~path =
  match read ~path with
  | Ok t -> Ok (t, `Primary)
  | Error primary -> (
      match read ~path:(Atomic_file.backup_path path) with
      | Ok t -> Ok (t, `Backup primary)
      | Error backup -> Error (Printf.sprintf "%s; fallback also failed: %s" primary backup))

(* --- the resume contract --- *)

type spec = {
  kind : string;
  keys : (string * string) list;
  step : string;
}

let c_failures = Metrics.counter "checkpoint.failures"
let c_resumes = Metrics.counter "checkpoint.resumes"

(* The snapshot's boundary counter, once its kind and every key match
   the run it is resumed into: a snapshot of another width, depth cap,
   seed or move set describes a different run, and trusting it would
   be less safe than rerunning. *)
let check spec ~path (ck : t) =
  let meta k = List.assoc_opt k ck.meta in
  let rec keys = function
    | [] -> (
        match Option.bind (meta spec.step) int_of_string_opt with
        | Some s when s >= 0 -> Ok s
        | _ -> Error (Printf.sprintf "checkpoint %s lacks a valid %s" path spec.step))
    | (k, v) :: rest -> (
        match meta k with
        | Some v' when v' = v -> keys rest
        | Some v' ->
            Error (Printf.sprintf "checkpoint %s has %s=%s, this run %s=%s" path k v' k v)
        | None -> Error (Printf.sprintf "checkpoint %s lacks %s" path k))
  in
  if ck.kind <> spec.kind then
    Error
      (Printf.sprintf "checkpoint %s holds a %S snapshot, not %S" path ck.kind
         spec.kind)
  else keys spec.keys

let resume spec path ~decode =
  let decoded =
    let ( let* ) = Result.bind in
    let* path = Option.to_result ~none:"no checkpoint path" path in
    let* ck, source = load ~path in
    (match source with
    | `Primary -> ()
    | `Backup reason ->
        Printf.eprintf "snlb: falling back to checkpoint backup %s (%s)\n%!"
          (Atomic_file.backup_path path) reason);
    let* step = check spec ~path ck in
    match decode ~step ck.payload with
    | Ok _ as ok -> ok
    | Error why -> Error (Printf.sprintf "checkpoint %s: %s" path why)
    | exception (Failure why | Invalid_argument why) ->
        Error (Printf.sprintf "checkpoint %s: undecodable payload (%s)" path why)
  in
  match decoded with
  | Ok v ->
      Metrics.incr c_resumes;
      Some v
  | Error why ->
      Printf.eprintf "snlb: cannot resume (%s); starting fresh\n%!" why;
      None

type writer = {
  spec : spec;
  target : (string * float) option;
  mutable last : float; (* the cadence clock: creation, then each write *)
  mutable pending : (int * (unit -> string)) option;
}

let writer spec target =
  { spec; target; last = Clock.wall (); pending = None }

let flush w =
  match (w.target, w.pending) with
  | Some (path, _), Some (step, payload) ->
      w.pending <- None;
      let spec = w.spec in
      (match
         write ~path
           { kind = spec.kind;
             meta = spec.keys @ [ (spec.step, string_of_int step) ];
             payload = payload () }
       with
      | Ok () -> ()
      | Error e ->
          Metrics.incr c_failures;
          Printf.eprintf "snlb: checkpoint write failed (%s); run continues\n%!" e);
      w.last <- Clock.wall ()
  | _ -> ()

let boundary w ~step payload =
  match w.target with
  | None -> ()
  | Some (_, interval) ->
      w.pending <- Some (step, payload);
      if Clock.wall () -. w.last >= interval then flush w
