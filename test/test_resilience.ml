(* Crash-safety tests: CRC, atomic publication, the checkpoint
   envelope, fault injection, cooperative cancellation, and — the part
   that matters — kill-and-resume equivalence for the search driver,
   the shuffle search and the adversary. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_fault spec f =
  match Fault.set (Some spec) with
  | Error e -> Alcotest.fail ("fault spec rejected: " ^ e)
  | Ok () ->
      Fun.protect ~finally:(fun () -> ignore (Fault.set None)) f

let temp_path () =
  let path = Filename.temp_file "snlb" ".snap" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Atomic_file.backup_path path ]

let with_temp f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [f ()] with everything it prints to stderr captured *)
let capture_stderr f =
  let path = Filename.temp_file "snlb" ".err" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let err = read_file path in
  Sys.remove path;
  (v, err)

let c_resumes = Metrics.counter "checkpoint.resumes"
let c_failures = Metrics.counter "checkpoint.failures"

(* [f ()] and how far it moved counter [c] *)
let counted c f =
  let before = Metrics.value c in
  let v = f () in
  (v, Metrics.value c - before)

(* --- Crc32 --- *)

let test_crc_vectors () =
  check_int "empty" 0 (Crc32.string "");
  check_int "check vector" 0xCBF43926 (Crc32.string "123456789");
  check_int "single byte" 0xD202EF8D (Crc32.string "\x00")

let test_crc_incremental () =
  let a = "snlb checkpoint " and b = "payload bytes" in
  check_int "update composes" (Crc32.string (a ^ b))
    (Crc32.update (Crc32.update 0 a 0 (String.length a)) b 0 (String.length b));
  check_int "windowed" (Crc32.string "345")
    (Crc32.update 0 "123456789" 2 3)

let test_crc_sensitivity () =
  (* flipping any single bit of the input must change the checksum *)
  let s = "The quick brown fox jumps over the lazy dog" in
  let base = Crc32.string s in
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        if Crc32.string (Bytes.to_string b) = base then
          Alcotest.failf "collision at byte %d bit %d" i bit
      done)
    s

(* --- Atomic_file --- *)

let test_atomic_write_roundtrip () =
  with_temp @@ fun path ->
  (match Atomic_file.write ~path "first" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_string "content" "first" (read_file path);
  check_bool "no backup by default" false
    (Sys.file_exists (Atomic_file.backup_path path))

let test_atomic_write_backup_rotation () =
  with_temp @@ fun path ->
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Atomic_file.write ~backup:true ~path "v1");
  check_bool "no backup on first write" false
    (Sys.file_exists (Atomic_file.backup_path path));
  ok (Atomic_file.write ~backup:true ~path "v2");
  check_string "new content" "v2" (read_file path);
  check_string "previous version parked" "v1"
    (read_file (Atomic_file.backup_path path))

let test_atomic_write_fail_injection () =
  with_temp @@ fun path ->
  (match Atomic_file.write ~path "good" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  with_fault "ckpt-write-fail" @@ fun () ->
  (match Atomic_file.write ~path "bad" with
  | Ok () -> Alcotest.fail "injected write failure did not fire"
  | Error _ -> ());
  check_string "previous contents untouched" "good" (read_file path)

let test_atomic_truncate_injection () =
  with_temp @@ fun path ->
  with_fault "ckpt-truncate" @@ fun () ->
  (match Atomic_file.write ~path "0123456789" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_string "torn file published" "01234" (read_file path)

(* --- Checkpoint --- *)

let sample_ckpt =
  { Checkpoint.kind = "snlb-test";
    meta = [ ("n", "6"); ("tag", "layers") ];
    payload = "arbitrary \x00 binary \xff bytes" }

let test_checkpoint_roundtrip () =
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Checkpoint.read ~path with
  | Error e -> Alcotest.fail e
  | Ok ck ->
      check_string "kind" sample_ckpt.Checkpoint.kind ck.Checkpoint.kind;
      check_bool "meta" true (ck.Checkpoint.meta = sample_ckpt.Checkpoint.meta);
      check_string "payload" sample_ckpt.Checkpoint.payload ck.Checkpoint.payload

let test_checkpoint_rejects_any_corrupt_byte () =
  (* the acceptance bar from the issue: a checkpoint with any single
     corrupted byte is rejected cleanly *)
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let good = read_file path in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_file path (Bytes.to_string b);
      match Checkpoint.read ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "corrupted byte %d accepted" i)
    good

let test_checkpoint_rejects_any_truncation () =
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let good = read_file path in
  for len = 0 to String.length good - 1 do
    write_file path (String.sub good 0 len);
    match Checkpoint.read ~path with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
  done;
  (* trailing garbage is rejected too *)
  write_file path (good ^ "x");
  match Checkpoint.read ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let test_checkpoint_backup_fallback () =
  with_temp @@ fun path ->
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Checkpoint.write ~path sample_ckpt);
  ok (Checkpoint.write ~path { sample_ckpt with payload = "newer" });
  (* tear the primary; load must fall back to the previous version *)
  let torn = read_file path in
  write_file path (String.sub torn 0 (String.length torn / 2));
  (match Checkpoint.load ~path with
  | Ok (ck, `Backup _) ->
      check_string "backup payload" sample_ckpt.Checkpoint.payload
        ck.Checkpoint.payload
  | Ok (_, `Primary) -> Alcotest.fail "torn primary accepted"
  | Error e -> Alcotest.fail ("backup not used: " ^ e));
  (* with both copies gone, load reports an error instead of raising *)
  cleanup path;
  match Checkpoint.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing checkpoint loaded"

let test_checkpoint_write_retry () =
  (* seed 1 at prob 0.6 makes the first ckpt-write-fail draw fire and
     the second skip: the write fails once, the bounded retry lands *)
  with_temp (fun path ->
      with_fault "ckpt-write-fail:0.6:1" @@ fun () ->
      (match Checkpoint.write ~attempts:3 ~backoff_ms:1. ~path sample_ckpt with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("retry did not recover: " ^ e));
      match Checkpoint.read ~path with
      | Ok ck ->
          check_string "retried payload intact" sample_ckpt.Checkpoint.payload
            ck.Checkpoint.payload
      | Error e -> Alcotest.fail e);
  (* a persistent failure exhausts the budget and hard-fails *)
  with_temp (fun path ->
      with_fault "ckpt-write-fail" @@ fun () ->
      match Checkpoint.write ~attempts:3 ~backoff_ms:1. ~path sample_ckpt with
      | Error _ -> check_bool "nothing published" false (Sys.file_exists path)
      | Ok () -> Alcotest.fail "write claimed success under a permanent fault")

(* --- the resume contract --- *)

let sample_spec =
  { Checkpoint.kind = "snlb-test"; keys = [ ("n", "6"); ("tag", "layers") ]; step = "level" }

let write_sample path meta =
  match Checkpoint.write ~path { sample_ckpt with meta } with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_resume_accepts_matching_snapshot () =
  with_temp @@ fun path ->
  write_sample path [ ("n", "6"); ("tag", "layers"); ("level", "3") ];
  let (got, err), resumes =
    counted c_resumes @@ fun () ->
    capture_stderr @@ fun () ->
    Checkpoint.resume sample_spec (Some path) ~decode:(fun ~step p -> Ok (step, p))
  in
  check_bool "step and payload" true
    (got = Some (3, sample_ckpt.Checkpoint.payload));
  check_string "silent on success" "" err;
  check_int "resume counted" 1 resumes

let test_resume_refusals () =
  with_temp @@ fun path ->
  let refused ?(decode = fun ~step:_ p -> Ok p) ?(spec = sample_spec)
      ?(target = Some path) meta want =
    write_sample path meta;
    let (got, err), resumes =
      counted c_resumes @@ fun () ->
      capture_stderr @@ fun () -> Checkpoint.resume spec target ~decode
    in
    check_bool (want ^ ": refused") true (got = None);
    check_int (want ^ ": not counted") 0 resumes;
    check_string want (Printf.sprintf "snlb: cannot resume (%s); starting fresh\n" want) err
  in
  let ok_meta = [ ("n", "6"); ("tag", "layers"); ("level", "3") ] in
  refused ok_meta
    ~spec:{ sample_spec with kind = "snlb-other" }
    (Printf.sprintf "checkpoint %s holds a \"snlb-test\" snapshot, not \"snlb-other\"" path);
  refused [ ("n", "5"); ("tag", "layers"); ("level", "3") ]
    (Printf.sprintf "checkpoint %s has n=5, this run n=6" path);
  refused [ ("n", "6"); ("level", "3") ] (Printf.sprintf "checkpoint %s lacks tag" path);
  refused [ ("n", "6"); ("tag", "layers"); ("level", "x") ]
    (Printf.sprintf "checkpoint %s lacks a valid level" path);
  refused [ ("n", "6"); ("tag", "layers"); ("level", "-1") ]
    (Printf.sprintf "checkpoint %s lacks a valid level" path);
  refused ok_meta ~decode:(fun ~step:_ _ -> Error "short payload")
    (Printf.sprintf "checkpoint %s: short payload" path);
  refused ok_meta ~decode:(fun ~step:_ _ -> failwith "truncated object")
    (Printf.sprintf "checkpoint %s: undecodable payload (truncated object)" path);
  refused ok_meta ~target:None "no checkpoint path";
  cleanup path;
  (* a missing file is refused with the envelope's own reason *)
  let (got, err), _ =
    counted c_resumes @@ fun () ->
    capture_stderr @@ fun () ->
    Checkpoint.resume sample_spec (Some path) ~decode:(fun ~step:_ p -> Ok p)
  in
  check_bool "missing: refused" true (got = None);
  check_bool "missing: one refusal line" true
    (String.starts_with ~prefix:"snlb: cannot resume (cannot read checkpoint " err
    && List.length (String.split_on_char '\n' err) = 2)

let test_writer_cadence () =
  with_temp @@ fun path ->
  let read_step () =
    match Checkpoint.read ~path with
    | Ok ck -> List.assoc_opt "level" ck.Checkpoint.meta
    | Error _ -> None
  in
  (* no target: boundaries never build a payload *)
  let w = Checkpoint.writer sample_spec None in
  Checkpoint.boundary w ~step:1 (fun () -> Alcotest.fail "payload built without a target");
  Checkpoint.flush w;
  (* interval 0: every boundary is written, keys then step *)
  let w = Checkpoint.writer sample_spec (Some (path, 0.)) in
  Checkpoint.boundary w ~step:1 (fun () -> "one");
  (match Checkpoint.read ~path with
  | Ok ck ->
      check_bool "meta = keys @ step" true
        (ck.Checkpoint.meta = [ ("n", "6"); ("tag", "layers"); ("level", "1") ]);
      check_string "payload" "one" ck.Checkpoint.payload
  | Error e -> Alcotest.fail e);
  (* an interval that never falls due: only the flush writes, and only
     the newest boundary's payload is built *)
  let w = Checkpoint.writer sample_spec (Some (path, infinity)) in
  Checkpoint.boundary w ~step:2 (fun () -> Alcotest.fail "replaced boundary built");
  Checkpoint.boundary w ~step:3 (fun () -> "three");
  check_bool "nothing written off cadence" true (read_step () = Some "1");
  Checkpoint.flush w;
  check_bool "flush writes the newest boundary" true (read_step () = Some "3");
  Checkpoint.boundary w ~step:4 (fun () -> "four");
  Checkpoint.flush w;
  Checkpoint.flush w;
  check_bool "a second flush has nothing to write" true (read_step () = Some "4");
  (* a failed write is printed once, counted once and not retried *)
  let ((), err), failures =
    counted c_failures @@ fun () ->
    capture_stderr @@ fun () ->
    with_fault "ckpt-write-fail" @@ fun () ->
    let w = Checkpoint.writer sample_spec (Some (path, infinity)) in
    Checkpoint.boundary w ~step:5 (fun () -> "five");
    Checkpoint.flush w;
    Checkpoint.flush w
  in
  check_int "one failure counted" 1 failures;
  check_int "one failure printed" 1
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' err)));
  check_bool "failure line" true
    (String.starts_with ~prefix:"snlb: checkpoint write failed (" err);
  check_bool "previous snapshot kept" true (read_step () = Some "4")

(* --- Fault --- *)

let test_fault_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.set (Some spec) with
      | Ok () ->
          ignore (Fault.set None);
          Alcotest.failf "accepted %S" spec
      | Error _ -> ())
    [ ""; "no-such-point"; "kill-level:2.0"; "kill-level:x";
      "kill-level:0.5:x"; "kill-level:0.5:1:extra" ]

let test_fault_probability_boundaries () =
  (* out-of-range probabilities must be rejected loudly, never
     clamped or silently accepted — in every spec shape *)
  let rejected spec =
    match Fault.set (Some spec) with
    | Ok () ->
        ignore (Fault.set None);
        Alcotest.failf "accepted out-of-range probability %S" spec
    | Error e ->
        check_bool (spec ^ ": error names the range") true
          (let range = "probability outside [0, 1]" in
           let n = String.length range in
           let rec has i =
             i + n <= String.length e && (String.sub e i n = range || has (i + 1))
           in
           has 0)
  in
  List.iter rejected
    [ "kill-gen:1.5"; "kill-gen:-0.001"; "kill-gen:1.0000001";
      "kill-gen:nan"; "kill-gen:inf"; "kill-gen:-inf";
      "kill-gen:1.5:42"; "kill-level:2"; "kill-block:-1:7" ];
  (* the closed boundaries themselves are legal *)
  List.iter
    (fun spec ->
      match Fault.set (Some spec) with
      | Ok () -> ignore (Fault.set None)
      | Error e -> Alcotest.failf "rejected boundary spec %S: %s" spec e)
    [ "kill-gen:0"; "kill-gen:0.0"; "kill-gen:1"; "kill-gen:1.0";
      "kill-gen:0.0:42"; "kill-gen:1.0:42" ];
  (* and behave as the degenerate schedules they name *)
  with_fault "kill-gen:1.0" (fun () ->
      check_bool "prob 1.0 always fires" true
        (List.for_all Fun.id (List.init 32 (fun _ -> Fault.fire "kill-gen"))));
  with_fault "kill-gen:0.0" (fun () ->
      check_bool "prob 0.0 never fires" false
        (List.mem true (List.init 32 (fun _ -> Fault.fire "kill-gen"))))

let test_fault_off_by_default () =
  ignore (Fault.set None);
  check_bool "inactive" true (Fault.active () = None);
  List.iter (fun p -> check_bool p false (Fault.fire p)) Fault.points

let test_fault_point_selectivity () =
  with_fault "kill-level" @@ fun () ->
  check_bool "configured point fires" true (Fault.fire "kill-level");
  check_bool "other points do not" false (Fault.fire "kill-block");
  check_bool "prob 1.0 fires every time" true (Fault.fire "kill-level")

let test_fault_probability_determinism () =
  let draw () =
    with_fault "kill-level:0.5:42" @@ fun () ->
    List.init 64 (fun _ -> Fault.fire "kill-level")
  in
  let a = draw () and b = draw () in
  check_bool "same seed, same schedule" true (a = b);
  check_bool "prob 0.5 fires sometimes" true (List.mem true a);
  check_bool "prob 0.5 skips sometimes" true (List.mem false a);
  with_fault "kill-level:0" @@ fun () ->
  check_bool "prob 0 never fires" false
    (List.mem true (List.init 64 (fun _ -> Fault.fire "kill-level")))

(* --- Cancel --- *)

let test_cancel_token () =
  let t = Cancel.create () in
  check_bool "fresh token" false (Cancel.cancelled t);
  Cancel.cancel t;
  check_bool "tripped" true (Cancel.cancelled t);
  Cancel.cancel t;
  check_bool "sticky" true (Cancel.cancelled t)

let test_cancelled_driver_interrupts () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  match Driver.optimal_depth ~cancel ~n:5 () with
  | Driver.Interrupted stats ->
      check_int "no levels completed" 0 stats.Driver.completed_levels
  | _ -> Alcotest.fail "pre-cancelled run must return Interrupted"

(* --- kill-and-resume equivalence --- *)

(* Run [step ~resume ()] repeatedly — each incarnation is killed by the
   injected fault and leaves a checkpoint — until it returns a final
   outcome; [bound] guards against a broken resume looping forever. *)
let rec resume_until_done ~bound ~step resume =
  if bound = 0 then Alcotest.fail "resume loop did not converge"
  else
    match step ~resume () with
    | `Done v -> v
    | `Again r -> resume_until_done ~bound:(bound - 1) ~step (Some r)

let stats_agree what (a : Driver.stats) (b : Driver.stats) =
  check_int (what ^ ": nodes") a.Driver.nodes b.Driver.nodes;
  check_int (what ^ ": pruned") a.Driver.pruned b.Driver.pruned;
  check_int (what ^ ": deduped") a.Driver.deduped b.Driver.deduped;
  check_int (what ^ ": subsumed") a.Driver.subsumed b.Driver.subsumed;
  check_bool (what ^ ": frontier sizes") true
    (a.Driver.frontier_sizes = b.Driver.frontier_sizes);
  check_int (what ^ ": completed levels") a.Driver.completed_levels
    b.Driver.completed_levels

let test_driver_kill_resume_equivalence () =
  (* n=5 free-layer search: 5 levels, killed at every boundary, so the
     run takes one level per incarnation; the final outcome must be
     byte-identical to an uninterrupted run *)
  let n = 5 in
  let fresh =
    match Driver.optimal_depth ~n () with
    | Driver.Sorted { depth; moves; stats } -> (depth, moves, stats)
    | _ -> Alcotest.fail "n=5 must certify"
  in
  with_temp @@ fun path ->
  let interrupted = ref 0 in
  let step ~resume () =
    let outcome, resumes =
      counted c_resumes @@ fun () ->
      with_fault "kill-level" @@ fun () ->
      Driver.optimal_depth ~resume:(resume <> None) ~checkpoint:(path, 0.) ~n ()
    in
    if resume <> None then check_int "resume succeeded" 1 resumes;
    match outcome with
    | Driver.Sorted { depth; moves; stats } -> `Done (depth, moves, stats)
    | Driver.Interrupted _ ->
        incr interrupted;
        `Again ()
    | _ -> Alcotest.fail "unexpected outcome under kill-level"
  in
  let fresh_depth, fresh_moves, fresh_stats = fresh in
  let depth, moves, stats = resume_until_done ~bound:10 ~step None in
  check_bool "killed at least twice" true (!interrupted >= 2);
  check_int "same depth" fresh_depth depth;
  check_bool "same witness" true (fresh_moves = moves);
  stats_agree "driver" fresh_stats stats

let test_driver_resume_describe_and_mismatch () =
  with_temp @@ fun path ->
  (* leave a checkpoint at the first boundary of an n=5 run *)
  (match
     with_fault "kill-level" @@ fun () ->
     Driver.optimal_depth ~checkpoint:(path, 0.) ~n:5 ()
   with
  | Driver.Interrupted _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt");
  (* an interval that never falls due leaves the snapshot as cut *)
  let resume_into ~n =
    capture_stderr @@ fun () ->
    Driver.optimal_depth ~checkpoint:(path, infinity) ~resume:true ~n ()
  in
  (* the snapshot resumes into its own run, which describes it *)
  let outcome, err = resume_into ~n:5 in
  check_string "describe mentions the tag"
    "snlb: resuming layers search, n=5, max_depth=5, next level 2\n" err;
  (match outcome with
  | Driver.Sorted { depth; _ } -> check_int "n=5 resumed" 5 depth
  | _ -> Alcotest.fail "n=5 resume must certify");
  (* resuming into a different width degrades to a fresh run (and
     still certifies) rather than trusting a stale snapshot *)
  let outcome, err = resume_into ~n:4 in
  check_string "the refusal names the width"
    (Printf.sprintf
       "snlb: cannot resume (checkpoint %s has n=5, this run n=4); starting fresh\n"
       path)
    err;
  match outcome with
  | Driver.Sorted { depth; _ } -> check_int "n=4 fresh despite rs" 3 depth
  | _ -> Alcotest.fail "mismatched resume must fall back to fresh"

let test_min_depth_kill_resume_equivalence () =
  let fresh =
    match Min_depth.minimal_depth ~n:4 ~max_depth:3 () with
    | Min_depth.Minimal (d, prog) -> (d, prog)
    | _ -> Alcotest.fail "n=4 shuffle minimal depth must resolve"
  in
  with_temp @@ fun path ->
  let step ~resume () =
    let outcome, resumes =
      counted c_resumes @@ fun () ->
      with_fault "kill-level" @@ fun () ->
      Min_depth.minimal_depth ~resume:(resume <> None) ~checkpoint:(path, 0.) ~n:4
        ~max_depth:3 ()
    in
    if resume <> None then check_int "resume succeeded" 1 resumes;
    match outcome with
    | Min_depth.Minimal (d, prog) -> `Done (d, prog)
    | Min_depth.Stopped _ -> `Again ()
    | _ -> Alcotest.fail "unexpected outcome under kill-level"
  in
  let resumed = resume_until_done ~bound:10 ~step None in
  check_int "same minimal depth" (fst fresh) (fst resumed);
  check_bool "same witness" true (snd fresh = snd resumed)

let test_tag_guard_between_searches () =
  (* a shuffle-ops snapshot must not resume into the free-layer search:
     n and max_depth can coincide, only the tag tells them apart *)
  with_temp @@ fun path ->
  (match
     with_fault "kill-level" @@ fun () ->
     Min_depth.minimal_depth ~checkpoint:(path, 0.) ~n:4 ~max_depth:4 ()
   with
  | Min_depth.Stopped _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt the shuffle search");
  (match Checkpoint.read ~path with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let (outcome, err), resumes =
    counted c_resumes @@ fun () ->
    capture_stderr @@ fun () ->
    Driver.optimal_depth ~checkpoint:(path, infinity) ~resume:true ~max_depth:4
      ~n:4 ()
  in
  check_int "foreign snapshot not resumed" 0 resumes;
  check_string "the refusal names the tag"
    (Printf.sprintf
       "snlb: cannot resume (checkpoint %s has tag=shuffle-ops, this run \
        tag=layers); starting fresh\n"
       path)
    err;
  match outcome with
  | Driver.Sorted { depth; _ } ->
      check_int "fresh free-layer run despite foreign snapshot" 3 depth
  | _ -> Alcotest.fail "foreign snapshot must degrade to a fresh run"

let test_adversary_kill_resume_equivalence () =
  let it = Shuffle_net.to_iterated (Bitonic.shuffle_program ~n:16) in
  let fresh = Theorem41.run it in
  check_bool "uninterrupted baseline" false fresh.Theorem41.interrupted;
  with_temp @@ fun path ->
  let step ~resume () =
    let resume = resume <> None in
    let r =
      with_fault "kill-block" @@ fun () ->
      Theorem41.run ~checkpoint:path ~resume it
    in
    if r.Theorem41.interrupted then `Again () else `Done r
  in
  let resumed = resume_until_done ~bound:10 ~step None in
  check_int "same survived" fresh.Theorem41.survived resumed.Theorem41.survived;
  check_bool "same reports" true
    (fresh.Theorem41.reports = resumed.Theorem41.reports);
  check_bool "same final pattern" true
    (fresh.Theorem41.final_pattern = resumed.Theorem41.final_pattern);
  check_bool "same m-set" true
    (fresh.Theorem41.final_m_set = resumed.Theorem41.final_m_set);
  check_bool "same exhausted" true
    (fresh.Theorem41.exhausted = resumed.Theorem41.exhausted)

let test_adversary_counts_resumes () =
  let it = Shuffle_net.to_iterated (Bitonic.shuffle_program ~n:16) in
  with_temp @@ fun path ->
  let r =
    with_fault "kill-block" @@ fun () -> Theorem41.run ~checkpoint:path it
  in
  check_bool "kill-block interrupts" true r.Theorem41.interrupted;
  let r, resumes =
    counted c_resumes @@ fun () -> Theorem41.run ~checkpoint:path ~resume:true it
  in
  check_int "resume counted" 1 resumes;
  check_bool "resumed run completes" false r.Theorem41.interrupted

let test_adversary_counts_write_failures () =
  (* bitonic n=16: four blocks, one write each *)
  let it = Shuffle_net.to_iterated (Bitonic.shuffle_program ~n:16) in
  with_temp @@ fun path ->
  let (r, err), failures =
    counted c_failures @@ fun () ->
    capture_stderr @@ fun () ->
    with_fault "ckpt-write-fail" @@ fun () -> Theorem41.run ~checkpoint:path it
  in
  check_int "every block's failed write counted" 4 failures;
  check_int "and printed once" 4
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' err)));
  check_bool "run unaffected" false r.Theorem41.interrupted;
  check_bool "no checkpoint file left" false (Sys.file_exists path)

let test_search_survives_failing_checkpoint_writes () =
  with_temp @@ fun path ->
  let (outcome, _), failures =
    counted c_failures @@ fun () ->
    capture_stderr @@ fun () ->
    with_fault "ckpt-write-fail" @@ fun () ->
    Driver.optimal_depth ~checkpoint:(path, 0.) ~n:5 ()
  in
  check_int "every level boundary's failed write counted" 4 failures;
  (match outcome with
  | Driver.Sorted { depth; _ } ->
      check_int "verdict unaffected by write failures" 5 depth
  | _ -> Alcotest.fail "run must complete despite failing writes");
  check_bool "no checkpoint file left" false (Sys.file_exists path)

let test_search_recovers_from_torn_checkpoint () =
  with_temp @@ fun path ->
  (* one good boundary... *)
  (match
     with_fault "kill-level" @@ fun () ->
     Driver.optimal_depth ~checkpoint:(path, 0.) ~n:5 ()
   with
  | Driver.Interrupted _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt");
  (* ...then a torn publication over it: the primary is garbage but the
     atomic writer parked the good version as .bak *)
  (match
     with_fault "ckpt-truncate" @@ fun () ->
     Checkpoint.write ~path { sample_ckpt with payload = "next boundary" }
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let (outcome, err), resumes =
    counted c_resumes @@ fun () ->
    capture_stderr @@ fun () ->
    Driver.optimal_depth ~checkpoint:(path, infinity) ~resume:true ~n:5 ()
  in
  check_int "backup should have been used" 1 resumes;
  check_bool "the fallback is announced" true
    (String.starts_with
       ~prefix:
         (Printf.sprintf "snlb: falling back to checkpoint backup %s (invalid checkpoint"
            (Atomic_file.backup_path path))
       err);
  match outcome with
  | Driver.Sorted { depth; _ } -> check_int "resumed from backup" 5 depth
  | _ -> Alcotest.fail "resume from backup must certify"

let () =
  Alcotest.run "resilience"
    [ ( "crc32",
        [ Alcotest.test_case "standard vectors" `Quick test_crc_vectors;
          Alcotest.test_case "incremental update" `Quick test_crc_incremental;
          Alcotest.test_case "single-bit sensitivity" `Quick test_crc_sensitivity ] );
      ( "atomic-file",
        [ Alcotest.test_case "write/read" `Quick test_atomic_write_roundtrip;
          Alcotest.test_case "backup rotation" `Quick
            test_atomic_write_backup_rotation;
          Alcotest.test_case "injected write failure" `Quick
            test_atomic_write_fail_injection;
          Alcotest.test_case "injected torn write" `Quick
            test_atomic_truncate_injection ] );
      ( "checkpoint",
        [ Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "every corrupt byte rejected" `Quick
            test_checkpoint_rejects_any_corrupt_byte;
          Alcotest.test_case "every truncation rejected" `Quick
            test_checkpoint_rejects_any_truncation;
          Alcotest.test_case "backup fallback" `Quick
            test_checkpoint_backup_fallback;
          Alcotest.test_case "bounded write retry" `Quick
            test_checkpoint_write_retry;
          Alcotest.test_case "resume accepts a matching snapshot" `Quick
            test_resume_accepts_matching_snapshot;
          Alcotest.test_case "resume refusals: one line each" `Quick
            test_resume_refusals;
          Alcotest.test_case "writer cadence and failures" `Quick
            test_writer_cadence ] );
      ( "fault",
        [ Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "probability boundaries" `Quick
            test_fault_probability_boundaries;
          Alcotest.test_case "off by default" `Quick test_fault_off_by_default;
          Alcotest.test_case "point selectivity" `Quick
            test_fault_point_selectivity;
          Alcotest.test_case "probabilistic determinism" `Quick
            test_fault_probability_determinism ] );
      ( "cancel",
        [ Alcotest.test_case "token" `Quick test_cancel_token;
          Alcotest.test_case "driver honours token" `Quick
            test_cancelled_driver_interrupts ] );
      ( "kill-and-resume",
        [ Alcotest.test_case "driver equivalence" `Quick
            test_driver_kill_resume_equivalence;
          Alcotest.test_case "describe + width mismatch" `Quick
            test_driver_resume_describe_and_mismatch;
          Alcotest.test_case "shuffle search equivalence" `Quick
            test_min_depth_kill_resume_equivalence;
          Alcotest.test_case "tag guards cross-resume" `Quick
            test_tag_guard_between_searches;
          Alcotest.test_case "adversary equivalence" `Quick
            test_adversary_kill_resume_equivalence;
          Alcotest.test_case "adversary resume counted" `Quick
            test_adversary_counts_resumes;
          Alcotest.test_case "adversary write failures counted" `Quick
            test_adversary_counts_write_failures;
          Alcotest.test_case "failing writes don't fail the run" `Quick
            test_search_survives_failing_checkpoint_writes;
          Alcotest.test_case "torn checkpoint falls back to backup" `Quick
            test_search_recovers_from_torn_checkpoint ] ) ]
