(* Tests for the observability layer (lib/obs): clocks, the global
   metrics registry, sinks (memory and NDJSON), hierarchical spans, and
   the search driver's trace contract — per-level span deltas must sum
   to the run's final stats. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Clock --- *)

let test_clock_monotone () =
  let samples = List.init 1000 (fun _ -> Clock.wall ()) in
  let rec walk = function
    | a :: (b :: _ as rest) ->
        check_bool "wall never decreases" true (b >= a);
        walk rest
    | _ -> ()
  in
  walk samples;
  check_bool "cpu nonnegative" true (Clock.cpu () >= 0.)

(* --- Metrics --- *)

let test_counters () =
  let c = Metrics.counter "test.obs.counter" in
  let c' = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.add c' 41;
  (* interned: both handles hit the same cell *)
  check_int "interned handles share the cell" 42 (Metrics.value c);
  check_bool "registry lists it" true
    (List.mem_assoc "test.obs.counter" (Metrics.counters ()));
  Metrics.reset ();
  check_int "reset zeroes in place" 0 (Metrics.value c);
  Metrics.incr c;
  check_int "old handles keep recording after reset" 1 (Metrics.value c)

let test_histograms () =
  let h = Metrics.histogram "test.obs.hist" in
  Metrics.reset ();
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 1024.0 ];
  Metrics.observe h nan (* dropped *);
  let s = Metrics.snapshot h in
  check_int "count" 4 s.Metrics.count;
  check_bool "sum" true (abs_float (s.Metrics.sum -. 1031.) < 1e-9);
  check_bool "min" true (s.Metrics.min = 1.0);
  check_bool "max" true (s.Metrics.max = 1024.0);
  check_bool "mean" true (abs_float (Metrics.mean s -. 257.75) < 1e-9);
  check_int "buckets sum to count" 4
    (Array.fold_left ( + ) 0 s.Metrics.buckets);
  check_bool "summary rows expand the histogram" true
    (List.mem_assoc "test.obs.hist.count" (Obs.summary ()))

(* --- Sink --- *)

let test_memory_sink () =
  let sink, events = Sink.memory () in
  check_bool "memory sink is enabled" true (Sink.enabled sink);
  check_bool "null sink is disabled" false (Sink.enabled Sink.null);
  Sink.emit sink ~ev:"a" ~name:"first" [ ("x", Sink.Int 1) ];
  Sink.emit sink ~ev:"b" ~name:"second" [ ("y", Sink.Float 0.5) ];
  match events () with
  | [ e1; e2 ] ->
      check_string "order preserved" "first" e1.Sink.name;
      check_string "kinds" "b" e2.Sink.ev;
      check_bool "fields survive" true (e1.Sink.fields = [ ("x", Sink.Int 1) ]);
      check_bool "timestamps ordered" true (e2.Sink.ts >= e1.Sink.ts)
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)

let test_json_escaping () =
  let e =
    { Sink.ts = 1.5;
      ev = "span";
      name = "x";
      fields =
        [ ("s", Sink.Str "a\"b\\c\nd");
          ("f", Sink.Float infinity);
          ("i", Sink.Int (-3)) ] }
  in
  let j = Sink.to_json e in
  check_bool "quote escaped" true
    (String.length (String.concat "" (String.split_on_char '"' j)) < String.length j);
  let contains sub =
    let n = String.length j and m = String.length sub in
    let rec go i = i + m <= n && (String.sub j i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "backslash-quote" true (contains {|a\"b|});
  check_bool "backslash-backslash" true (contains {|b\\c|});
  check_bool "newline escaped" true (contains {|c\nd|});
  check_bool "non-finite float serialises as 0" true (contains "\"f\":0");
  check_bool "negative int" true (contains "\"i\":-3")

let test_ndjson_sink () =
  let path = Filename.temp_file "snlb_obs" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Sink.ndjson oc in
      Sink.emit sink ~ev:"span" ~name:"p/q" [ ("n", Sink.Int 7) ];
      Sink.emit sink ~ev:"span" ~name:"p" [];
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | [ l1; l2 ] ->
          check_bool "one object per line" true
            (String.length l1 > 2
            && l1.[0] = '{'
            && l1.[String.length l1 - 1] = '}');
          let has s l =
            let n = String.length l and m = String.length s in
            let rec go i = i + m <= n && (String.sub l i m = s || go (i + 1)) in
            go 0
          in
          check_bool "name field" true (has "\"name\":\"p/q\"" l1);
          check_bool "payload field" true (has "\"n\":7" l1);
          check_bool "second line" true (has "\"name\":\"p\"" l2)
      | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls))

(* --- Span --- *)

let test_span_nesting () =
  let sink, events = Sink.memory () in
  let r =
    Span.run ~sink ~name:"outer" @@ fun outer ->
    Span.add outer "tag" (Sink.Str "o");
    Span.run ~sink ~name:"inner" (fun inner ->
        Span.add inner "k" (Sink.Int 1);
        17)
  in
  check_int "body result returned" 17 r;
  match events () with
  | [ inner; outer ] ->
      (* inner closes (and emits) first *)
      check_string "nested path" "outer/inner" inner.Sink.name;
      check_string "outer path" "outer" outer.Sink.name;
      check_bool "wall_s present" true
        (List.mem_assoc "wall_s" inner.Sink.fields);
      check_bool "cpu_s present" true (List.mem_assoc "cpu_s" inner.Sink.fields);
      check_bool "attached field" true
        (List.mem_assoc "tag" outer.Sink.fields)
  | es -> Alcotest.failf "expected 2 span events, got %d" (List.length es)

let test_span_disabled_and_exceptions () =
  (* disabled sink: body still runs, nothing recorded *)
  let hit = ref false in
  let v = Span.run ~name:"quiet" (fun _ -> hit := true; 3) in
  check_int "value through disabled span" 3 v;
  check_bool "body ran" true !hit;
  check_bool "disabled span re-raises" true
    (match Span.run ~name:"quiet" (fun _ -> failwith "q") with
     | exception Failure m -> m = "q"
     | _ -> false);
  let sink, events = Sink.memory () in
  (* a raising body closes every span it unwinds through with an error
     field, re-raises the original exception, and unwinds the path
     stack *)
  let raised =
    match
      Span.run ~sink ~name:"outer" (fun _ ->
          ignore
            (Span.run ~sink ~name:"boom" (fun sp ->
                 Span.add sp "k" (Sink.Int 1);
                 failwith "x"));
          ())
    with
    | exception Failure m -> m
    | () -> "no exception"
  in
  check_string "original exception re-raised" "x" raised;
  Span.run ~sink ~name:"after" (fun _ -> ());
  let error e = List.assoc_opt "error" e.Sink.fields in
  match events () with
  | [ boom; outer; after ] ->
      check_string "failing span path" "outer/boom" boom.Sink.name;
      check_bool "failing span carries the error" true
        (error boom = Some (Sink.Str (Printexc.to_string (Failure "x"))));
      check_bool "fields attached before the raise kept" true
        (List.assoc_opt "k" boom.Sink.fields = Some (Sink.Int 1));
      check_bool "wall_s on the error event" true
        (List.mem_assoc "wall_s" boom.Sink.fields);
      check_string "enclosing span path" "outer" outer.Sink.name;
      check_bool "enclosing span closes with the same error" true
        (error outer = error boom);
      check_string "stack unwound past the raise" "after" after.Sink.name;
      check_bool "clean span has no error" true (error after = None)
  | es -> Alcotest.failf "expected 3 events, got %d" (List.length es)

let test_span_thread_isolation () =
  (* concurrent threads must not see each other's open spans as
     parents: thread B's span runs while A's is open, and both paths
     must still be flat (regression: a Domain.DLS stack is shared by
     every systhread in the domain, so serve sessions interleaved
     into names like "serve.request/serve.request") *)
  let sink, events = Sink.memory () in
  let m = Mutex.create () and c = Condition.create () in
  let a_open = ref false and b_done = ref false in
  let a =
    Thread.create
      (fun () ->
        Span.run ~sink ~name:"a" (fun _ ->
            Mutex.lock m;
            a_open := true;
            Condition.broadcast c;
            while not !b_done do
              Condition.wait c m
            done;
            Mutex.unlock m))
      ()
  in
  let b =
    Thread.create
      (fun () ->
        Mutex.lock m;
        while not !a_open do
          Condition.wait c m
        done;
        Mutex.unlock m;
        Span.run ~sink ~name:"b" (fun _ -> ());
        Mutex.lock m;
        b_done := true;
        Condition.broadcast c;
        Mutex.unlock m)
      ()
  in
  Thread.join a;
  Thread.join b;
  let names = List.map (fun e -> e.Sink.name) (events ()) in
  check_bool "both spans emitted, neither nested under the other" true
    (List.sort compare names = [ "a"; "b" ])

(* --- Driver trace contract --- *)

let test_driver_trace_totals () =
  let sink, events = Sink.memory () in
  let on_level_frontiers = ref [] in
  let outcome =
    Driver.optimal_depth ~sink
      ~on_level:(fun ~level:_ ~frontier _ ->
        on_level_frontiers := frontier :: !on_level_frontiers)
      ~n:6 ()
  in
  let stats =
    match outcome with
    | Driver.Sorted { depth; stats; _ } ->
        check_int "n=6 optimum" 5 depth;
        stats
    | Driver.Unsorted _ | Driver.Inconclusive _ | Driver.Interrupted _ ->
        Alcotest.fail "n=6 must be certified"
  in
  let levels, finals =
    List.partition
      (fun e -> e.Sink.name = "search/level")
      (List.filter (fun e -> e.Sink.ev = "span") (events ()))
  in
  let int_field e k =
    match List.assoc_opt k e.Sink.fields with
    | Some (Sink.Int v) -> v
    | _ -> Alcotest.failf "field %s missing on %s" k e.Sink.name
  in
  let sum k = List.fold_left (fun acc e -> acc + int_field e k) 0 levels in
  check_int "one event per level" 5 (List.length levels);
  check_int "level node deltas sum to stats.nodes" stats.Driver.nodes
    (sum "nodes");
  check_int "level subsumed deltas sum" stats.Driver.subsumed (sum "subsumed");
  check_int "level deduped deltas sum" stats.Driver.deduped (sum "deduped");
  check_int "level pruned deltas sum" stats.Driver.pruned (sum "pruned");
  (match finals with
  | [ f ] ->
      check_string "closing search span" "search" f.Sink.name;
      check_int "closing totals agree" stats.Driver.nodes (int_field f "nodes")
  | fs -> Alcotest.failf "expected 1 search span, got %d" (List.length fs));
  (* the live callback saw each completed level's surviving frontier *)
  check_bool "on_level frontiers = stats.frontier_sizes" true
    (List.rev !on_level_frontiers = stats.Driver.frontier_sizes)

let () =
  Alcotest.run "obs"
    [ ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms ] );
      ( "sink",
        [ Alcotest.test_case "memory" `Quick test_memory_sink;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "ndjson file" `Quick test_ndjson_sink ] );
      ( "span",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled + exceptions" `Quick
            test_span_disabled_and_exceptions;
          Alcotest.test_case "thread isolation" `Quick
            test_span_thread_isolation ] );
      ( "driver",
        [ Alcotest.test_case "trace totals = final stats" `Quick
            test_driver_trace_totals ] ) ]
