(* search-n9: the restricted optimal-depth system on 9 wires, searched
   exhaustively to depth 5 (the verdict is [Unsorted]). *)

open Util

let n = 9
let max_depth = 5
let domains = 2

(* The verdict must be an exhaustive [Unsorted] over all five levels,
   and the node and subsumed counts must repeat exactly across runs. *)
let check_outcome t counts = function
  | Driver.Unsorted s ->
      let c = (s.Driver.nodes, s.Driver.subsumed) in
      if !counts = None then counts := Some c;
      check t "search-n9: completed_levels = 5" (s.Driver.completed_levels = 5);
      check t "search-n9: node and subsumed counts repeat" (!counts = Some c);
      Some s
  | _ ->
      check t "search-n9: verdict is Unsorted" false;
      None

(* One checked unit: build the system, search, check. *)
let unit t counts =
  let t0 = now () in
  let sys = Driver.network_system ~n () in
  let t1 = now () in
  ignore (check_outcome t counts (Driver.run ~domains ~max_depth sys));
  (t1 -. t0, now () -. t0)

let setup_samples () =
  List.init 3 (fun _ -> snd (time (fun () -> Driver.network_system ~n ())))

let untraced ~seconds t =
  let counts = ref None in
  let extra = setup_samples () in
  let units = repeat ~seconds (fun () -> unit t counts) in
  let walls = List.map snd units in
  end_to_end ~walls ~setups:(extra @ List.map fst units)
    ~ops:(List.length walls) ~latency:(unit_latency walls) ~rss:(peak_rss_mb None) t

let counter name = float_of_int (Metrics.value (Metrics.counter name))

(* Mean per-call cost of the public arena operations, replayed over the
   level-3 frontier expanded by its live level-4 layers: one clock pair
   per parent row, never per call. Also returns the replay's whole stage
   + commit time, the search's level-4 staging and commits. *)
let arena_replay (sys : Driver.layer Driver.system) level3 =
  let a = Arena.create ~n () in
  let parents =
    List.map
      (fun st ->
        Arena.stage_state a st;
        let idx = match Arena.commit a ~level:3 with `Fresh i | `Dup i -> i in
        let red = sys.Driver.redundant_of ~level:4 st in
        (idx, List.filter (fun l -> not (red l)) (sys.Driver.moves_at ~level:4)))
      level3
  in
  let calls = List.fold_left (fun acc (_, ls) -> acc + List.length ls) 0 parents in
  let stage_s = ref 0. and stage_commit_s = ref 0. and fresh = ref [] in
  List.iter
    (fun (p, layers) ->
      let t0 = now () in
      List.iter (fun l -> Arena.stage_child a ~parent:p l) layers;
      let t1 = now () in
      List.iter
        (fun l ->
          Arena.stage_child a ~parent:p l;
          match Arena.commit a ~level:4 with
          | `Fresh i -> fresh := i :: !fresh
          | `Dup _ -> ())
        layers;
      stage_s := !stage_s +. (t1 -. t0);
      stage_commit_s := !stage_commit_s +. (now () -. t1))
    parents;
  let kept = List.map fst parents in
  let candidates = List.filteri (fun i _ -> i < 256) (List.rev !fresh) in
  let subsumes_s, subsumes_calls =
    List.fold_left
      (fun (s, c) cand ->
        let dt = snd (time (fun () -> List.iter (fun k -> ignore (Arena.subsumes a k cand)) kept)) in
        (s +. dt, c + List.length kept))
      (0., 0) candidates
  in
  let per_call_ns s c = if c = 0 then 0. else 1e9 *. s /. float_of_int c in
  ( [ m "arena.stage_child_ns" "ns" (per_call_ns !stage_s calls);
      m "arena.commit_ns" "ns" (per_call_ns (!stage_commit_s -. !stage_s) calls);
      m "arena.subsumes_ns" "ns" (per_call_ns subsumes_s subsumes_calls) ],
    !stage_commit_s )

let traced ~seconds:_ t =
  let counts = ref None in
  let _, wall_untraced = unit t counts in
  Metrics.reset ();
  let t0 = now () in
  let base = Driver.network_system ~n () in
  let t1 = now () in
  (* The wrappers keep [prune] physically equal to [Driver.no_prune]:
     the arena tests it with [!=]. [redundant_of] is counted, not timed
     per call; its cost comes from the bulk replay below. *)
  let moves_at_s = Array.make (max_depth + 1) 0. and calls = Atomic.make 0 in
  let sys =
    { base with
      Driver.moves_at =
        (fun ~level ->
          let r, dt = time (fun () -> base.Driver.moves_at ~level) in
          moves_at_s.(level) <- moves_at_s.(level) +. dt;
          r);
      redundant_of =
        (fun ~level st ->
          let f = base.Driver.redundant_of ~level st in
          fun l ->
            Atomic.incr calls;
            f l) }
  in
  let level_end = Array.make (max_depth + 1) nan in
  level_end.(0) <- t1;
  let frontiers = Hashtbl.create 8 in
  let outcome =
    Driver.run ~domains ~max_depth sys
      ~on_level:(fun ~level ~frontier:_ _ -> level_end.(level) <- now ())
      ~frontier_log:(fun ~level states -> Hashtbl.replace frontiers level states)
  in
  let stats = check_outcome t counts outcome in
  let wall_traced = now () -. t0 in
  let setup = t1 -. t0 in
  let levels = List.init max_depth (fun k -> level_end.(k + 1) -. level_end.(k)) in
  (* Σ levels + setup telescopes to the search's end, so this check
     guards only the work after it; the per-level check below is the one
     that ties the layer metrics to the wall *)
  consistency t
    (Printf.sprintf "search levels + setup (%.3f s) within 5%% of traced wall_s (%.3f s)"
       (sum levels +. setup) wall_traced)
    (Float.abs (sum levels +. setup -. wall_traced) <= 0.05 *. wall_traced);
  let arena_counters =
    List.map (fun c -> m c (if c = "arena.bytes" then "B" else "count") (counter c))
      [ "arena.states"; "arena.probes"; "arena.collisions"; "arena.resizes"; "arena.bytes" ]
  in
  (* analysis.redundant_of_s: every parent state of every level, with
     one clock pair per parent covering all of its moves *)
  let frontier l =
    if l = 0 then [ State.initial ~n ]
    else Option.value (Hashtbl.find_opt frontiers l) ~default:[]
  in
  let redundant_s = Array.make (max_depth + 1) 0. and replayed_calls = ref 0 in
  for l = 1 to max_depth do
    let moves = base.Driver.moves_at ~level:l in
    List.iter
      (fun st ->
        let dt =
          snd
            (time (fun () ->
                 let f = base.Driver.redundant_of ~level:l st in
                 List.iter (fun mv -> ignore (f mv)) moves))
        in
        redundant_s.(l) <- redundant_s.(l) +. dt;
        replayed_calls := !replayed_calls + List.length moves)
      (frontier (l - 1))
  done;
  consistency t "redundant_of replay makes exactly the search's calls"
    (!replayed_calls = Atomic.get calls);
  let arena_metrics, level4_arena_s = arena_replay base (frontier 3) in
  (* Each level's replayed layer costs must fit inside that level's
     time: redundant_of and moves_at on every level, plus the arena's
     staging and commits on level 4. Subsumption is left out: the
     search's subsumes calls are not countable from outside. *)
  List.iteri
    (fun k level_s ->
      let l = k + 1 in
      let parts =
        redundant_s.(l) +. moves_at_s.(l) +. (if l = 4 then level4_arena_s else 0.)
      in
      consistency t
        (Printf.sprintf "replayed layers of level %d (%.4f s) within 5%% of its time (%.4f s)" l
           parts level_s)
        (parts <= 1.05 *. level_s))
    levels;
  let search_metrics =
    match stats with
    | None -> []
    | Some s ->
        let candidates = s.Driver.subsumed + List.fold_left ( + ) 0 s.Driver.frontier_sizes in
        let f = float_of_int in
        [ m "search.nodes" "count" (f s.Driver.nodes);
          m "search.deduped" "count" (f s.Driver.deduped);
          m "search.subsumed" "count" (f s.Driver.subsumed);
          m "search.redundant" "count" (f s.Driver.redundant);
          m "search.peak_frontier" "count" (f s.Driver.peak_frontier);
          m "search.subsume_hit_ratio" "ratio"
            (if candidates = 0 then 0. else f s.Driver.subsumed /. f candidates) ]
  in
  List.mapi (fun k dt -> m (Printf.sprintf "search.level%d_s" (k + 1)) "s" dt) levels
  @ search_metrics @ arena_counters @ arena_metrics
  @ [ m "analysis.redundant_of_calls" "count" (float_of_int (Atomic.get calls));
      m "analysis.redundant_of_s" "s" (Array.fold_left ( +. ) 0. redundant_s);
      m "layers.moves_at_s" "s" (Array.fold_left ( +. ) 0. moves_at_s);
      m "trace.overhead_ratio" "ratio" (wall_traced /. wall_untraced) ]
