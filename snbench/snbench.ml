(* snbench --workload W --seed N --seconds S --trace 0|1 --snlb PATH

   Runs one seeded, checked workload and prints its result as the last
   line of stdout. With --trace 0 the line carries the end-to-end
   metrics; with --trace 1 it carries every per-layer metric, 0 for the
   layers the workload does not run. PATH is the `snlb` executable the
   serve workload spawns. *)

(* The per-layer catalogue is BENCHMARK.json's [per_layer] list: every
   entry, measured or 0; a measured name missing from it is a benchmark
   bug. *)
let per_layer () =
  let str k j = Option.get (Option.bind (Json.member k j) Json.to_str) in
  match Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
      Option.get (Option.bind (Json.member "per_layer" j) Json.to_list)
      |> List.map (fun e -> (str "name" e, str "unit" e))

let complete measured =
  let catalogue = per_layer () in
  List.iter
    (fun x ->
      if not (List.mem_assoc x.Util.name catalogue) then
        failwith ("per-layer metric not in BENCHMARK.json: " ^ x.Util.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.Util.name = name) measured with
      | Some x -> x
      | None -> Util.m name unit_ 0.)
    catalogue

let workloads = [ "search-n9"; "serve-mix"; "evolve-n10"; "prove" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let snlb = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--snlb", Arg.Set_string snlb, "PATH the snlb executable (serve-mix)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "snbench --workload W --seed N --seconds S --trace 0|1 --snlb PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("snbench: unknown workload " ^ !workload);
    exit 2
  end;
  let t = Util.tally () in
  let seconds = !seconds and seed = !seed and snlb = !snlb in
  let metrics =
    match (!workload, !trace = 1) with
    | "search-n9", false -> W_search.untraced ~seconds t
    | "search-n9", true -> complete (W_search.traced ~seconds t)
    | "serve-mix", false -> W_serve.untraced ~snlb ~seed ~seconds t
    | "serve-mix", true -> complete (W_serve.traced ~snlb ~seed ~seconds t)
    | "evolve-n10", false -> W_evolve.untraced ~seed ~seconds t
    | "evolve-n10", true -> complete (W_evolve.traced ~seed ~seconds t)
    | _, false -> W_prove.untraced ~seed ~seconds t
    | _, true -> complete (W_prove.traced ~seed ~seconds t)
  in
  Printf.eprintf "snbench %s seed=%d trace=%d: %d checks, %d failed\n" !workload seed
    !trace t.Util.attempted t.Util.failed;
  if not (Util.emit t metrics) then exit 1
