let to_string nw =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "snlb-network 1\n";
  Buffer.add_string buf (Printf.sprintf "wires %d\n" (Network.wires nw));
  List.iter
    (fun lvl ->
      Buffer.add_string buf "level\n";
      (match lvl.Network.pre with
      | None -> ()
      | Some p ->
          Buffer.add_string buf "perm";
          Array.iter
            (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v))
            (Perm.to_array p);
          Buffer.add_char buf '\n');
      List.iter
        (fun g ->
          match g with
          | Gate.Compare { lo; hi } ->
              Buffer.add_string buf (Printf.sprintf "cmp %d %d\n" lo hi)
          | Gate.Exchange { a; b } ->
              Buffer.add_string buf (Printf.sprintf "xchg %d %d\n" a b))
        lvl.Network.gates)
    (Network.levels nw);
  Buffer.contents buf

type parse_level = { mutable pre : Perm.t option; mutable gates : Gate.t list }

(* the widest network a file may declare; nothing snlb builds comes
   near it, and [Network.create] allocates a byte per wire *)
let max_wires = 1 lsl 24

let of_string text =
  let lines = String.split_on_char '\n' text in
  let wires = ref None in
  let levels : parse_level list ref = ref [] in
  let current : parse_level option ref = ref None in
  (* [stamp.(w)] is the number of the last level with a gate on wire
     [w], so a reused wire is found in constant time; the array grows
     to the declared width at the first gate *)
  let stamp = ref [||] and level_count = ref 0 in
  let header_seen = ref false in
  let exception Fail of string in
  let fail line msg =
    raise (Fail (Printf.sprintf "line %d: %s" line msg))
  in
  let int_of line s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail line (Printf.sprintf "expected integer, got %S" s)
  in
  try
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then ()
        else
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ "snlb-network"; "1" ] -> header_seen := true
          | "snlb-network" :: v ->
              fail lineno ("unsupported format version: " ^ String.concat " " v)
          | [ "wires"; w ] ->
              if not !header_seen then fail lineno "missing snlb-network header";
              let w = int_of lineno w in
              if w > max_wires then
                fail lineno
                  (Printf.sprintf "wires %d exceeds the limit of %d" w max_wires);
              wires := Some w
          | [ "level" ] ->
              if !wires = None then fail lineno "level before wires";
              let lvl = { pre = None; gates = [] } in
              levels := lvl :: !levels;
              current := Some lvl;
              incr level_count
          | "perm" :: images -> (
              match !current with
              | None -> fail lineno "perm outside a level"
              | Some lvl ->
                  if lvl.pre <> None then fail lineno "duplicate perm in level";
                  if lvl.gates <> [] then fail lineno "perm must precede gates";
                  let arr = Array.of_list (List.map (int_of lineno) images) in
                  let w = Option.get !wires in
                  if Array.length arr <> w then
                    fail lineno
                      (Printf.sprintf "perm has %d entries, expected %d (wires)"
                         (Array.length arr) w);
                  let seen = Array.make w false in
                  Array.iter
                    (fun v ->
                      if v < 0 || v >= w then
                        fail lineno
                          (Printf.sprintf "perm entry %d out of range [0, %d)" v
                             w)
                      else if seen.(v) then
                        fail lineno
                          (Printf.sprintf "duplicate perm entry %d" v)
                      else seen.(v) <- true)
                    arr;
                  (match Perm.of_array arr with
                  | p -> lvl.pre <- Some p
                  | exception Invalid_argument m -> fail lineno m))
          | [ ("cmp" | "xchg") as kw; a; b ] -> (
              match !current with
              | None -> fail lineno (kw ^ " outside a level")
              | Some lvl ->
                  let a = int_of lineno a and b = int_of lineno b in
                  let w = Option.get !wires in
                  List.iter
                    (fun v ->
                      if v < 0 || v >= w then
                        fail lineno
                          (Printf.sprintf "%s wire %d out of range [0, %d)" kw v
                             w))
                    [ a; b ];
                  if a = b then fail lineno "gate wires must be distinct";
                  if Array.length !stamp < w then begin
                    let grown = Array.make w 0 in
                    Array.blit !stamp 0 grown 0 (Array.length !stamp);
                    stamp := grown
                  end;
                  let st = !stamp and l = !level_count in
                  if st.(a) = l || st.(b) = l then
                    fail lineno
                      (Printf.sprintf
                         "%s (%d, %d) reuses a wire already touched in this \
                          level"
                         kw a b);
                  st.(a) <- l;
                  st.(b) <- l;
                  let gate =
                    if kw = "cmp" then Gate.Compare { lo = a; hi = b }
                    else Gate.Exchange { a; b }
                  in
                  lvl.gates <- gate :: lvl.gates)
          | tokens ->
              fail lineno ("unrecognised directive: " ^ String.concat " " tokens))
      lines;
    match !wires with
    | None -> Error "missing 'wires' declaration"
    | Some w -> (
        let lvls =
          List.rev_map
            (fun l -> { Network.pre = l.pre; gates = List.rev l.gates })
            !levels
        in
        match Network.create ~wires:w lvls with
        | nw -> Ok nw
        | exception Invalid_argument m -> Error m)
  with Fail m -> Error m

let save path nw = Atomic_file.write ~backup:false ~path (to_string nw)

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_string (In_channel.input_all ic))
