(* Derive an exhaustion certificate from a search's frontier log. The
   driver only hands over the surviving states per level; every cover —
   the subsumption witness that justifies dropping each expanded child —
   is recomputed here on one arena, then the finished certificate is
   re-validated by the independent checker before it leaves this
   function. *)

let exhaustion ~n ~max_depth ~frontiers =
  if n < 2 || n > 10 then Error "cert emission supports n in [2, 10]"
  else if max_depth < 1 then Error "max_depth must be >= 1"
  else if List.length frontiers < max_depth - 1 then
    Error
      (Printf.sprintf "need %d logged frontiers for max-depth %d, got %d"
         (max_depth - 1) max_depth (List.length frontiers))
  else begin
    let frontiers =
      List.filteri (fun i _ -> i < max_depth - 1) frontiers
    in
    let matchings = Cert.all_matchings ~n in
    (* the certificate pool: initial state implicit at index 0, then
       every frontier state in file order, committed first so its rows
       are the arena's lowest; [first.(r)] is the first pool index
       holding row [r] *)
    let arena = Arena.create ~n () in
    let rows =
      Array.of_list
        (List.map
           (fun st ->
             Arena.stage_state arena st;
             match Arena.commit arena ~level:0 with `Fresh r | `Dup r -> r)
           (State.initial ~n :: List.concat frontiers))
    in
    let first = Array.make (Arena.length arena) max_int in
    Array.iteri (fun i r -> first.(r) <- min first.(r) i) rows;
    let identity = Array.init n Fun.id in
    (* among the first [pool_len] pool entries: the first identical
       one with the identity permutation, else the lowest-indexed
       subsumer *)
    let cover_of ~pool_len child =
      if child < Array.length first && first.(child) < pool_len then
        Some Cert.{ cite = first.(child); pi = identity }
      else
        let rec scan i =
          if i >= pool_len then None
          else
            match Arena.subsumes_perm arena rows.(i) child with
            | Some pi -> Some Cert.{ cite = i; pi }
            | None -> scan (i + 1)
        in
        scan 0
    in
    let exception Uncovered of string in
    try
      (* the parents of level l are the pool slice [lo, lo + parents),
         and the pool through level l covers its children *)
      let lo = ref 0 and parents = ref 1 and pool_len = ref 1 in
      let covers =
        List.mapi
          (fun li states ->
            let l = li + 1 in
            let len = List.length states in
            pool_len := !pool_len + len;
            let block = ref [] in
            for p = 0 to !parents - 1 do
              List.iteri
                (fun mi m ->
                  let fail what =
                    raise
                      (Uncovered
                         (Printf.sprintf "level %d parent %d matching %d: %s" l p
                            mi what))
                  in
                  Arena.stage_child arena ~parent:rows.(!lo + p) m;
                  if Arena.staged_is_sorted arena then
                    fail "child is sorted — not an exhaustion";
                  let child =
                    match Arena.commit arena ~level:l with `Fresh r | `Dup r -> r
                  in
                  match cover_of ~pool_len:!pool_len child with
                  | Some cv -> block := cv :: !block
                  | None -> fail "no pool entry subsumes the child")
                matchings
            done;
            lo := !pool_len - len;
            parents := len;
            List.rev !block)
          frontiers
      in
      let cert =
        Cert.Exhaustion
          { n;
            max_depth;
            frontiers =
              Array.of_list (List.map (List.map State.masks) frontiers);
            covers = Array.of_list covers }
      in
      match Cert.check cert with
      | Ok () -> Ok cert
      | Error e ->
          Error
            (Printf.sprintf "emitted certificate fails its own check: %s %s: %s"
               e.Cert.code e.Cert.where e.Cert.reason)
    with Uncovered why -> Error why
  end
