type block_report = {
  index : int;
  a_size : int;
  b_size : int;
  sets : int;
  d_size : int;
  paper_bound : float;
}

type result = {
  reports : block_report list;
  survived : int;
  final_pattern : Pattern.t;
  final_m_set : int list;
  exhausted : bool;
  interrupted : bool;
}

let log2f x = log x /. log 2.

let paper_bound ~n ~blocks =
  let lg = log2f (float_of_int n) in
  float_of_int n /. (lg ** (4. *. float_of_int blocks))

let depth_lower_bound ~n =
  let lg = log2f (float_of_int n) in
  lg *. lg /. (4. *. log2f lg)

let max_survivable_blocks ~n =
  let rec go d =
    if paper_bound ~n ~blocks:(d + 1) > 1. then go (d + 1) else d
  in
  go 0

(* --- per-block checkpointing --- *)

let checkpoint_kind = "snlb-adversary"

(* Everything the block loop needs to continue after the last fully
   processed block: the mutable adversary state, the reports so far,
   and the index of the next block to process. *)
type snapshot = {
  s_next : int;
  s_state : Mset.state;
  s_reports : block_report list;  (* reversed, as accumulated *)
  s_survived : int;
}

let run ?k ?policy ?(sink = Sink.null) ?cancel ?checkpoint ?(resume = false) it =
  let n = Iterated.n it in
  let k =
    match k with Some k -> k | None -> max 2 (Bitops.ceil_log2 n)
  in
  let blocks = Iterated.block_count it in
  let spec =
    { Checkpoint.kind = checkpoint_kind;
      keys =
        [ ("n", string_of_int n);
          ("k", string_of_int k);
          ("blocks", string_of_int blocks) ];
      step = "next" }
  in
  let snap : snapshot option =
    if not resume then None
    else
      Checkpoint.resume spec checkpoint ~decode:(fun ~step:_ payload ->
          Ok (Marshal.from_string payload 0))
  in
  (* interval 0: block counts are tiny, so every boundary is written *)
  let ckpt = Checkpoint.writer spec (Option.map (fun p -> (p, 0.)) checkpoint) in
  let st = match snap with Some s -> s.s_state | None -> Mset.create ~n ~k in
  let reports = ref (match snap with Some s -> s.s_reports | None -> []) in
  let survived = ref (match snap with Some s -> s.s_survived | None -> 0) in
  let first_block = match snap with Some s -> s.s_next | None -> 0 in
  let exhausted = ref true in
  let interrupted = ref false in
  let cancelled () =
    match cancel with Some t -> Cancel.cancelled t | None -> false
  in
  Span.run ~sink ~name:"adversary" @@ fun adv_sp ->
  (try
     List.iteri
       (fun index (b : Iterated.block) ->
         if index >= first_block then begin
           if cancelled () then begin
             interrupted := true;
             exhausted := false;
             raise Exit
           end;
           (* the per-block span must close before the early-exit raise,
              or the block's event would be swallowed with it *)
           let d_size =
             Span.run ~sink ~name:"block" @@ fun sp ->
             (match b.pre with
             | None -> ()
             | Some p -> Mset.apply_swap_level st p);
             let coll, stats = Lemma41.run ?policy ~sink st b.body in
             let chosen, d_size = Mset.best_set coll in
             Mset.rho_rename st coll chosen;
             reports :=
               { index;
                 a_size = stats.Lemma41.a_size;
                 b_size = stats.Lemma41.b_size;
                 sets = stats.Lemma41.sets;
                 d_size;
                 paper_bound = paper_bound ~n ~blocks:(index + 1) }
               :: !reports;
             Span.add sp "index" (Sink.Int index);
             Span.add sp "a_size" (Sink.Int stats.Lemma41.a_size);
             Span.add sp "b_size" (Sink.Int stats.Lemma41.b_size);
             Span.add sp "sets" (Sink.Int stats.Lemma41.sets);
             Span.add sp "d_size" (Sink.Int d_size);
             d_size
           in
           (* block boundary: persist progress before deciding to stop *)
           Checkpoint.boundary ckpt ~step:(index + 1) (fun () ->
               Marshal.to_string
                 { s_next = index + 1;
                   s_state = st;
                   s_reports = !reports;
                   s_survived =
                     (if d_size >= 2 then !survived + 1 else !survived) }
                 []);
           if d_size >= 2 then incr survived
           else begin
             exhausted := false;
             raise Exit
           end;
           (* simulated kill between blocks, after the boundary flush,
              so every incarnation advances exactly one block *)
           if index + 1 < blocks && (Fault.fire "kill-block" || cancelled ())
           then begin
             interrupted := true;
             exhausted := false;
             raise Exit
           end
         end)
       (Iterated.blocks it)
   with Exit -> ());
  Span.add adv_sp "n" (Sink.Int n);
  Span.add adv_sp "blocks" (Sink.Int (List.length !reports));
  Span.add adv_sp "survived" (Sink.Int !survived);
  (if !interrupted then
     Span.add adv_sp "outcome" (Sink.Str "interrupted"));
  { reports = List.rev !reports;
    survived = !survived;
    final_pattern = Array.copy st.Mset.input_sym;
    final_m_set = Pattern.m_set st.Mset.input_sym 0;
    exhausted = !exhausted;
    interrupted = !interrupted }
