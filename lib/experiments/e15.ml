(* Static analysis of every library sorter: dead comparator counts
   and topology-conformance verdicts. The classics are expected to be
   fully live (zero dead gates) — every comparator earns its keep — and
   only the shuffle-based bitonic form should conform to the
   iterated-reverse-delta topology of Theorem 4.1. *)

let verdict (f : Analysis.facts) =
  match f.Analysis.sortedness with
  | Analysis.Sorting_proved -> "proved (exact)"
  | Analysis.Sorting_refuted _ -> "REFUTED"
  | Analysis.Sorted_by_bounds -> "proved (bounds)"
  | Analysis.Unknown -> "unknown"

let opt = function None -> "no" | Some k -> Printf.sprintf "yes (%d)" k

let run ~quick =
  Exp_util.header ~id:"E15"
    ~title:"static analysis of the classics: dead gates and conformance";
  let ns = if quick then [ 8 ] else [ 8; 16 ] in
  let tbl =
    Ascii_table.create
      ~columns:
        [ ("network", Ascii_table.Left);
          ("n", Ascii_table.Right);
          ("comparators", Ascii_table.Right);
          ("dead", Ascii_table.Right);
          ("sortedness", Ascii_table.Left);
          ("shuffle", Ascii_table.Left);
          ("rev-delta", Ascii_table.Left);
          ("delta", Ascii_table.Left) ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun e ->
          if not (e.Sorter_registry.pow2_only && not (Bitops.is_power_of_two n))
          then begin
            let nw = e.Sorter_registry.build n in
            let { Analysis.facts; _ } = Analysis.analyze nw in
            Ascii_table.add_row tbl
              [ e.Sorter_registry.name;
                string_of_int n;
                string_of_int facts.Analysis.comparators;
                string_of_int (List.length facts.Analysis.dead);
                verdict facts;
                opt facts.Analysis.shuffle_stages;
                opt facts.Analysis.reverse_delta_blocks;
                opt facts.Analysis.delta_blocks ]
          end)
        Sorter_registry.all)
    ns;
  Ascii_table.print tbl;
  Exp_util.footnote
    "dead gates by the exact 0-1 reachable-set domain for n <= 12, the \
     sound order-bounds domain above; 'unknown' at n = 16 is the bounds \
     domain declining to decide, not a refutation. The merge-based classics \
     (bitonic, odd-even merge, Pratt, transposition) are fully live — no \
     gate ever wasted — while the periodic and Shellsort families provably \
     carry dead comparators, the price of their oblivious periodic \
     structure. Only bitonic-shuffle — the register program flattened to a \
     circuit — is shuffle-based, though periodic's blocks also form the \
     (reverse) delta skeleton Theorem 4.1 needs."
