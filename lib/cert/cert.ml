type stage = { perm : int array; ops : string }
type cover = { cite : int; pi : int array }

type domain =
  | Reach_sets of int list array
  | Bounds_leq of (int * int) list array

type claim = Dead of { level : int; gate : int }

type t =
  | Sortedness of { network : Network.t; domain : domain }
  | Refutation of { network : Network.t; witness : int }
  | Dead_gates of {
      network : Network.t;
      sets : int list array;
      claims : claim list;
    }
  | Lower_bound of {
      n : int;
      stages : stage list;
      input : int array;
      twin : int array;
      wire0 : int;
      wire1 : int;
      value0 : int;
      value1 : int;
      m_set : int list;
    }
  | Exhaustion of {
      n : int;
      max_depth : int;
      frontiers : int list list array;
      covers : cover list array;
    }

type error = { code : string; where : string; reason : string }

(* stable error codes (append-only, mirrored in DESIGN.md) *)
let codes =
  [
    ("CRT001", "certificate text cannot be parsed");
    ("CRT002", "embedded network invalid");
    ("CRT101", "certificate structure invalid (missing/duplicate directive)");
    ("CRT102", "value out of range (mask, wire, level, permutation)");
    ("CRT201", "annotated set does not contain a level's image");
    ("CRT202", "final annotation does not prove sortedness");
    ("CRT203", "order fact not derivable by the bounds inference rules");
    ("CRT211", "refutation witness evaluates to a sorted output");
    ("CRT221", "dead claim not justified by the annotated set");
    ("CRT231", "lower-bound transcript structurally illegal");
    ("CRT232", "lower-bound witness values were compared");
    ("CRT233", "twin outputs differ beyond the witness swap");
    ("CRT234", "fooling-pair outputs are both sorted");
    ("CRT235", "lower-bound M-set values were compared");
    ("CRT241", "exhaustion cover cites an unavailable frontier entry");
    ("CRT242", "exhaustion cover permutation does not embed the cited state");
    ("CRT243", "a sorted state contradicts the claimed exhaustion");
    ("CRT244", "exhaustion cover count does not match the expansion");
  ]

let err code where fmt =
  Printf.ksprintf (fun reason -> Error { code; where; reason }) fmt

let kind_name = function
  | Sortedness _ -> "sortedness"
  | Refutation _ -> "refutation"
  | Dead_gates _ -> "dead"
  | Lower_bound _ -> "lower-bound"
  | Exhaustion _ -> "exhaustion"

(* --- mask primitives (the checker's own, not the engine's) --- *)

let is_sorted_mask ~n m =
  let k = Bitops.popcount m in
  m = ((1 lsl k) - 1) lsl (n - k)

let bit m w = (m lsr w) land 1

let permute_mask pi m =
  let img = ref 0 in
  let w = ref m in
  while !w <> 0 do
    let c = Bitops.floor_log2 (!w land - !w) in
    img := !img lor (1 lsl pi.(c));
    w := !w land (!w - 1)
  done;
  !img

let apply_perm_mask ~n p m =
  let img = ref 0 in
  for w = 0 to n - 1 do
    if bit m w = 1 then img := !img lor (1 lsl Perm.apply p w)
  done;
  !img

let apply_gate_mask m g =
  match g with
  | Gate.Compare { lo; hi } ->
      if bit m lo = 1 && bit m hi = 0 then m lxor ((1 lsl lo) lor (1 lsl hi))
      else m
  | Gate.Exchange { a; b } ->
      if bit m a <> bit m b then m lxor ((1 lsl a) lor (1 lsl b)) else m

let apply_level_mask ~n (lvl : Network.level) m =
  let m =
    match lvl.Network.pre with
    | None -> m
    | Some p -> apply_perm_mask ~n p m
  in
  List.fold_left apply_gate_mask m lvl.Network.gates

let eval_mask nw m =
  let n = Network.wires nw in
  List.fold_left (fun m lvl -> apply_level_mask ~n lvl m) m (Network.levels nw)

(* ascending comparator layer on a mask: pair (i, j) with i < j puts
   the minimum bit on wire i *)
let apply_matching_mask pairs m =
  List.fold_left
    (fun m (i, j) ->
      if bit m i = 1 && bit m j = 0 then m lxor ((1 lsl i) lor (1 lsl j))
      else m)
    m pairs

let all_matchings ~n =
  if n < 2 || n > 12 then invalid_arg "Cert.all_matchings: n must be in [2, 12]";
  let rec gen = function
    | [] -> [ [] ]
    | c :: rest ->
        let skip = gen rest in
        let paired =
          List.concat_map
            (fun d ->
              List.map
                (fun m -> (c, d) :: m)
                (gen (List.filter (fun x -> x <> d) rest)))
            rest
        in
        skip @ paired
  in
  List.sort compare (List.filter (fun m -> m <> []) (gen (List.init n Fun.id)))

let is_permutation a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      if v < 0 || v >= n || seen.(v) then false
      else begin
        seen.(v) <- true;
        true
      end)
    a

(* --- printing: one buffer, integers written digit by digit --- *)

(* the decimal digits of [-v] for [v <= 0]: counting on the negative
   side reaches [min_int] too *)
let rec add_digits b v =
  if v <= -10 then add_digits b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (v mod 10)))

let add_int b v =
  if v < 0 then begin
    Buffer.add_char b '-';
    add_digits b v
  end
  else add_digits b (-v)

let add_arg b v =
  Buffer.add_char b ' ';
  add_int b v

(* "word v1 v2 ...\n" *)
let add_line b word vs =
  Buffer.add_string b word;
  List.iter (add_arg b) vs;
  Buffer.add_char b '\n'

let add_array_line b word a =
  Buffer.add_string b word;
  Array.iter (add_arg b) a;
  Buffer.add_char b '\n'

let add_network b nw =
  Buffer.add_string b "network\n";
  Buffer.add_string b (Network_io.to_string nw);
  Buffer.add_string b "end-network\n"

let add_sets b sets =
  Array.iteri (fun l ms -> add_line b "set" ((l + 1) :: ms)) sets

let add_cert b c =
  Buffer.add_string b "snlb-cert 1\nkind ";
  Buffer.add_string b (kind_name c);
  Buffer.add_char b '\n';
  (match c with
  | Sortedness { network; domain } -> (
      add_network b network;
      match domain with
      | Reach_sets sets ->
          Buffer.add_string b "domain reach\n";
          add_sets b sets
      | Bounds_leq lvls ->
          Buffer.add_string b "domain bounds\n";
          Array.iteri
            (fun l pairs ->
              add_line b "leq"
                ((l + 1) :: List.concat_map (fun (i, j) -> [ i; j ]) pairs))
            lvls)
  | Refutation { network; witness } ->
      add_network b network;
      add_line b "witness" [ witness ]
  | Dead_gates { network; sets; claims } ->
      add_network b network;
      add_sets b sets;
      List.iter
        (fun (Dead { level; gate }) -> add_line b "dead" [ level; gate ])
        claims
  | Lower_bound { n; stages; input; twin; wire0; wire1; value0; value1; m_set }
    ->
      add_line b "n" [ n ];
      List.iter
        (fun st ->
          Buffer.add_string b "stage";
          Array.iter (add_arg b) st.perm;
          Buffer.add_char b ' ';
          Buffer.add_string b st.ops;
          Buffer.add_char b '\n')
        stages;
      add_array_line b "input" input;
      add_array_line b "twin" twin;
      add_line b "wires" [ wire0; wire1 ];
      add_line b "values" [ value0; value1 ];
      add_line b "mset" m_set
  | Exhaustion { n; max_depth; frontiers; covers } ->
      add_line b "n" [ n ];
      add_line b "max-depth" [ max_depth ];
      Array.iteri
        (fun l states ->
          add_line b "level" [ l + 1 ];
          List.iter (add_line b "state") states;
          List.iter
            (fun cv ->
              Buffer.add_string b "cover";
              add_arg b cv.cite;
              add_array_line b "" cv.pi)
            covers.(l))
        frontiers);
  Buffer.add_string b "end-cert\n"

let rec digits v = if v < 10 then 1 else 1 + digits (v / 10)

(* An upper bound on the printed size of a well-formed certificate,
   read off its array and list lengths, so that the buffer is allocated
   once instead of doubling up to twice the text: writing the n = 7
   depth-5 exhaustion certificate (83 MB) peaked at 558 MB with a
   doubling buffer and at 470 MB with this. A low bound only costs a
   resize. *)
let size_hint = function
  | Lower_bound { stages; input; _ } ->
      let ints k = 16 + (k * (1 + digits (Array.length input))) in
      List.fold_left
        (fun acc st -> acc + ints (Array.length st.perm) + String.length st.ops)
        (256 + (3 * ints (Array.length input)))
        stages
  | Exhaustion { n; frontiers; covers; _ } ->
      let count f = Array.fold_left (List.fold_left f) 0 in
      let mask = 1 + digits ((1 lsl max 0 (min n 62)) - 1) in
      let cite = digits (1 + count (fun k _ -> k + 1) frontiers) in
      256
      + count (fun k ms -> k + 8 + (List.length ms * mask)) frontiers
      + count
          (fun k cv ->
            let w = Array.length cv.pi in
            k + 8 + cite + (w * (1 + digits w)))
          covers
  | Sortedness _ | Refutation _ | Dead_gates _ -> 4096

let to_string c =
  let b = Buffer.create (size_hint c) in
  add_cert b c;
  Buffer.contents b

let output oc c =
  let b = Buffer.create (size_hint c) in
  add_cert b c;
  Buffer.output_buffer oc b

(* --- parsing ---

   The text is read in place. A line is an index range trimmed with
   [String.trim]'s character set; its tokens are the non-empty slices
   between single spaces, so a tab inside a line stays part of its
   token. A token of 1 to 18 decimal digits is read where it lies, and
   any other goes through [int_of_string_opt] on a copy. Each
   certificate's body is walked twice: once over line boundaries to find
   its end-cert line and network block, whose errors come first, then
   once more to read its directives straight into their values. *)

exception Fail of error

let fail code lineno fmt =
  Printf.ksprintf
    (fun reason ->
      raise (Fail { code; where = Printf.sprintf "line %d" lineno; reason }))
    fmt

type cursor = {
  text : string;
  mutable pos : int;  (** start of the next line; past the text's end after the last *)
  mutable line : int;  (** the next line's number, from 1 *)
  mutable ls : int;  (** the line last read, trimmed: [ls, le) *)
  mutable le : int;
  mutable ts : int;  (** the token last read: [ts, te); [te] is the token cursor *)
  mutable te : int;
  mutable bs : int;  (** a token set aside as not an integer, [bs, be); -1 if none *)
  mutable be : int;
}

let has_line c = c.pos <= String.length c.text

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Reads the line at [c.pos], puts the token cursor at its start and
   returns its number. *)
let read_line c =
  let text = c.text in
  let len = String.length text in
  let e = ref c.pos in
  while !e < len && String.unsafe_get text !e <> '\n' do
    incr e
  done;
  let s = ref c.pos and t = ref !e in
  while !s < !t && is_blank (String.unsafe_get text !s) do
    incr s
  done;
  while !t > !s && is_blank (String.unsafe_get text (!t - 1)) do
    decr t
  done;
  c.ls <- !s;
  c.le <- !t;
  c.te <- !s;
  c.pos <- !e + 1;
  let l = c.line in
  c.line <- l + 1;
  l

let skippable c = c.ls = c.le || String.unsafe_get c.text c.ls = '#'

let rec same_from text s word i =
  i = String.length word
  || String.unsafe_get text (s + i) = String.unsafe_get word i
     && same_from text s word (i + 1)

let range_is text s e word = e - s = String.length word && same_from text s word 0

let line_is c word = range_is c.text c.ls c.le word
let token_is c word = range_is c.text c.ts c.te word
let token c = String.sub c.text c.ts (c.te - c.ts)

(* Moves to the line's next token; false at its end. *)
let next_token c =
  let text = c.text and le = c.le in
  let p = ref c.te in
  while !p < le && String.unsafe_get text !p = ' ' do
    incr p
  done;
  if !p = le then false
  else begin
    c.ts <- !p;
    while !p < le && String.unsafe_get text !p <> ' ' do
      incr p
    done;
    c.te <- !p;
    true
  end

(* the number of tokens after the cursor, which stays put *)
let tokens_left c =
  let ts = c.ts and te = c.te in
  let k = ref 0 in
  while next_token c do
    incr k
  done;
  c.ts <- ts;
  c.te <- te;
  !k

(* an upper bound on the tokens after the cursor, capped at [n] *)
let room c n = max 0 (min n ((c.le - c.te + 1) / 2))

exception Not_int

(* the value of the decimal digits [i, e) after [acc]; -1 at any other
   character *)
let rec digits text i e acc =
  if i = e then acc
  else
    let d = Char.code (String.unsafe_get text i) - 48 in
    if d < 0 || d > 9 then -1 else digits text (i + 1) e ((10 * acc) + d)

(* the token's value as [int_of_string] reads it *)
let token_int c =
  let v = if c.te - c.ts <= 18 then digits c.text c.ts c.te 0 else -1 in
  if v >= 0 then v
  else match int_of_string_opt (token c) with Some v -> v | None -> raise Not_int

let int_of c lineno =
  match token_int c with
  | v -> v
  | exception Not_int ->
      fail "CRT001" lineno "expected integer, got %S" (token c)

(* the rest of the line as integers, in order *)
let[@tail_mod_cons] rec int_list c lineno =
  if next_token c then
    let v = int_of c lineno in
    v :: int_list c lineno
  else []

(* Counts the tokens after the cursor, reads the first [limit] of them
   as integers and keeps those that fit in [a]. The first that is not an
   integer is set aside in [c.bs, c.be) for the caller to report after
   its own checks. *)
let read_ints c a limit =
  c.bs <- -1;
  let k = ref 0 in
  while next_token c do
    if !k < limit then begin
      match token_int c with
      | v -> if !k < Array.length a then a.(!k) <- v
      | exception Not_int ->
          if c.bs < 0 then begin
            c.bs <- c.ts;
            c.be <- c.te
          end
    end;
    incr k
  done;
  !k

let report_deferred c lineno =
  if c.bs >= 0 then
    fail "CRT001" lineno "expected integer, got %S"
      (String.sub c.text c.bs (c.be - c.bs))

(* The rest of the line as [expected] integers: every token is read
   before the count is checked. *)
let int_array c lineno what expected =
  let a = Array.make (room c expected) 0 in
  let k = read_ints c a max_int in
  report_deferred c lineno;
  if k <> expected then
    fail "CRT001" lineno "%s needs %d integers, got %d" what expected k;
  a

let skip_blanks c =
  let rec go () =
    if has_line c then begin
      let pos = c.pos and line = c.line in
      ignore (read_line c);
      if skippable c then go ()
      else begin
        c.pos <- pos;
        c.line <- line
      end
    end
  in
  go ()

(* Walks one certificate body from the cursor through its end-cert line,
   skipping blank and comment lines. [network lineno s e] gets the
   network line's number and the verbatim text [s, e) of its block,
   [directive lineno] every other line, with its first token read. *)
let walk_body c ~network ~directive =
  let seen_network = ref false in
  let rec go () =
    if not (has_line c) then
      fail "CRT001" (c.line - 1) "unterminated certificate (missing end-cert)";
    let lineno = read_line c in
    if skippable c then go ()
    else if line_is c "end-cert" then ()
    else if line_is c "network" then begin
      if !seen_network then fail "CRT101" lineno "duplicate network block";
      seen_network := true;
      let s = c.pos in
      let rec block () =
        if not (has_line c) then
          fail "CRT001" lineno "unterminated network block";
        let e = c.pos in
        ignore (read_line c);
        if line_is c "end-network" then e else block ()
      in
      let e = block () in
      network lineno s e;
      go ()
    end
    else begin
      ignore (next_token c);
      directive lineno;
      go ()
    end
  in
  go ()

let parse_network c kind_line = function
  | None -> fail "CRT101" kind_line "missing network block"
  | Some (lineno, s, e) -> (
      match Network_io.of_string (String.sub c.text s (e - s)) with
      | Ok nw -> nw
      | Error e -> fail "CRT002" lineno "embedded network invalid: %s" e)

(* sequential "set L ..." / "leq L ..." / "level L" numbering *)
let expect_seq lineno what expected l =
  if l <> expected then
    fail "CRT101" lineno "%s %d out of order (expected %s %d)" what l what
      expected

let unknown c kind lineno =
  let e = ref c.ls in
  while !e < c.le && String.unsafe_get c.text !e <> ' ' do
    incr e
  done;
  fail "CRT001" lineno "unrecognised directive %S in a %s certificate"
    (String.sub c.text c.ls (!e - c.ls))
    kind

(* "set L m..." after its keyword, into [sets] (newest first) *)
let read_set c lineno sets nsets =
  expect_seq lineno "set" (!nsets + 1) (int_of c lineno);
  sets := int_list c lineno :: !sets;
  incr nsets

let sortedness c kind_line net each =
  let network = parse_network c kind_line net in
  let reach = ref None (* [Some true]: domain reach; [Some false]: bounds *) in
  let sets = ref [] and nsets = ref 0 and leqs = ref [] and nleqs = ref 0 in
  each (fun lineno ->
      if token_is c "domain" && tokens_left c = 1 then begin
        ignore (next_token c);
        if not (token_is c "reach" || token_is c "bounds") then
          fail "CRT001" lineno "unknown domain %S" (token c);
        if !reach <> None then fail "CRT101" lineno "duplicate domain directive";
        reach := Some (token_is c "reach")
      end
      else if token_is c "set" && next_token c then read_set c lineno sets nsets
      else if token_is c "leq" && next_token c then begin
        expect_seq lineno "leq" (!nleqs + 1) (int_of c lineno);
        if tokens_left c mod 2 = 1 then
          fail "CRT001" lineno "leq needs an even number of wires";
        (* of several tokens that are not integers, the last is reported *)
        c.bs <- -1;
        let int () =
          match token_int c with
          | v -> v
          | exception Not_int ->
              c.bs <- c.ts;
              c.be <- c.te;
              0
        in
        let rec pairs acc =
          if next_token c then begin
            let i = int () in
            ignore (next_token c);
            let j = int () in
            pairs ((i, j) :: acc)
          end
          else List.rev acc
        in
        let ps = pairs [] in
        report_deferred c lineno;
        leqs := ps :: !leqs;
        incr nleqs
      end
      else unknown c "sortedness" lineno);
  let domain =
    match !reach with
    | Some true ->
        if !leqs <> [] then
          fail "CRT101" kind_line "leq lines in a reach-domain certificate";
        Reach_sets (Array.of_list (List.rev !sets))
    | Some false ->
        if !sets <> [] then
          fail "CRT101" kind_line "set lines in a bounds-domain certificate";
        Bounds_leq (Array.of_list (List.rev !leqs))
    | None -> fail "CRT101" kind_line "missing domain directive"
  in
  Sortedness { network; domain }

let refutation c kind_line net each =
  let network = parse_network c kind_line net in
  let witness = ref None in
  each (fun lineno ->
      if token_is c "witness" && tokens_left c = 1 then begin
        if !witness <> None then
          fail "CRT101" lineno "duplicate witness directive";
        ignore (next_token c);
        witness := Some (int_of c lineno)
      end
      else unknown c "refutation" lineno);
  match !witness with
  | Some witness -> Refutation { network; witness }
  | None -> fail "CRT101" kind_line "missing witness directive"

let dead c kind_line net each =
  let network = parse_network c kind_line net in
  let sets = ref [] and nsets = ref 0 and claims = ref [] in
  each (fun lineno ->
      if token_is c "set" && next_token c then read_set c lineno sets nsets
      else if token_is c "dead" && tokens_left c = 2 then begin
        ignore (next_token c);
        let level = int_of c lineno in
        ignore (next_token c);
        let gate = int_of c lineno in
        claims := Dead { level; gate } :: !claims
      end
      else unknown c "dead" lineno);
  if !claims = [] then
    fail "CRT101" kind_line "a dead certificate needs at least one claim";
  Dead_gates
    { network;
      sets = Array.of_list (List.rev !sets);
      claims = List.rev !claims }

(* "stage p_0 .. p_(n-1) ops" after its keyword: the token count, then
   the op string, then the images are checked *)
let read_stage c lineno nn =
  let perm = Array.make (room c nn) 0 in
  let k = read_ints c perm nn in
  if k <> nn + 1 || k = 0 then
    fail "CRT001" lineno "stage needs %d permutation images and an op string"
      nn;
  (* the cursor's token is the last one: the op string *)
  for i = c.ts to c.te - 1 do
    match String.unsafe_get c.text i with
    | '+' | '-' | '0' | '1' -> ()
    | ch -> fail "CRT001" lineno "bad op character %C" ch
  done;
  report_deferred c lineno;
  { perm; ops = token c }

let lower_bound c kind_line net each =
  if net <> None then
    fail "CRT101" kind_line
      "lower-bound certificates carry stages, not a network block";
  let n = ref None in
  let need_n lineno =
    match !n with
    | Some n -> n
    | None -> fail "CRT101" lineno "n must be declared first"
  in
  let stages = ref [] in
  let input = ref None and twin = ref None in
  let wires = ref None and values = ref None and mset = ref None in
  (* a directive's value is read before it is found to be a duplicate *)
  let once lineno what r v =
    if !r <> None then fail "CRT101" lineno "duplicate %s directive" what;
    r := Some v
  in
  each (fun lineno ->
      if token_is c "n" && tokens_left c = 1 then begin
        ignore (next_token c);
        once lineno "n" n (int_of c lineno)
      end
      else if token_is c "stage" then
        stages := read_stage c lineno (need_n lineno) :: !stages
      else if token_is c "input" then begin
        let nn = need_n lineno in
        once lineno "input" input (int_array c lineno "input" nn)
      end
      else if token_is c "twin" then begin
        let nn = need_n lineno in
        once lineno "twin" twin (int_array c lineno "twin" nn)
      end
      else if token_is c "wires" then
        once lineno "wires" wires (int_array c lineno "wires" 2)
      else if token_is c "values" then
        once lineno "values" values (int_array c lineno "values" 2)
      else if token_is c "mset" then once lineno "mset" mset (int_list c lineno)
      else unknown c "lower-bound" lineno);
  let req what = function
    | Some v -> v
    | None -> fail "CRT101" kind_line "missing %s directive" what
  in
  (* missing directives are reported in this order *)
  let wires = req "wires" !wires in
  let values = req "values" !values in
  let m_set = req "mset" !mset in
  let twin = req "twin" !twin in
  let input = req "input" !input in
  let n = req "n" !n in
  Lower_bound
    { n;
      stages = List.rev !stages;
      input;
      twin;
      wire0 = wires.(0);
      wire1 = wires.(1);
      value0 = values.(0);
      value1 = values.(1);
      m_set }

let exhaustion c kind_line net each =
  if net <> None then
    fail "CRT101" kind_line
      "exhaustion certificates carry frontiers, not a network block";
  let n = ref None and depth = ref None in
  let need lineno what = function
    | Some v -> v
    | None -> fail "CRT101" lineno "%s must be declared first" what
  in
  (* level blocks newest first, each newest first *)
  let fronts = ref [] and covs = ref [] and blocks = ref 0 in
  (* a directive is found to be a duplicate before its value is read *)
  let once lineno what r =
    if !r <> None then fail "CRT101" lineno "duplicate %s directive" what;
    ignore (next_token c);
    r := Some (int_of c lineno)
  in
  each (fun lineno ->
      if token_is c "n" && tokens_left c = 1 then once lineno "n" n
      else if token_is c "max-depth" && tokens_left c = 1 then
        once lineno "max-depth" depth
      else if token_is c "level" && tokens_left c = 1 then begin
        ignore (need lineno "max-depth" !depth);
        ignore (next_token c);
        expect_seq lineno "level" (!blocks + 1) (int_of c lineno);
        fronts := [] :: !fronts;
        covs := [] :: !covs;
        incr blocks
      end
      else if token_is c "state" then begin
        match !fronts with
        | [] -> fail "CRT101" lineno "state outside a level block"
        | blk :: rest -> fronts := (int_list c lineno :: blk) :: rest
      end
      else if token_is c "cover" && next_token c then begin
        match !covs with
        | [] -> fail "CRT101" lineno "cover outside a level block"
        | blk :: rest ->
            let nn = need lineno "n" !n in
            let cs = c.ts and ce = c.te in
            (* the permutation is checked before the cited index *)
            let pi = Array.make (room c nn) 0 in
            let k = read_ints c pi nn in
            if k <> nn then
              fail "CRT001" lineno
                "cover needs a %d-wire permutation, got %d entries" nn k;
            report_deferred c lineno;
            c.ts <- cs;
            c.te <- ce;
            let cite = int_of c lineno in
            covs := ({ cite; pi } :: blk) :: rest
      end
      else unknown c "exhaustion" lineno);
  let req what = function
    | Some v -> v
    | None -> fail "CRT101" kind_line "missing %s directive" what
  in
  let max_depth = req "max-depth" !depth in
  if max_depth >= 1 && !blocks <> max_depth - 1 then
    fail "CRT101" kind_line "max-depth %d needs %d level blocks, got %d"
      max_depth (max_depth - 1) !blocks;
  Exhaustion
    { n = req "n" !n;
      max_depth;
      frontiers = Array.of_list (List.rev_map List.rev !fronts);
      covers = Array.of_list (List.rev_map List.rev !covs) }

let parse text =
  let c =
    { text; pos = 0; line = 1; ls = 0; le = 0; ts = 0; te = 0; bs = -1; be = 0 }
  in
  (* the line just read has two tokens, the first [word] *)
  let two_tokens word =
    ignore (next_token c);
    token_is c word && tokens_left c = 1
  in
  try
    let certs = ref [] in
    skip_blanks c;
    while has_line c do
      let lineno = read_line c in
      if not (two_tokens "snlb-cert") then
        fail "CRT001" lineno "expected snlb-cert 1 header";
      ignore (next_token c);
      if not (token_is c "1") then
        fail "CRT001" lineno "unsupported certificate format version %S"
          (token c);
      skip_blanks c;
      let kind_line = c.line in
      if not (has_line c) then fail "CRT001" kind_line "missing kind directive";
      ignore (read_line c);
      if not (two_tokens "kind") then
        fail "CRT001" kind_line "expected kind directive";
      ignore (next_token c);
      let kind = token c in
      let start = c.pos and start_line = c.line in
      let net = ref None in
      walk_body c
        ~network:(fun lineno s e -> net := Some (lineno, s, e))
        ~directive:ignore;
      let each directive =
        c.pos <- start;
        c.line <- start_line;
        walk_body c ~network:(fun _ _ _ -> ()) ~directive
      in
      let assemble =
        match kind with
        | "sortedness" -> sortedness
        | "refutation" -> refutation
        | "dead" -> dead
        | "lower-bound" -> lower_bound
        | "exhaustion" -> exhaustion
        | k -> fail "CRT001" kind_line "unknown certificate kind %S" k
      in
      certs := assemble c kind_line !net each :: !certs;
      skip_blanks c
    done;
    if !certs = [] then
      Error
        { code = "CRT001"; where = "line 1"; reason = "empty certificate file" }
    else Ok (List.rev !certs)
  with Fail e -> Error e

(* --- checking --- *)

let ( let* ) = Result.bind

let check_masks ~n where masks =
  let total = 1 lsl n in
  let rec go = function
    | [] -> Ok ()
    | m :: rest ->
        if m < 0 || m >= total then
          err "CRT102" where "mask %d outside [0, %d)" m total
        else go rest
  in
  go masks

let rec first_error f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      first_error f rest

(* sortedness, reach domain: each annotated set must contain the image
   of the previous one through its level; the final set must hold only
   sorted vectors. Any chain with those two properties over-approximates
   the true reachable sets starting from all 2^n inputs, so the verdict
   is sound even if the annotations are loose. *)
let check_reach_chain network sets ~on_level =
  let n = Network.wires network in
  let* () =
    if n > 16 then
      err "CRT102" "network" "reach certificates support at most 16 wires"
    else Ok ()
  in
  let levels = Network.levels network in
  let* () =
    if Array.length sets <> List.length levels then
      err "CRT101" "set"
        "network has %d levels but the certificate annotates %d"
        (List.length levels) (Array.length sets)
    else Ok ()
  in
  let total = 1 lsl n in
  let cur = ref (List.init total Fun.id) in
  let li = ref 0 in
  let* () =
    first_error
      (fun (lvl : Network.level) ->
        let l = !li + 1 in
        let where = Printf.sprintf "set %d" l in
        let claimed = sets.(!li) in
        incr li;
        let* () = check_masks ~n where claimed in
        let tbl = Bytes.make total '\000' in
        List.iter (fun m -> Bytes.set tbl m '\001') claimed;
        let* () = on_level ~level:l ~entry:!cur ~lvl in
        let* () =
          first_error
            (fun m ->
              let m' = apply_level_mask ~n lvl m in
              if Bytes.get tbl m' = '\000' then
                err "CRT201" where
                  "level %d maps mask %d to %d, outside the annotation" l m m'
              else Ok ())
            !cur
        in
        cur := claimed;
        Ok ())
      levels
  in
  Ok !cur

let check_sortedness_reach network sets =
  let n = Network.wires network in
  let* final =
    check_reach_chain network sets ~on_level:(fun ~level:_ ~entry:_ ~lvl:_ ->
        Ok ())
  in
  first_error
    (fun m ->
      if is_sorted_mask ~n m then Ok ()
      else
        err "CRT202" "final set" "unsorted mask %d survives the last level" m)
    final

(* sortedness, bounds domain: re-derive each level's claimed order
   facts with the pure min/max rules, starting from only the previous
   level's claims (weakening is sound — fewer facts derive fewer). *)
let check_sortedness_bounds network lvls =
  let n = Network.wires network in
  let levels = Network.levels network in
  let* () =
    if Array.length lvls <> List.length levels then
      err "CRT101" "leq"
        "network has %d levels but the certificate annotates %d"
        (List.length levels) (Array.length lvls)
    else Ok ()
  in
  let r = Array.make_matrix n n false in
  let reset claimed =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        r.(i).(j) <- i = j
      done
    done;
    List.iter (fun (i, j) -> r.(i).(j) <- true) claimed
  in
  reset [];
  let transfer_compare a b =
    (* a <- min, b <- max; snapshot first, entries overlap *)
    let row_a = Array.copy r.(a) and row_b = Array.copy r.(b) in
    let col_a = Array.init n (fun c -> r.(c).(a))
    and col_b = Array.init n (fun c -> r.(c).(b)) in
    for c = 0 to n - 1 do
      if c <> a && c <> b then begin
        r.(c).(a) <- col_a.(c) && col_b.(c);
        r.(a).(c) <- row_a.(c) || row_b.(c);
        r.(c).(b) <- col_a.(c) || col_b.(c);
        r.(b).(c) <- row_a.(c) && row_b.(c)
      end
    done;
    r.(a).(b) <- true;
    r.(b).(a) <- row_a.(b) && col_a.(b)
  in
  let swap_wires a b =
    let t = r.(a) in
    r.(a) <- r.(b);
    r.(b) <- t;
    for c = 0 to n - 1 do
      let x = r.(c).(a) in
      r.(c).(a) <- r.(c).(b);
      r.(c).(b) <- x
    done
  in
  let transfer_perm p =
    let img = Perm.to_array p in
    let r' = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if r.(i).(j) then r'.(img.(i)).(img.(j)) <- true
      done
    done;
    for i = 0 to n - 1 do
      Array.blit r'.(i) 0 r.(i) 0 n
    done
  in
  let li = ref 0 in
  let* () =
    first_error
      (fun (lvl : Network.level) ->
        let l = !li + 1 in
        let where = Printf.sprintf "leq %d" l in
        let claimed = lvls.(!li) in
        incr li;
        (match lvl.Network.pre with
        | None -> ()
        | Some p -> transfer_perm p);
        List.iter
          (function
            | Gate.Compare { lo; hi } -> transfer_compare lo hi
            | Gate.Exchange { a; b } -> swap_wires a b)
          lvl.Network.gates;
        let* () =
          first_error
            (fun (i, j) ->
              if i < 0 || i >= n || j < 0 || j >= n then
                err "CRT102" where "wire pair (%d, %d) outside [0, %d)" i j n
              else if not r.(i).(j) then
                err "CRT203" where
                  "claimed fact %d <= %d is not derivable at level %d" i j l
              else Ok ())
            claimed
        in
        reset claimed;
        Ok ())
      levels
  in
  let missing = ref None in
  for w = n - 2 downto 0 do
    if not r.(w).(w + 1) then missing := Some w
  done;
  match !missing with
  | None -> Ok ()
  | Some w ->
      err "CRT202" "final leq" "fact %d <= %d is not claimed at the last level"
        w (w + 1)

let check_refutation network witness =
  let n = Network.wires network in
  let* () =
    if n > 20 then
      err "CRT102" "network" "refutation certificates support at most 20 wires"
    else Ok ()
  in
  let* () =
    if witness < 0 || witness >= 1 lsl n then
      err "CRT102" "witness" "witness %d outside [0, %d)" witness (1 lsl n)
    else Ok ()
  in
  let out = eval_mask network witness in
  if is_sorted_mask ~n out then
    err "CRT211" "witness" "input %d evaluates to sorted output %d" witness out
  else Ok ()

let check_dead network sets claims =
  let n = Network.wires network in
  let* () =
    if n > 16 then
      err "CRT102" "network" "dead certificates support at most 16 wires"
    else Ok ()
  in
  let levels = Network.levels network in
  let nlevels = List.length levels in
  let* () =
    if Array.length sets <> nlevels then
      err "CRT101" "set"
        "network has %d levels but the certificate annotates %d" nlevels
        (Array.length sets)
    else Ok ()
  in
  let* () =
    first_error
      (fun (Dead { level; _ }) ->
        if level < 1 || level > nlevels then
          err "CRT102" "claim" "claim level %d outside [1, %d]" level nlevels
        else Ok ())
      claims
  in
  let total = 1 lsl n in
  let cur = ref (List.init total Fun.id) in
  let li = ref 0 in
  first_error
    (fun (lvl : Network.level) ->
      let l = !li + 1 in
      let where = Printf.sprintf "set %d" l in
      let claimed = sets.(!li) in
      incr li;
      let* () = check_masks ~n where claimed in
      (* gates are classified against the level-entry state, after the
         permutation and before any gate fires *)
      let entry =
        match lvl.Network.pre with
        | None -> !cur
        | Some p -> List.map (apply_perm_mask ~n p) !cur
      in
      let gates = Array.of_list lvl.Network.gates in
      let* () =
        first_error
          (fun (Dead { level; gate }) ->
            if level <> l then Ok ()
            else if gate < 0 || gate >= Array.length gates then
              err "CRT102" "claim" "level %d has no gate %d" l gate
            else
              let dead =
                match gates.(gate) with
                | Gate.Compare { lo; hi } ->
                    List.for_all
                      (fun m -> not (bit m lo = 1 && bit m hi = 0))
                      entry
                | Gate.Exchange { a; b } ->
                    List.for_all (fun m -> bit m a = bit m b) entry
              in
              if dead then Ok ()
              else
                err "CRT221" "claim"
                  "dead claim at level %d gate %d: the gate exchanges a \
                   reachable vector"
                  l gate)
          claims
      in
      let tbl = Bytes.make total '\000' in
      List.iter (fun m -> Bytes.set tbl m '\001') claimed;
      let* () =
        first_error
          (fun m ->
            let m' = List.fold_left apply_gate_mask m lvl.Network.gates in
            if Bytes.get tbl m' = '\000' then
              err "CRT201" where
                "level %d maps mask %d to %d, outside the annotation" l m m'
            else Ok ())
          entry
      in
      cur := claimed;
      Ok ())
    levels

let check_lower_bound ~n ~stages ~input ~twin ~wire0 ~wire1 ~value0 ~value1 ~m_set =
  let n = n in
  let* () =
    if n < 2 || n mod 2 <> 0 then
      err "CRT102" "n" "register model needs an even n >= 2, got %d" n
    else Ok ()
  in
  let* () =
    let si = ref 0 in
    first_error
      (fun st ->
        incr si;
        let where = Printf.sprintf "stage %d" !si in
        if Array.length st.perm <> n then
          err "CRT102" where "permutation has %d entries, expected %d"
            (Array.length st.perm) n
        else if not (is_permutation st.perm) then
          err "CRT102" where "stage images are not a permutation"
        else if String.length st.ops <> n / 2 then
          err "CRT102" where "op string has %d entries, expected %d"
            (String.length st.ops) (n / 2)
        else Ok ())
      stages
  in
  let* () =
    if Array.length input <> n || not (is_permutation input) then
      err "CRT231" "input" "input is not a permutation of 0..%d" (n - 1)
    else Ok ()
  in
  let* () =
    if
      wire0 < 0 || wire0 >= n || wire1 < 0 || wire1 >= n
      || wire0 = wire1
    then err "CRT102" "wires" "witness wires (%d, %d) illegal" wire0 wire1
    else Ok ()
  in
  let* () =
    if value1 <> value0 + 1 then
      err "CRT231" "values" "witness values %d, %d are not adjacent" value0
        value1
    else Ok ()
  in
  let* () =
    if
      input.(wire0) <> value0 || input.(wire1) <> value1
    then err "CRT231" "values" "witness wires do not carry the witness values"
    else Ok ()
  in
  let* () =
    let expected = Array.copy input in
    expected.(wire0) <- value1;
    expected.(wire1) <- value0;
    if twin <> expected then
      err "CRT231" "twin" "twin is not input with the stated swap"
    else Ok ()
  in
  let* () =
    let seen = Array.make n false in
    let rec go = function
      | [] -> Ok ()
      | w :: rest ->
          if w < 0 || w >= n then
            err "CRT102" "mset" "wire %d outside [0, %d)" w n
          else if seen.(w) then err "CRT231" "mset" "wire %d repeated" w
          else begin
            seen.(w) <- true;
            go rest
          end
    in
    let* () = go m_set in
    if List.length m_set < 2 then
      err "CRT231" "mset" "the M-set needs at least two wires"
    else if not (List.mem wire0 m_set && List.mem wire1 m_set)
    then err "CRT231" "mset" "the witness wires are not in the M-set"
    else Ok ()
  in
  (* replay: the reference register-model interpreter, tracing value
     comparisons ('+'/'-' ops compare; '1'/'0' and permutations never
     do). Values stay a permutation of 0..n-1. The trace keeps only
     comparisons between two M-set values, in an |M| x |M| table indexed
     by rank in the M-set list: CRT232 asks about value0 and value1,
     which the checks above placed in the M-set, and CRT235 only about
     M-set pairs, so nothing it drops is ever asked about. *)
  let m = List.length m_set in
  let rank = Array.make n (-1) in
  List.iteri (fun i w -> rank.(input.(w)) <- i) m_set;
  let compared = Bytes.make (m * m) '\000' in
  let note x y =
    let rx = rank.(x) and ry = rank.(y) in
    if rx >= 0 && ry >= 0 then begin
      Bytes.set compared ((rx * m) + ry) '\001';
      Bytes.set compared ((ry * m) + rx) '\001'
    end
  in
  let run ~trace input =
    let v = ref (Array.copy input) in
    List.iter
      (fun st ->
        let cur = !v in
        let nxt = Array.make n 0 in
        Array.iteri (fun j x -> nxt.(st.perm.(j)) <- x) cur;
        String.iteri
          (fun k op ->
            let a = 2 * k and b = (2 * k) + 1 in
            let x = nxt.(a) and y = nxt.(b) in
            let swap () =
              nxt.(a) <- y;
              nxt.(b) <- x
            in
            match op with
            | '+' ->
                if trace then note x y;
                if x > y then swap ()
            | '-' ->
                if trace then note x y;
                if x < y then swap ()
            | '1' -> swap ()
            | _ -> ())
          st.ops;
        v := nxt)
      stages;
    !v
  in
  let out0 = run ~trace:true input in
  let out1 = run ~trace:false twin in
  (* M-set values only *)
  let was_compared x y = Bytes.get compared ((rank.(x) * m) + rank.(y)) <> '\000' in
  let* () =
    if was_compared value0 value1 then
      err "CRT232" "trace" "witness values %d and %d were compared" value0
        value1
    else Ok ()
  in
  let swap v =
    if v = value0 then value1
    else if v = value1 then value0
    else v
  in
  let* () =
    if Array.for_all2 (fun a b -> b = swap a) out0 out1 then Ok ()
    else err "CRT233" "outputs" "outputs differ beyond the witness swap"
  in
  let sorted a =
    let ok = ref true in
    for i = 0 to Array.length a - 2 do
      if a.(i) > a.(i + 1) then ok := false
    done;
    !ok
  in
  let* () =
    if sorted out0 && sorted out1 then
      err "CRT234" "outputs" "both fooling-pair outputs are sorted"
    else Ok ()
  in
  let values = List.map (fun w -> input.(w)) m_set in
  let rec audit = function
    | [] -> Ok ()
    | v :: rest -> (
        match List.find_opt (fun u -> was_compared v u) rest with
        | Some u -> err "CRT235" "mset" "M-set values %d and %d were compared" v u
        | None -> audit rest)
  in
  audit values

(* exhaustion: re-expand every frontier state by every matching with
   the checker's own enumeration and set arithmetic. Soundness is by
   induction on the remaining depth budget r: V(Q, 0) — every pool
   entry holds an unsorted vector; V(Q, r) — every child C of a level-K
   entry is covered by pi(pool(J)) contained in C with pool(J) appended
   at a level <= K + 1 (enforced by the index bound), so a sorting
   suffix for C would sort pool(J) one layer earlier than V(pool(J),
   r - 1) allows (subsumption lemma + untangling). Children of the last
   frontier must simply be unsorted. Taking r = max_depth at the
   implicit initial entry: no max_depth-layer network sorts. *)
let check_exhaustion ~n ~max_depth ~frontiers ~covers =
  let n = n in
  let* () =
    if n < 2 || n > 12 then
      err "CRT102" "n" "exhaustion certificates support n in [2, 12]"
    else Ok ()
  in
  let* () =
    if max_depth < 1 || max_depth > 32 then
      err "CRT102" "max-depth" "max-depth %d outside [1, 32]" max_depth
    else Ok ()
  in
  let* () =
    if
      Array.length frontiers <> max_depth - 1
      || Array.length covers <> max_depth - 1
    then
      err "CRT101" "level" "max-depth %d needs %d level blocks" max_depth
        (max_depth - 1)
    else Ok ()
  in
  let total = 1 lsl n in
  let matchings = all_matchings ~n in
  let pool = ref (Array.make 64 [||]) and pool_len = ref 0 in
  let add_pool arr =
    if !pool_len = Array.length !pool then begin
      let np = Array.make (2 * Array.length !pool) [||] in
      Array.blit !pool 0 np 0 !pool_len;
      pool := np
    end;
    (!pool).(!pool_len) <- arr;
    incr pool_len
  in
  (* every pool entry must contain an unsorted vector: the r = 0 base
     case of the induction *)
  let state_of where masks =
    let* () = check_masks ~n where masks in
    let* () =
      if masks = [] then err "CRT102" where "empty frontier state"
      else Ok ()
    in
    if List.for_all (fun m -> is_sorted_mask ~n m) masks then
      err "CRT243" where "frontier state holds only sorted vectors"
    else Ok (Array.of_list masks)
  in
  let initial = Array.init total Fun.id in
  let* () =
    if n >= 2 then Ok ()
    else err "CRT102" "n" "n must be at least 2"
  in
  add_pool initial;
  let prev = ref [ initial ] in
  let rec levels l =
    if l > max_depth - 1 then Ok ()
    else begin
      let where = Printf.sprintf "level %d" l in
      let* states =
        let rec go acc i = function
          | [] -> Ok (List.rev acc)
          | ms :: rest ->
              let* st = state_of (Printf.sprintf "%s state %d" where i) ms in
              go (st :: acc) (i + 1) rest
        in
        go [] 0 frontiers.(l - 1)
      in
      List.iter add_pool states;
      let cov = ref covers.(l - 1) in
      let child_tbl = Bytes.make total '\000' in
      let rec parents pi = function
        | [] ->
            if !cov <> [] then
              err "CRT244" where "%d cover lines left over" (List.length !cov)
            else Ok ()
        | p :: rest ->
            let rec moves mi = function
              | [] -> parents (pi + 1) rest
              | m :: ms ->
                  let cwhere =
                    Printf.sprintf "%s parent %d matching %d" where pi mi
                  in
                  Bytes.fill child_tbl 0 total '\000';
                  let all_sorted = ref true in
                  Array.iter
                    (fun v ->
                      let c = apply_matching_mask m v in
                      Bytes.set child_tbl c '\001';
                      if not (is_sorted_mask ~n c) then all_sorted := false)
                    p;
                  if !all_sorted then
                    err "CRT243" cwhere
                      "a depth-%d sorted child contradicts the exhaustion" l
                  else begin
                    match !cov with
                    | [] -> err "CRT244" cwhere "cover lines exhausted"
                    | { cite; pi = perm } :: covrest ->
                        cov := covrest;
                        if cite < 0 || cite >= !pool_len then
                          err "CRT241" cwhere
                            "cover cites pool entry %d (only %d available)"
                            cite !pool_len
                        else if
                          Array.length perm <> n || not (is_permutation perm)
                        then
                          err "CRT102" cwhere "cover permutation is illegal"
                        else
                          let q = (!pool).(cite) in
                          let embeds =
                            Array.for_all
                              (fun v ->
                                Bytes.get child_tbl (permute_mask perm v)
                                <> '\000')
                              q
                          in
                          if embeds then moves (mi + 1) ms
                          else
                            err "CRT242" cwhere
                              "pool entry %d does not embed into the child \
                               under the stated permutation"
                              cite
                  end
            in
            moves 0 matchings
      in
      let* () = parents 0 !prev in
      prev := states;
      levels (l + 1)
    end
  in
  let* () = levels 1 in
  (* the last frontier: every child of every matching must be unsorted *)
  let rec final pi = function
    | [] -> Ok ()
    | p :: rest ->
        let rec moves mi = function
          | [] -> final (pi + 1) rest
          | m :: ms ->
              let all_sorted =
                Array.for_all
                  (fun v -> is_sorted_mask ~n (apply_matching_mask m v))
                  p
              in
              if all_sorted then
                err "CRT243"
                  (Printf.sprintf "level %d parent %d matching %d" max_depth
                     pi mi)
                  "a depth-%d sorting network exists, contradicting the claim"
                  max_depth
              else moves (mi + 1) ms
        in
        moves 0 matchings
  in
  final 0 !prev

let check = function
  | Sortedness { network; domain } -> (
      match domain with
      | Reach_sets sets -> check_sortedness_reach network sets
      | Bounds_leq lvls -> check_sortedness_bounds network lvls)
  | Refutation { network; witness } -> check_refutation network witness
  | Dead_gates { network; sets; claims } -> check_dead network sets claims
  | Lower_bound { n; stages; input; twin; wire0; wire1; value0; value1; m_set }
    ->
      check_lower_bound ~n ~stages ~input ~twin ~wire0 ~wire1 ~value0 ~value1
        ~m_set
  | Exhaustion { n; max_depth; frontiers; covers } ->
      check_exhaustion ~n ~max_depth ~frontiers ~covers

let check_all certs =
  let rec go i = function
    | [] -> Ok ()
    | c :: rest -> (
        match check c with
        | Ok () -> go (i + 1) rest
        | Error e ->
            Error
              { e with
                where =
                  Printf.sprintf "cert %d (%s): %s" i (kind_name c) e.where })
  in
  go 1 certs
