(* Canonical response cache for verify verdicts.

   Keying. Two networks that are wire-permutation isomorphic (their
   0-1 reachable sets coincide up to a channel relabeling) share one
   canonical form ([canonical_masks] below) — but sharing a *verdict*
   across an isomorphism class is only sound for STANDARD networks
   (no pre permutations, no exchanges, every comparator ascending:
   lo < hi). For a standard network the thresholds are fixed points,
   so the reachable set R always contains the n+1 threshold vectors T
   and the network sorts iff R = T; if R_B = pi(R_A) and R_A = T then
   R_B is a (n+1)-element superset-image of T, hence exactly T, so
   the verdict is a property of the canonical form. A non-standard
   network can reach the same canonical form while failing to sort
   (e.g. a sorter followed by a nontrivial output permutation), so
   those are cached under their exact structural key only.

   Witnesses. A failing 0-1 input is a property of the concrete
   network, not of its isomorphism class, so a canonical hit on a
   negative verdict may only reuse the stored witness when the
   structural keys also match; otherwise the verdict is served
   without a witness (the client can ask [certify] for one).

   Eviction is second-chance (the Engine.Cache policy): hits mark
   entries used; a full cache evicts the first cold entry found,
   giving recently hit entries a second pass through the ring. *)

type entry = {
  sorts : bool;
  witness : int array option;  (* a failing 0-1 input when [not sorts] *)
  skey : string;  (* structural key of the network that produced it *)
}

type slot = { v : entry; mutable used : bool }

type t = {
  m : Mutex.t;
  tbl : (string, slot) Hashtbl.t;
  ring : string Queue.t;
  capacity : int;
}

let c_hits = Metrics.counter "serve.cache.hits"
let c_misses = Metrics.counter "serve.cache.misses"
let c_evictions = Metrics.counter "serve.cache.evictions"

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Scache.create: capacity < 1";
  { m = Mutex.create (); tbl = Hashtbl.create 64; ring = Queue.create (); capacity }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find t key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some slot ->
      slot.used <- true;
      Metrics.incr c_hits;
      Some slot.v
  | None ->
      Metrics.incr c_misses;
      None

(* find without touching the hit/miss counters (and without marking
   the entry used): the batch worker's duplicate-suppression re-check,
   which must not double-count the miss the session already paid *)
let peek t key =
  with_lock t @@ fun () ->
  Option.map (fun s -> s.v) (Hashtbl.find_opt t.tbl key)

let add t key v =
  with_lock t @@ fun () ->
  if Hashtbl.mem t.tbl key then Hashtbl.replace t.tbl key { v; used = true }
  else begin
    while Hashtbl.length t.tbl >= t.capacity do
      (* the ring holds exactly the table's keys, so this terminates:
         each pass clears one used flag or evicts *)
      let k = Queue.pop t.ring in
      let s = Hashtbl.find t.tbl k in
      if s.used then begin
        s.used <- false;
        Queue.push k t.ring
      end
      else begin
        Hashtbl.remove t.tbl k;
        Metrics.incr c_evictions
      end
    done;
    Hashtbl.replace t.tbl key { v; used = false };
    Queue.push key t.ring
  end

let entries t = with_lock t @@ fun () -> Hashtbl.length t.tbl

(* --- key derivation --- *)

let is_standard nw =
  List.for_all
    (fun lvl ->
      lvl.Network.pre = None
      && List.for_all
           (function
             | Gate.Compare { lo; hi } -> lo < hi
             | Gate.Exchange _ -> false)
           lvl.Network.gates)
    (Network.levels nw)

let structural_key nw = "s:" ^ Network_io.to_string nw

(* Canonical form. Channels are grouped into classes by their
   per-level ones histogram (row [c] of [chan]: how many masks with [k]
   ones have bit [c] set). The row is permutation-covariant — relabel
   the set by [pi] and channel [pi c] inherits channel [c]'s row — so
   the class partition, the class sizes and the lexicographic order of
   class signatures are all isomorphism-invariant. The canonical form
   is the lexicographically smallest image of the mask set over the
   permutations that map each class onto its block of target positions
   (classes ordered by signature): for two isomorphic sets those
   candidate image sets coincide, so the minima are equal
   (completeness), and any canonical form is an image of the set under
   a concrete permutation, so equal canonical forms imply isomorphism
   (soundness).

   The candidate count is the product of class factorials —
   exponential for highly symmetric sets — so the enumeration is
   capped, scaled down for large sets so the total work stays bounded.
   Beyond the cap each class keeps its members in channel order: still
   deterministic and sound (the result remains a genuine image), merely
   no longer guaranteed equal across isomorphs. The cap predicate only
   reads isomorphism-invariant quantities, so two isomorphic sets
   always take the same branch. *)

let canonical_images_cap = 40_320 (* 8! *)

let permute_mask pi m =
  let img = ref 0 and w = ref m in
  while !w <> 0 do
    img := !img lor (1 lsl pi.(Bitops.floor_log2 (!w land - !w)));
    w := !w land (!w - 1)
  done;
  !img

let sorted_image pi masks =
  let img = Array.map (permute_mask pi) masks in
  Array.sort compare img;
  img

let canonical_masks ~n masks =
  let chan = Array.make_matrix n (n + 1) 0 in
  Array.iter
    (fun m ->
      let k = Bitops.popcount m in
      for c = 0 to n - 1 do
        if (m lsr c) land 1 = 1 then chan.(c).(k) <- chan.(c).(k) + 1
      done)
    masks;
  (* order channels by signature; ties broken by channel index so the
     capped fallback is deterministic *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun c d -> match compare chan.(c) chan.(d) with 0 -> compare c d | r -> r)
    order;
  (* classes: runs of equal signature, as (start, members) in target
     position order *)
  let classes = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && chan.(order.(!i)) = chan.(order.(!j)) do
      incr j
    done;
    classes := (!i, Array.sub order !i (!j - !i)) :: !classes;
    i := !j
  done;
  let classes = List.rev !classes in
  let fact k = let r = ref 1 in for v = 2 to k do r := !r * v done; !r in
  let images =
    List.fold_left (fun acc (_, ms) -> acc * fact (Array.length ms)) 1 classes
  in
  let cap =
    min canonical_images_cap (max 24 (2_000_000 / (Array.length masks + 1)))
  in
  let pi = Array.make n (-1) in
  List.iter
    (fun (start, members) -> Array.iteri (fun k c -> pi.(c) <- start + k) members)
    classes;
  if images <= 1 || images > cap then sorted_image pi masks
  else begin
    (* enumerate every block-respecting permutation: for each class,
       all arrangements of its members over its positions *)
    let best = ref (sorted_image pi masks) in
    let rec arrange = function
      | [] ->
          let img = sorted_image pi masks in
          if compare img !best < 0 then best := img
      | (start, members) :: rest ->
          let k = Array.length members in
          let used = Array.make k false in
          let rec place slot =
            if slot = k then arrange rest
            else
              for m = 0 to k - 1 do
                if not used.(m) then begin
                  used.(m) <- true;
                  pi.(members.(m)) <- start + slot;
                  place (slot + 1);
                  used.(m) <- false
                end
              done
          in
          place 0
    in
    arrange classes;
    !best
  end

(* The reachable set of a standard network, ascending: the image of
   the full cube under its comparators, applied in order to one row by
   the set-image kernel — 2^n/64 words per comparator, no compile and
   no 2^n-entry arrays. Every mask the network outputs is some input's
   image, so this is the set of outputs of all 2^n inputs. *)
let image ~n nw =
  let wpr = Maskset.words ~n in
  let row = Maskset.cube ~n in
  List.iter
    (fun lvl ->
      List.iter
        (function
          | Gate.Compare { lo; hi } -> Maskset.apply_cmp row ~wpr 0 lo hi
          | Gate.Exchange _ -> assert false)
        lvl.Network.gates)
    (Network.levels nw);
  Maskset.elements row ~wpr 0

let canonical_width nw =
  let n = Network.wires nw in
  is_standard nw && n >= 2 && n <= 16

let reachable_masks nw =
  if not (canonical_width nw) then
    invalid_arg "Scache.reachable_masks: not a standard network of 2-16 wires";
  image ~n:(Network.wires nw) nw

let key nw =
  if canonical_width nw then begin
    let n = Network.wires nw in
    let canon = canonical_masks ~n (image ~n nw) in
    let b = Buffer.create (10 + (Array.length canon * 5)) in
    Buffer.add_string b ("c:" ^ string_of_int n);
    Array.iter
      (fun m ->
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int m))
      canon;
    Buffer.contents b
  end
  else structural_key nw
