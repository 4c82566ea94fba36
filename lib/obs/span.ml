type t = { sink : Sink.t; mutable extra : (string * Sink.value) list }

(* Span nesting is tracked per *thread*, not per domain: systhreads
   within one domain share Domain.DLS, so a DLS stack would let
   concurrent threads (e.g. serve sessions) push onto each other's
   paths. Keyed by Thread.id; a thread's entry is removed when its
   stack empties so the table does not grow with dead threads. *)
let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8
let stacks_m = Mutex.create ()

let push name =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock stacks_m;
  let st = name :: Option.value (Hashtbl.find_opt stacks id) ~default:[] in
  Hashtbl.replace stacks id st;
  Mutex.unlock stacks_m;
  String.concat "/" (List.rev st)

let pop () =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock stacks_m;
  (match Hashtbl.find_opt stacks id with
  | Some (_ :: (_ :: _ as tl)) -> Hashtbl.replace stacks id tl
  | Some _ | None -> Hashtbl.remove stacks id);
  Mutex.unlock stacks_m

let add sp k v =
  if Sink.enabled sp.sink then sp.extra <- (k, v) :: sp.extra

let run ?(sink = Sink.null) ~name f =
  if not (Sink.enabled sink) then f { sink; extra = [] }
  else begin
    let path = push name in
    let w0 = Clock.wall () and c0 = Clock.cpu () in
    let sp = { sink; extra = [] } in
    let close extra =
      pop ();
      Sink.emit sink ~ev:"span" ~name:path
        (("wall_s", Sink.Float (Clock.wall () -. w0))
        :: ("cpu_s", Sink.Float (Clock.cpu () -. c0))
        :: List.rev_append sp.extra extra)
    in
    match f sp with
    | r ->
        close [];
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close [ ("error", Sink.Str (Printexc.to_string e)) ];
        Printexc.raise_with_backtrace e bt
  end
