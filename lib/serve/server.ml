(* The server driver: listen, accept, drain.

   The accept loop polls with a short select timeout so a Cancel
   token tripped by SIGINT/SIGTERM is noticed promptly; drain then
   (1) stops accepting and removes the endpoint, (2) shuts down the
   read side of every live connection — sessions finish the request
   they already read (in-flight batches flush through the batcher)
   and then see EOF — (3) joins the session threads, and (4) drains
   the batcher. The CLI maps a cancelled run to exit 130. *)

type addr = Unix_path of string | Tcp of int

let addr_text = function
  | Unix_path p -> p
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

type config = {
  addr : addr;
  domains : int;  (* per verify sweep *)
  window : float;  (* batch gather window, seconds *)
  cache_capacity : int;  (* 0 disables the response cache *)
  max_request : int;
  max_wires : int;
  idle_timeout : float;  (* idle-session reaper; 0 disables *)
  request_deadline : float;  (* per-request cap; 0 disables *)
}

let default_config addr =
  { addr;
    domains = 1;
    window = 0.002;
    cache_capacity = 512;
    max_request = 1 lsl 20;
    max_wires = 16;
    idle_timeout = 300.;
    request_deadline = 30.;
  }

let c_connections = Metrics.counter "serve.connections"

let listen_socket = function
  | Unix_path path ->
      (* remove a stale endpoint, but never a foreign file *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> failwith (path ^ " exists and is not a socket")
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

let connect = function
  | Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd

let run ?(sink = Sink.null) ?(ready = fun () -> ()) ~cancel config =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  match listen_socket config.addr with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s" (addr_text config.addr)
           (Unix.error_message e))
  | exception Failure msg -> Error msg
  | lsock ->
      let cache =
        if config.cache_capacity = 0 then None
        else Some (Scache.create ~capacity:config.cache_capacity ())
      in
      let batcher =
        Batcher.create
          { Batcher.window = config.window;
            max_batch = 256;  (* jobs per round *)
            domains = config.domains;
            cache;
          }
      in
      let session_config =
        { Session.batcher;
          max_request = config.max_request;
          max_wires = config.max_wires;
          idle_timeout = config.idle_timeout;
          request_deadline = config.request_deadline;
          sink;
        }
      in
      let m = Mutex.create () in
      let live = ref [] in (* (conn id, fd, thread) of running sessions *)
      let spawn conn fd =
        let th =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  (try Unix.close fd with Unix.Unix_error _ -> ());
                  Mutex.lock m;
                  live := List.filter (fun (c, _, _) -> c <> conn) !live;
                  Mutex.unlock m)
                (fun () -> Session.handle session_config ~conn fd))
            ()
        in
        Mutex.lock m;
        (* the session may already have removed itself; a stale entry
           only costs drain a no-op shutdown and an instant join *)
        live := (conn, fd, th) :: !live;
        Mutex.unlock m
      in
      Sink.emit sink ~ev:"serve" ~name:"serve.listen"
        [ ("addr", Sink.Str (addr_text config.addr)) ];
      ready ();
      let conn = ref 0 in
      let rec accept_loop () =
        if Cancel.cancelled cancel then ()
        else begin
          (match Unix.select [ lsock ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
              match Unix.accept lsock with
              | fd, _ ->
                  incr conn;
                  Metrics.incr c_connections;
                  spawn !conn fd
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      (* drain: stop accepting, wake blocked session reads, let each
         session flush its in-flight request, then stop the batcher *)
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      (match config.addr with
      | Unix_path path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      Mutex.lock m;
      let snapshot = !live in
      Mutex.unlock m;
      List.iter
        (fun (_, fd, _) ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        snapshot;
      List.iter (fun (_, _, th) -> Thread.join th) snapshot;
      Batcher.drain batcher;
      Sink.emit sink ~ev:"serve" ~name:"serve.drained" [];
      Ok ()
