(* One Unix-socket line service (see the .mli).

   Concurrency: the accept loop owns the listener; each connection thread
   owns its socket until it deregisters.  The registry is the only state
   behind the mutex: a thread is registered before it can run its
   [finally], and it leaves the registry before closing its socket, so a
   sever never shuts down a descriptor number the kernel has reused.  The
   counters and the stop flag are atomics, which keeps {!stop} safe from
   a signal handler. *)

module J = Observe.Json
module E = Fault.Ompgpu_error
module I = Fault.Injector

type listener = { fd : Unix.file_descr; path : string }

let listen path =
  (if Sys.file_exists path then
     match (Unix.lstat path).Unix.st_kind with
     | Unix.S_SOCK -> Unix.unlink path
     | _ ->
       invalid_arg
         (Printf.sprintf "Service.Endpoint.listen: %s exists and is not a socket"
            path));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  { fd; path }

let release l =
  (try Unix.close l.fd with Unix.Unix_error _ -> ());
  try Unix.unlink l.path with Unix.Unix_error _ | Sys_error _ -> ()

type reply =
  | Reply of Protocol.response
  | Relay of string
  | Reply_and_stop of Protocol.response

type t = {
  listener : listener;
  owned : bool;
  injector : I.t;
  drain_deadline_s : float;
  started_s : float;
  stopping : bool Atomic.t;
  busy : int Atomic.t;  (* requests between decode and reply write *)
  served : int Atomic.t;
  bad : int Atomic.t;
  injected_drops : int Atomic.t;
  mutex : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
}

let create ?(injector = I.none) ?lent ~drain_deadline_s socket_path =
  let listener, owned =
    match lent with Some l -> (l, false) | None -> (listen socket_path, true)
  in
  {
    listener;
    owned;
    injector;
    drain_deadline_s;
    started_s = Observe.Clock.now_s ();
    stopping = Atomic.make false;
    busy = Atomic.make 0;
    served = Atomic.make 0;
    bad = Atomic.make 0;
    injected_drops = Atomic.make 0;
    mutex = Mutex.create ();
    conns = [];
  }

let draining t = Atomic.get t.stopping
let uptime_s t = Observe.Clock.now_s () -. t.started_s
let served t = Atomic.get t.served
let bad t = Atomic.get t.bad
let injected_drops t = Atomic.get t.injected_drops

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stop t =
  Atomic.set t.stopping true;
  (* wake the blocked accept: shutting a listening socket down makes the
     pending accept fail immediately on Linux *)
  try Unix.shutdown t.listener.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let encode response = J.to_string ~minify:true (Protocol.response_to_json response)

(* One reply line out, through the reply-side fault sites. *)
let write t fd oc line =
  if I.fire t.injector I.Slow_client then Thread.delay 0.15;
  if I.fire t.injector I.Partial_frame then begin
    (* a torn response: half the line, no newline, then a hard close — the
       client must treat it as a transient transport failure *)
    Atomic.incr t.injected_drops;
    Out_channel.output_string oc (String.sub line 0 (String.length line / 2));
    Out_channel.flush oc;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    raise End_of_file
  end;
  Protocol.write_line oc line;
  Atomic.incr t.served

let serve_connection t dispatch fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond response =
    (match response with Protocol.Rejected _ -> Atomic.incr t.bad | _ -> ());
    write t fd oc (encode response)
  in
  (* [busy] brackets decode→reply, so the drain knows a request is being
     answered; the result says whether to keep reading *)
  let answer reply =
    Atomic.incr t.busy;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.busy)
      (fun () ->
        match reply () with
        | Reply response ->
          respond response;
          true
        | Relay line ->
          write t fd oc line;
          true
        | Reply_and_stop response ->
          respond response;
          stop t;
          false)
  in
  let reject ?id error = answer (fun () -> Reply (Protocol.Rejected { id; error })) in
  let rec loop () =
    match Protocol.read_frame ic with
    | `Eof -> ()
    | `Overflow error ->
      (* an oversized frame poisons the whole connection: answer once,
         stop reading (the rest of the line is still in flight) *)
      ignore (reject error)
    | `Line raw -> (
      match Protocol.decode_line raw with
      | Error error ->
        (* an unparseable line poisons only itself, not the connection *)
        if reject error then loop ()
      | Ok j ->
        if I.fire t.injector I.Conn_drop then begin
          (* drop the connection on the floor, mid-request: the client's
             reconnect-and-retry path owns recovery *)
          Atomic.incr t.injected_drops;
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
        end
        else if
          match Protocol.request_of_json j with
          | Error error -> reject ?id:(Option.bind (J.member "id" j) J.to_str) error
          | Ok request -> answer (fun () -> dispatch raw request)
        then loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Out_channel.flush oc with Sys_error _ -> ());
      locked t (fun () -> t.conns <- List.filter (fun (fd', _) -> fd' != fd) t.conns);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop () with
      | Sys_error _ | End_of_file ->
        (* the peer went away mid-request; nothing to answer *)
        ()
      | e -> (
        (* never let one connection take the service down: report and
           move on *)
        let error = E.make E.Internal ~phase:E.Serving (Printexc.to_string e) in
        try write t fd oc (encode (Protocol.Rejected { id = None; error }))
        with Sys_error _ | End_of_file -> ()))

(* Shut every live connection down — blocked reads see EOF and their
   threads exit — and join them. *)
let sever_and_join t =
  locked t (fun () ->
      List.iter
        (fun (fd, _) ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.conns;
      List.map snd t.conns)
  |> List.iter Thread.join

let serve t dispatch =
  let rec accept_loop () =
    match Unix.accept t.listener.fd with
    | fd, _ ->
      if I.fire t.injector I.Daemon_kill then begin
        (* the accept loop itself dies; a supervisor restarts it on the
           same socket *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        failwith "injected daemon-kill: serve loop crashed"
      end;
      locked t (fun () ->
          t.conns <- (fd, Thread.create (serve_connection t dispatch) fd) :: t.conns);
      accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) when not (draining t) ->
      accept_loop ()
    | exception Unix.Unix_error _ when draining t -> ()
  in
  Fun.protect
    ~finally:(fun () -> if t.owned then release t.listener)
    (fun () ->
      match accept_loop () with
      | () ->
        let deadline = Observe.Clock.now_s () +. t.drain_deadline_s in
        while Atomic.get t.busy > 0 && Observe.Clock.now_s () < deadline do
          Thread.delay 0.01
        done;
        let unanswered = Atomic.get t.busy in
        sever_and_join t;
        unanswered
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set t.stopping true;
        sever_and_join t;
        Printexc.raise_with_backtrace e bt)
