(* The compile daemon: a Unix-domain-socket accept loop with one system
   thread per connection, compiles scheduled on a shared domain pool,
   one process-wide compile cache with per-tenant namespacing, and the
   robustness core — bounded admission (explicit shed, never a silent
   drop), per-request deadline budgets (a wedged compile is abandoned
   and answered with a structured timeout), and degradation under
   pressure (admissions above the degrade threshold run the fallback
   chain instead of failing strict). *)

type config = {
  socket : string;
  domains : int;
  capacity : int;
  degrade_at : int;
  default_deadline_ms : int;
  read_timeout_ms : int;
  max_payload : int;
}

let default_config ~socket =
  {
    socket;
    domains = 2;
    capacity = 8;
    degrade_at = 6;
    default_deadline_ms = 30_000;
    read_timeout_ms = 2_000;
    max_payload = Protocol.max_payload_default;
  }

type t = {
  config : config;
  listen : Unix.file_descr;
  pool : Fhe_par.Pool.t;
  adm : Admission.t;
  stopping : bool Atomic.t;
  cleaned : bool Atomic.t;
  live : int Atomic.t;  (* connection handlers still running *)
  mutable acceptor : Thread.t option;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Compile dispatch: the same strategy registry, knobs, and cache keys
   as the [fhec compile] CLI path, so a served result is byte-identical
   to a local one.  Runs inside a pool worker domain; the tenant
   namespace is domain-local state, so it must be entered here, not in
   the connection thread. *)

module St = Fhe_strategy.Strategy
module Reg = Fhe_strategy.Registry

let diag_of_exn e =
  Reserve.Diag.to_string (Reserve.Diag.of_exn Reserve.Diag.Serve e)

let strategy_infos () =
  List.map
    (fun s ->
      let c = St.caps s in
      {
        Protocol.s_name = St.name s;
        s_aliases = St.aliases s;
        s_redistributes = c.St.redistributes;
        s_hoists = c.St.hoists;
        s_explores = c.St.explores;
        s_fallback = c.St.fallback_chain;
      })
    (Reg.all ())

let compile_one level (req : Protocol.compile_request) : Protocol.reply =
  let in_ns f =
    if req.tenant = "" then f ()
    else Fhe_cache.Store.with_namespace req.tenant f
  in
  in_ns @@ fun () ->
  let cfg =
    St.config ~xmax_bits:req.xmax_bits
      ?iterations:(if req.iterations > 0 then Some req.iterations else None)
      ~rbits:req.rbits ~wbits:req.wbits ()
  in
  if String.lowercase_ascii req.compiler = Fhe_strategy.Portfolio.mode_name
  then
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match Reg.of_name n with
          | Some s -> resolve (s :: acc) rest
          | None -> Error n)
    in
    match resolve [] req.strategies with
    | Error n -> Protocol.Bad_request (Printf.sprintf "unknown strategy %S" n)
    | Ok subset -> (
        (* already inside a pool worker — nested pool use is rejected —
           so the legs run sequentially here; the report is the same *)
        match
          Fhe_strategy.Portfolio.run ~strategies:subset cfg req.program
        with
        | Ok r -> (
            match r.Fhe_strategy.Portfolio.winner.result with
            | Ok managed ->
                Protocol.Compiled
                  {
                    engine =
                      "portfolio:"
                      ^ St.name r.Fhe_strategy.Portfolio.winner.strategy;
                    wbits_used = req.wbits;
                    warnings = [];
                    managed;
                  }
            | Error _ -> assert false (* the winner is an Ok leg *))
        | Error msg -> Protocol.Failed [ msg ])
  else
    match Reg.of_name req.compiler with
    | None ->
        Protocol.Bad_request
          (Printf.sprintf "unknown compiler %S" req.compiler)
    | Some s -> (
        let strict = not (req.allow_fallback || level = Admission.Pressured) in
        match Reg.compile_safe s cfg ~strict ~oracle:req.oracle req.program with
        | Ok o ->
            let reply =
              {
                Protocol.engine = o.Reg.strategy;
                wbits_used = o.Reg.wbits;
                warnings = List.map Reserve.Diag.to_string o.Reg.warnings;
                managed = o.Reg.managed;
              }
            in
            if o.Reg.fallbacks = [] then Protocol.Compiled reply
            else Protocol.Degraded reply
        | Error attempts ->
            Protocol.Failed
              (List.map Reserve.Diag.to_string (Reg.attempt_diags attempts))
        | exception e -> Protocol.Failed [ diag_of_exn e ])

(* ------------------------------------------------------------------ *)
(* Per-connection handling. *)

let send fd ~max_payload reply =
  ignore max_payload;
  let typ, payload = Protocol.encode_reply reply in
  Protocol.write_frame fd ~typ payload

let handle_compile t fd (req : Protocol.compile_request) =
  let send r = send fd ~max_payload:t.config.max_payload r in
  match Admission.try_admit t.adm with
  | `Shed ->
      ignore @@ send
        (Protocol.Shed
           {
             retry_after_ms = 25 + (t.config.default_deadline_ms / 100);
             reason =
               Printf.sprintf "server at capacity (%d compiles in flight)"
                 t.config.capacity;
           })
  | `Go level ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.adm)
        (fun () ->
          let deadline_ms =
            float_of_int
              (if req.deadline_ms > 0 then req.deadline_ms
               else t.config.default_deadline_ms)
          in
          let handle =
            Fhe_par.Pool.submit t.pool (fun () -> compile_one level req)
          in
          match Fhe_par.Pool.await ~deadline_ms handle with
          | Ok reply ->
              (match reply with
              | Protocol.Compiled _ -> Admission.note_completed t.adm
              | Protocol.Degraded _ -> Admission.note_degraded t.adm
              | Protocol.Failed _ -> Admission.note_failed t.adm
              | _ -> ());
              ignore (send reply)
          | Error `Timeout ->
              Admission.note_timeout t.adm;
              let d =
                Reserve.Diag.errorf
                  ~hint:"retry with a larger deadline-ms or a smaller program"
                  Reserve.Diag.Serve
                  "compile abandoned after its %.0f ms deadline budget"
                  deadline_ms
              in
              ignore (send (Protocol.Timed_out (Reserve.Diag.to_string d)))
          | Error (`Exn e) ->
              Admission.note_failed t.adm;
              ignore (send (Protocol.Failed [ diag_of_exn e ])))

(* Closing a listening fd does not wake a thread blocked in accept(2);
   shutdown does on Linux, and the dummy self-connect covers platforms
   where it doesn't.  The fd itself is closed in [stop], after the
   acceptor has been joined. *)
let request_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listen Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try Unix.connect fd (Unix.ADDR_UNIX t.config.socket)
         with Unix.Unix_error _ -> ());
        close_quiet fd
  end

let handle_conn t fd =
  (* Slow-loris guard: a peer that stalls mid-frame (or never reads its
     reply) trips the socket timeout instead of pinning this thread. *)
  let timeout_s = float_of_int t.config.read_timeout_ms /. 1000. in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
   with Unix.Unix_error _ -> ());
  let send r = send fd ~max_payload:t.config.max_payload r in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Protocol.read_frame ~max_payload:t.config.max_payload fd with
      | Error `Closed -> ()
      | Error `Timeout ->
          (* best-effort notice, then drop the connection *)
          ignore (send (Protocol.Bad_request "request read timed out"))
      | Error (`Malformed m) -> ignore (send (Protocol.Bad_request m))
      | Ok (version, typ, payload) -> (
          match Protocol.decode_request ~version ~typ payload with
          | Error m ->
              (* the frame itself was well-formed, so the stream is
                 still aligned: reply and keep the connection *)
              if send (Protocol.Bad_request m) = Ok () then loop ()
          | Ok Protocol.Ping ->
              if send Protocol.Pong = Ok () then loop ()
          | Ok Protocol.Stats ->
              let json = Admission.stats_json (Admission.stats t.adm) in
              if send (Protocol.Stats_reply json) = Ok () then loop ()
          | Ok Protocol.List_strategies ->
              if send (Protocol.Strategies_reply (strategy_infos ())) = Ok ()
              then loop ()
          | Ok Protocol.Shutdown ->
              ignore (send Protocol.Pong);
              request_stop t
          | Ok (Protocol.Compile req) ->
              handle_compile t fd req;
              loop ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle. *)

let rec accept_loop t =
  match Unix.accept ~cloexec:true t.listen with
  | fd, _ when Atomic.get t.stopping -> close_quiet fd
  | fd, _ ->
      Atomic.incr t.live;
      ignore
        (Thread.create
           (fun () ->
             Fun.protect
               ~finally:(fun () ->
                 close_quiet fd;
                 Atomic.decr t.live)
               (fun () -> try handle_conn t fd with _ -> ()))
           ());
      accept_loop t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error _ ->
      (* the listening socket was closed (stop/shutdown) or is beyond
         repair; either way the accept loop is done *)
      ()

let start config =
  if String.length config.socket > 100 then
    invalid_arg
      (Printf.sprintf
         "Server.start: socket path %S exceeds the sockaddr_un limit; use a \
          short path (e.g. under /tmp)"
         config.socket);
  if config.capacity < 1 then invalid_arg "Server.start: capacity < 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists config.socket then
    (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen (Unix.ADDR_UNIX config.socket);
     Unix.listen listen 64
   with e ->
     close_quiet listen;
     raise e);
  let degrade_at = max 1 (min config.degrade_at config.capacity) in
  let t =
    {
      config;
      listen;
      pool = Fhe_par.Pool.create ~domains:(max 2 config.domains) ();
      adm = Admission.create ~capacity:config.capacity ~degrade_at;
      stopping = Atomic.make false;
      cleaned = Atomic.make false;
      live = Atomic.make 0;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create accept_loop t);
  t

let stats t = Admission.stats t.adm

let running t = not (Atomic.get t.stopping)

let stop t =
  request_stop t;
  if Atomic.compare_and_set t.cleaned false true then begin
    Option.iter Thread.join t.acceptor;
    close_quiet t.listen;
    (* give in-flight connection handlers a bounded window to drain *)
    let deadline = Unix.gettimeofday () +. 10. in
    while Atomic.get t.live > 0 && Unix.gettimeofday () < deadline do
      Thread.yield ();
      (try Thread.delay 0.002 with _ -> ())
    done;
    Fhe_par.Pool.shutdown t.pool;
    try Unix.unlink t.config.socket with Unix.Unix_error _ -> ()
  end

let run config =
  let t = start config in
  Fun.protect
    ~finally:(fun () -> stop t)
    (fun () ->
      while running t do
        Thread.delay 0.05
      done)
