(* The serve tier (dune build @serve).

   Three layers under test, bottom up:
   - lib/ir/Wire: the canonical IR encodings — decode ∘ encode = id
     keyed on Intern.digest over the Progen corpus, golden pins so the
     v1 format cannot drift silently, and hostile-input totality
     (truncations, bit flips, lying lengths: Error, never an exception);
   - lib/serve/Protocol: message round-trips, range validation at the
     decode boundary, and the frame layer over a real fd;
   - the daemon itself: served results byte-identical to local compiles
     for all 8 registry apps x 5 compilers, and the robustness contract
     — the seeded wire-fault matrix, admission shedding, deadline
     timeouts, degradation under pressure, tenant cache isolation,
     crash-recovery sweeps, and the retrying client. *)

open Fhe_ir
module Proto = Fhe_serve.Protocol
module Server = Fhe_serve.Server
module Client = Fhe_serve.Client
module Admission = Fhe_serve.Admission
module Loadgen = Fhe_serve.Loadgen
module Faults = Fhe_sim.Faults
module Store = Fhe_cache.Store
module Reg = Fhe_apps.Registry

let str = Printf.sprintf

(* every server test starts from a known cache configuration; the
   store is process-global and alcotest runs these sequentially *)
let fresh_cache () =
  Store.set_enabled true;
  Store.set_dir None;
  Store.set_capacity 256;
  Store.reset ()

let sock name = str "/tmp/fhec-t%d-%s.sock" (Unix.getpid ()) name

let with_server ?(domains = 2) ?(capacity = 8) ?(degrade_at = 6)
    ?(read_timeout_ms = 500) name f =
  fresh_cache ();
  let socket = sock name in
  let config =
    { (Server.default_config ~socket) with
      domains; capacity; degrade_at; read_timeout_ms }
  in
  let t = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f socket t)

let app_request ?(tenant = "") ?(compiler = "reserve-full") ?(rbits = 60)
    ?(wbits = 30) ?(iterations = 10) ?(deadline_ms = 0) app_name =
  let app = Reg.find app_name in
  let program = app.Reg.build () in
  let inputs = app.Reg.inputs ~seed:42 in
  let xmax_bits = Fhe_sim.Interp.max_magnitude_bits program ~inputs in
  {
    Proto.tenant; compiler; strategies = []; rbits; wbits; xmax_bits;
    iterations; allow_fallback = false; oracle = false; deadline_ms; program;
  }

let managed_bytes (m : Managed.t) = Wire.encode_managed m

let progen seed = (Fhe_sim.Progen.make seed).Fhe_sim.Progen.prog

(* ----------------------------------------------------------------- *)
(* Wire: round trips *)

let test_wire_binary_round_trip_500 () =
  for seed = 0 to 499 do
    let p = progen seed in
    let bytes = Wire.encode p in
    Alcotest.(check string)
      (str "seed %d: encode deterministic" seed)
      bytes (Wire.encode p);
    match Wire.decode bytes with
    | Error e ->
        Alcotest.fail
          (str "seed %d: decode failed: %s" seed
             (Format.asprintf "%a" Wire.pp_error e))
    | Ok q ->
        Alcotest.(check string)
          (str "seed %d: digest preserved" seed)
          (Intern.digest p) (Intern.digest q)
  done

let test_wire_text_round_trip_500 () =
  for seed = 0 to 499 do
    let p = progen seed in
    match Wire.decode_text (Wire.encode_text p) with
    | Error e ->
        Alcotest.fail
          (str "seed %d: decode_text failed: %s" seed
             (Format.asprintf "%a" Wire.pp_error e))
    | Ok q ->
        Alcotest.(check string)
          (str "seed %d: digest preserved" seed)
          (Intern.digest p) (Intern.digest q)
  done

let test_wire_managed_round_trip () =
  let ok = ref 0 in
  for seed = 0 to 24 do
    match
      Fhe_strategy.Registry.compile_safe
        (Fhe_strategy.Registry.get_exn "reserve-full")
        (Fhe_strategy.Strategy.config ~rbits:60 ~wbits:30 ())
        ~strict:false ~oracle:true (progen seed)
    with
    | Error _ -> ()
    | Ok o -> (
        incr ok;
        let m = o.Fhe_strategy.Registry.managed in
        match Wire.decode_managed (Wire.encode_managed m) with
        | Error e ->
            Alcotest.fail
              (str "seed %d: decode_managed failed: %s" seed
                 (Format.asprintf "%a" Wire.pp_error e))
        | Ok m' ->
            Alcotest.(check string)
              (str "seed %d: managed bytes stable" seed)
              (Wire.encode_managed m) (Wire.encode_managed m');
            Alcotest.(check string)
              (str "seed %d: program digest preserved" seed)
              (Intern.digest m.Managed.prog)
              (Intern.digest m'.Managed.prog))
  done;
  Alcotest.(check bool)
    (str "corpus yields compiles (%d ok)" !ok)
    true (!ok > 15)

(* the registry apps are fixed programs, so their encodings are pinned
   as golden files: any byte-level drift of the v1 format (which the
   on-disk cache and the daemon protocol both speak) fails here *)
let golden_program () = (Reg.find "SF").Reg.build ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun ch -> Buffer.add_string b (str "%02x" (Char.code ch))) s;
  Buffer.contents b

let test_wire_golden_text () =
  Alcotest.(check string)
    "textual v1 encoding of SF is pinned"
    (read_file "golden/wire_v1.txt")
    (Wire.encode_text (golden_program ()))

let test_wire_golden_binary () =
  Alcotest.(check string)
    "binary v1 encoding of SF is pinned"
    (String.trim (read_file "golden/wire_v1.bin.hex"))
    (hex (Wire.encode (golden_program ())))

(* ----------------------------------------------------------------- *)
(* Wire: hostile input *)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let no_raise what f =
  match f () with
  | (_ : bool) -> ()
  | exception e ->
      Alcotest.fail (str "%s raised %s" what (Printexc.to_string e))

let test_wire_hostile_truncations () =
  let bytes = Wire.encode (golden_program ()) in
  let n = String.length bytes in
  for cut = 0 to n - 1 do
    let sub = String.sub bytes 0 cut in
    no_raise (str "decode of %d-byte prefix" cut) (fun () ->
        Result.is_ok (Wire.decode sub));
    (* a strict prefix can never be a complete program *)
    Alcotest.(check bool)
      (str "%d-byte prefix rejected" cut)
      true
      (Result.is_error (Wire.decode sub))
  done

let test_wire_hostile_bit_flips () =
  let bytes = Wire.encode (golden_program ()) in
  let n = String.length bytes in
  let rng = Fhe_util.Prng.create 0xbadbeef in
  for _ = 1 to 500 do
    let i = Fhe_util.Prng.int rng (n * 8) in
    let b = Bytes.of_string bytes in
    let c = Char.code (Bytes.get b (i / 8)) in
    Bytes.set b (i / 8) (Char.chr (c lxor (1 lsl (i mod 8))));
    let s = Bytes.to_string b in
    no_raise (str "decode with bit %d flipped" i) (fun () ->
        Result.is_ok (Wire.decode s));
    no_raise (str "decode_managed with bit %d flipped" i) (fun () ->
        Result.is_ok (Wire.decode_managed s))
  done

let test_wire_hostile_text () =
  let text = Wire.encode_text (golden_program ()) in
  let lines = String.split_on_char '\n' text in
  (* line-granular truncations *)
  List.iteri
    (fun k _ ->
      let sub =
        String.concat "\n" (List.filteri (fun i _ -> i < k) lines)
      in
      no_raise (str "decode_text of %d lines" k) (fun () ->
          Result.is_ok (Wire.decode_text sub)))
    lines;
  (* seeded character corruptions *)
  let rng = Fhe_util.Prng.create 0x7e17 in
  let n = String.length text in
  for _ = 1 to 200 do
    let i = Fhe_util.Prng.int rng n in
    let b = Bytes.of_string text in
    Bytes.set b i (Char.chr (Fhe_util.Prng.int rng 256));
    no_raise (str "decode_text with byte %d corrupted" i) (fun () ->
        Result.is_ok (Wire.decode_text (Bytes.to_string b)))
  done

(* ----------------------------------------------------------------- *)
(* Protocol: message round trips *)

let sample_request () =
  {
    (app_request ~tenant:"acme" ~compiler:"reserve-ra" "HCD") with
    Proto.strategies = [ "eva"; "reserve-full" ];
    iterations = 7;
    allow_fallback = true;
    oracle = true;
    deadline_ms = 1234;
  }

let test_protocol_request_round_trip () =
  let check_rt (r : Proto.request) =
    let typ, payload = Proto.encode_request r in
    match Proto.decode_request ~typ payload with
    | Error m -> Alcotest.fail (str "decode_request: %s" m)
    | Ok r' ->
        (* re-encoding the decoded message must reproduce the bytes *)
        let typ', payload' = Proto.encode_request r' in
        Alcotest.(check int) "type byte" typ typ';
        Alcotest.(check string) "payload bytes" payload payload'
  in
  check_rt (Proto.Compile (sample_request ()));
  check_rt Proto.Ping;
  check_rt Proto.Shutdown;
  check_rt Proto.Stats;
  (* field-level spot check through the codec *)
  let typ, payload = Proto.encode_request (Proto.Compile (sample_request ())) in
  match Proto.decode_request ~typ payload with
  | Ok (Proto.Compile r) ->
      Alcotest.(check string) "tenant" "acme" r.Proto.tenant;
      Alcotest.(check string) "compiler" "reserve-ra" r.Proto.compiler;
      Alcotest.(check int) "deadline" 1234 r.Proto.deadline_ms;
      Alcotest.(check bool) "fallback flag" true r.Proto.allow_fallback;
      Alcotest.(check bool) "oracle flag" true r.Proto.oracle;
      Alcotest.(check string) "program digest"
        (Intern.digest (sample_request ()).Proto.program)
        (Intern.digest r.Proto.program)
  | _ -> Alcotest.fail "compile request did not survive the codec"

let test_protocol_reply_round_trip () =
  let managed = Fhe_eva.Eva.compile ~rbits:60 ~wbits:30 (golden_program ()) in
  let compiled =
    { Proto.engine = "eva"; wbits_used = 30; warnings = [ "w1"; "w2" ]; managed }
  in
  List.iter
    (fun (r : Proto.reply) ->
      let typ, payload = Proto.encode_reply r in
      match Proto.decode_reply ~typ payload with
      | Error m ->
          Alcotest.fail (str "decode_reply (%s): %s" (Proto.reply_name r) m)
      | Ok r' ->
          let typ', payload' = Proto.encode_reply r' in
          Alcotest.(check int)
            (str "%s: type byte" (Proto.reply_name r))
            typ typ';
          Alcotest.(check string)
            (str "%s: payload bytes" (Proto.reply_name r))
            payload payload')
    [
      Proto.Compiled compiled;
      Proto.Degraded { compiled with warnings = [] };
      Proto.Shed { retry_after_ms = 40; reason = "at capacity" };
      Proto.Timed_out "budget exceeded";
      Proto.Failed [ "diag one"; "diag two" ];
      Proto.Bad_request "no";
      Proto.Pong;
      Proto.Stats_reply "{\"inflight\":0}";
    ]

(* ----------------------------------------------------------------- *)
(* Protocol: the decode boundary *)

let test_protocol_hostile_payloads () =
  let typ, payload = Proto.encode_request (Proto.Compile (sample_request ())) in
  let n = String.length payload in
  (* every truncation decodes to Error without raising *)
  for cut = 0 to n - 1 do
    let sub = String.sub payload 0 cut in
    no_raise (str "request decode of %d-byte prefix" cut) (fun () ->
        Result.is_ok (Proto.decode_request ~typ sub));
    Alcotest.(check bool)
      (str "%d-byte prefix rejected" cut)
      true
      (Result.is_error (Proto.decode_request ~typ sub))
  done;
  (* seeded bit flips: Ok or Error, never an exception *)
  let rng = Fhe_util.Prng.create 0x5eed in
  for _ = 1 to 500 do
    let i = Fhe_util.Prng.int rng (n * 8) in
    let b = Bytes.of_string payload in
    let c = Char.code (Bytes.get b (i / 8)) in
    Bytes.set b (i / 8) (Char.chr (c lxor (1 lsl (i mod 8))));
    no_raise (str "request decode with bit %d flipped" i) (fun () ->
        Result.is_ok (Proto.decode_request ~typ (Bytes.to_string b)))
  done;
  (* a lying length prefix must be rejected before allocation: the
     first field is the tenant string, length-prefixed as a u32 *)
  let lying = Bytes.of_string payload in
  Bytes.set_int32_le lying 0 0x7fffffffl;
  Alcotest.(check bool) "lying u32 length rejected" true
    (Result.is_error (Proto.decode_request ~typ (Bytes.to_string lying)));
  (* unknown message types are typed errors *)
  Alcotest.(check bool) "unknown request type" true
    (Result.is_error (Proto.decode_request ~typ:99 payload));
  Alcotest.(check bool) "unknown reply type" true
    (Result.is_error (Proto.decode_reply ~typ:99 payload));
  (* control messages must have empty payloads *)
  let ping_typ, _ = Proto.encode_request Proto.Ping in
  Alcotest.(check bool) "ping with trailing junk rejected" true
    (Result.is_error (Proto.decode_request ~typ:ping_typ "x"))

let test_protocol_rejects_bad_ranges () =
  let rt (r : Proto.compile_request) =
    let typ, payload = Proto.encode_request (Proto.Compile r) in
    Proto.decode_request ~typ payload
  in
  let base = app_request "SF" in
  (* the encoder is faithful even to nonsense; the decoder is the
     boundary that keeps it away from the engines *)
  Alcotest.(check bool) "wbits > rbits rejected" true
    (Result.is_error (rt { base with Proto.rbits = 60; wbits = 62 }));
  Alcotest.(check bool) "rbits = 0 rejected" true
    (Result.is_error (rt { base with Proto.rbits = 0; wbits = 0 }));
  Alcotest.(check bool) "rbits > 120 rejected" true
    (Result.is_error (rt { base with Proto.rbits = 121; wbits = 30 }));
  Alcotest.(check bool) "xmax_bits > 120 rejected" true
    (Result.is_error (rt { base with Proto.xmax_bits = 121 }));
  Alcotest.(check bool) "in-range accepted" true (Result.is_ok (rt base))

(* each scenario gets a fresh pipe: a rejected frame can leave
   unconsumed bytes behind, and real servers drop the connection at
   that point rather than resynchronise *)
let with_pipe f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () -> f rd wr)

let test_protocol_framing_over_fd () =
  let typ, payload = Proto.encode_request (Proto.Compile (sample_request ())) in
  let frame = Proto.frame ~typ payload in
  (* a well-formed frame round-trips *)
  with_pipe (fun rd wr ->
      (match Proto.write_frame wr ~typ payload with
      | Error m -> Alcotest.fail (str "write_frame: %s" m)
      | Ok () -> ());
      match Proto.read_frame rd with
      | Ok (version, typ', payload') ->
          Alcotest.(check int) "frame version" Proto.version version;
          Alcotest.(check int) "frame type" typ typ';
          Alcotest.(check string) "frame payload" payload payload'
      | Error e ->
          Alcotest.fail
            (Format.asprintf "read_frame: %a" Proto.pp_read_error e));
  (* bad magic is malformed, not fatal *)
  with_pipe (fun rd wr ->
      let bad = Bytes.of_string frame in
      Bytes.set bad 0 'X';
      let wrote = Unix.write wr bad 0 (Bytes.length bad) in
      Alcotest.(check int) "wrote the corrupt frame" (Bytes.length bad) wrote;
      match Proto.read_frame rd with
      | Error (`Malformed _) -> ()
      | Ok _ -> Alcotest.fail "bad magic accepted"
      | Error e ->
          Alcotest.fail
            (Format.asprintf "bad magic: expected Malformed, got %a"
               Proto.pp_read_error e));
  (* a declared length over the cap is rejected from the header alone *)
  with_pipe (fun rd wr ->
      let huge = Bytes.of_string frame in
      Bytes.set_int32_le huge (Proto.header_len - 4) 0x7fffffffl;
      let _ = Unix.write wr huge 0 (Bytes.length huge) in
      match Proto.read_frame ~max_payload:65536 rd with
      | Error (`Malformed _) -> ()
      | _ -> Alcotest.fail "oversized frame accepted");
  (* mid-frame EOF is malformed *)
  with_pipe (fun rd wr ->
      let prefix = String.sub frame 0 (Proto.header_len + 3) in
      let _ = Unix.write_substring wr prefix 0 (String.length prefix) in
      Unix.close wr;
      match Proto.read_frame rd with
      | Error (`Malformed _) -> ()
      | _ -> Alcotest.fail "mid-frame EOF not malformed");
  (* EOF at a frame boundary is a clean close *)
  with_pipe (fun rd wr ->
      Unix.close wr;
      match Proto.read_frame rd with
      | Error `Closed -> ()
      | _ -> Alcotest.fail "EOF at boundary should be Closed")

(* ----------------------------------------------------------------- *)
(* Admission control *)

let test_admission_thresholds () =
  let a = Admission.create ~capacity:3 ~degrade_at:2 in
  (match Admission.try_admit a with
  | `Go Admission.Normal -> ()
  | _ -> Alcotest.fail "first admit should be Normal");
  (match Admission.try_admit a with
  | `Go Admission.Normal -> ()
  | _ -> Alcotest.fail "second admit should be Normal");
  (match Admission.try_admit a with
  | `Go Admission.Pressured -> ()
  | _ -> Alcotest.fail "third admit should be Pressured");
  (match Admission.try_admit a with
  | `Shed -> ()
  | `Go _ -> Alcotest.fail "fourth admit should shed");
  let s = Admission.stats a in
  Alcotest.(check int) "inflight" 3 s.Admission.inflight;
  Alcotest.(check int) "admitted" 3 s.Admission.admitted;
  Alcotest.(check int) "shed" 1 s.Admission.shed;
  Admission.release a;
  (match Admission.try_admit a with
  | `Go _ -> ()
  | `Shed -> Alcotest.fail "a released slot must be admittable");
  Alcotest.check_raises "degrade_at 0 rejected"
    (Invalid_argument "Admission.create: degrade_at out of [1, capacity]")
    (fun () -> ignore (Admission.create ~capacity:2 ~degrade_at:0))

let test_admission_stats_json () =
  let a = Admission.create ~capacity:4 ~degrade_at:3 in
  (match Admission.try_admit a with `Go _ -> () | `Shed -> ());
  Admission.note_degraded a;
  Admission.note_timeout a;
  let json = Admission.stats_json (Admission.stats a) in
  match Fhe_check.Benchjson.parse json with
  | Error m -> Alcotest.fail (str "stats json does not parse: %s" m)
  | Ok j ->
      let int_field k =
        match Fhe_check.Benchjson.member k j with
        | Some (Fhe_check.Benchjson.Num f) -> int_of_float f
        | _ -> Alcotest.fail (str "missing stats field %s" k)
      in
      Alcotest.(check int) "inflight" 1 (int_field "inflight");
      Alcotest.(check int) "degraded" 1 (int_field "degraded");
      Alcotest.(check int) "timeouts" 1 (int_field "timeouts")

(* ----------------------------------------------------------------- *)
(* The daemon, end to end *)

let test_server_ping_stats_shutdown () =
  with_server "ctl" @@ fun socket t ->
  (match Client.connect ~socket () with
  | Error m -> Alcotest.fail (str "connect: %s" m)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.ping c with
          | Ok () -> ()
          | Error m -> Alcotest.fail (str "ping: %s" m));
          (match Client.stats c with
          | Ok json ->
              Alcotest.(check bool) "stats is json" true
                (Result.is_ok (Fhe_check.Benchjson.parse json))
          | Error m -> Alcotest.fail (str "stats: %s" m));
          match Client.shutdown_server c with
          | Ok () -> ()
          | Error m -> Alcotest.fail (str "shutdown: %s" m)));
  (* the acceptor notices promptly *)
  let deadline = Unix.gettimeofday () +. 5. in
  while Server.running t && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "server stopped" false (Server.running t)

(* the five named strategies plus portfolio mode: 8 apps x 6 selectors
   of served-vs-local byte parity *)
let compilers =
  [ "eva"; "hecate"; "reserve-ba"; "reserve-ra"; "reserve-full"; "portfolio" ]

let test_served_equals_local_all_apps () =
  (* the Lenet requests stream ~17 MiB through the socket while the
     co-process client is GC-heavy; the short harness read timeout
     would misread a long GC pause as a slow-loris stall *)
  with_server ~capacity:8 ~read_timeout_ms:10_000 "parity" @@ fun socket _t ->
  List.iter
    (fun (a : Reg.app) ->
      List.iter
        (fun compiler ->
          let req = app_request ~compiler a.Reg.name in
          let served =
            match Client.connect ~timeout_ms:120_000 ~socket () with
            | Error m ->
                Alcotest.fail (str "%s/%s: connect: %s" a.Reg.name compiler m)
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    match Client.compile c req with
                    | Ok r -> r
                    | Error m ->
                        Alcotest.fail
                          (str "%s/%s: transport: %s" a.Reg.name compiler m))
          in
          let local = Server.compile_one Admission.Normal req in
          match (served, local) with
          | Proto.Compiled s, Proto.Compiled l ->
              Alcotest.(check string)
                (str "%s/%s: engine" a.Reg.name compiler)
                l.Proto.engine s.Proto.engine;
              Alcotest.(check string)
                (str "%s/%s: served = local, byte-identical" a.Reg.name
                   compiler)
                (managed_bytes l.Proto.managed)
                (managed_bytes s.Proto.managed)
          | r, l ->
              Alcotest.fail
                (str "%s/%s: served %s, local %s" a.Reg.name compiler
                   (Proto.reply_name r) (Proto.reply_name l)))
        compilers)
    Reg.all

let test_server_survives_garbage_frames () =
  with_server "garbage" @@ fun socket _t ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      (* a well-framed but undecodable payload: the server must answer
         Bad_request and keep the connection aligned *)
      let typ_compile, _ =
        Proto.encode_request (Proto.Compile (app_request "SF"))
      in
      (match Proto.write_frame fd ~typ:typ_compile "junk payload" with
      | Ok () -> ()
      | Error m -> Alcotest.fail (str "write: %s" m));
      (match Proto.read_frame fd with
      | Ok (_version, typ, payload) -> (
          match Proto.decode_reply ~typ payload with
          | Ok (Proto.Bad_request _) -> ()
          | Ok r ->
              Alcotest.fail
                (str "expected bad-request, got %s" (Proto.reply_name r))
          | Error m -> Alcotest.fail (str "undecodable reply: %s" m))
      | Error e ->
          Alcotest.fail
            (Format.asprintf "no reply to garbage: %a" Proto.pp_read_error e));
      (* an unknown frame type likewise *)
      (match Proto.write_frame fd ~typ:42 "" with
      | Ok () -> ()
      | Error m -> Alcotest.fail (str "write: %s" m));
      (match Proto.read_frame fd with
      | Ok (_version, typ, payload) -> (
          match Proto.decode_reply ~typ payload with
          | Ok (Proto.Bad_request _) -> ()
          | Ok r ->
              Alcotest.fail
                (str "expected bad-request, got %s" (Proto.reply_name r))
          | Error m -> Alcotest.fail (str "undecodable reply: %s" m))
      | Error e ->
          Alcotest.fail
            (Format.asprintf "no reply to unknown type: %a" Proto.pp_read_error
               e));
      (* and the connection still serves a clean ping *)
      let ping_typ, ping_payload = Proto.encode_request Proto.Ping in
      (match Proto.write_frame fd ~typ:ping_typ ping_payload with
      | Ok () -> ()
      | Error m -> Alcotest.fail (str "write: %s" m));
      match Proto.read_frame fd with
      | Ok (_version, typ, payload) -> (
          match Proto.decode_reply ~typ payload with
          | Ok Proto.Pong -> ()
          | Ok r -> Alcotest.fail (str "expected pong, got %s" (Proto.reply_name r))
          | Error m -> Alcotest.fail (str "undecodable pong: %s" m))
      | Error e ->
          Alcotest.fail
            (Format.asprintf "connection lost after garbage: %a"
               Proto.pp_read_error e))

let test_server_fault_matrix () =
  with_server ~read_timeout_ms:150 "faults" @@ fun socket t ->
  let req = app_request ~tenant:"faulted" "SF" in
  let typ, payload = Proto.encode_request (Proto.Compile req) in
  let base = Proto.frame ~typ payload in
  let len = String.length base in
  List.iter
    (fun cls ->
      for seed = 0 to 7 do
        let plan = Faults.wire_plan cls ~seed ~len in
        let bytes = Faults.wire_apply plan base in
        let conduct =
          match plan with
          | Faults.Stall { delay_ms; _ } -> `Stall delay_ms
          | Faults.Disconnect _ -> `Close
          | Faults.Truncate _ | Faults.Flip_bit _ -> `Read_reply
        in
        (match Client.raw ~socket ~bytes conduct with
        | Error m ->
            Alcotest.fail
              (str "%s seed %d: connect failed: %s" (Faults.wire_name cls)
                 seed m)
        | Ok (`Reply r) ->
            (* any structured reply is acceptable; what is not is a
               crash, a hang, or an undecodable answer *)
            Alcotest.(check bool)
              (str "%s seed %d: structured reply %s" (Faults.wire_name cls)
                 seed (Proto.reply_name r))
              true
              (String.length (Proto.reply_name r) > 0)
        | Ok (`No_reply _) | Ok `Closed | Ok (`Send_failed _) -> ());
        Alcotest.(check bool)
          (str "%s seed %d: server alive" (Faults.wire_name cls) seed)
          true (Server.running t)
      done)
    Faults.wire_all;
  (* zero wrong answers: after the whole matrix a clean request still
     compiles, byte-identical to the local dispatch *)
  match Client.connect ~socket () with
  | Error m -> Alcotest.fail (str "post-matrix connect: %s" m)
  | Ok c -> (
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.ping c with
          | Ok () -> ()
          | Error m -> Alcotest.fail (str "post-matrix ping: %s" m));
          match (Client.compile c req, Server.compile_one Admission.Normal req) with
          | Ok (Proto.Compiled s), Proto.Compiled l ->
              Alcotest.(check string) "post-matrix compile byte-identical"
                (managed_bytes l.Proto.managed)
                (managed_bytes s.Proto.managed)
          | Ok r, _ ->
              Alcotest.fail
                (str "post-matrix compile: %s" (Proto.reply_name r))
          | Error m, _ -> Alcotest.fail (str "post-matrix transport: %s" m)))

let test_server_sheds_at_capacity () =
  with_server ~capacity:1 ~degrade_at:1 "shed" @@ fun socket t ->
  (* hold the single slot with a deliberately slow compile: MR under
     hecate's full search runs >1 s cold; its deadline bounds the hold
     (a timed-out holder releases the slot, which is equally fine) *)
  let slow =
    app_request ~tenant:"slow" ~compiler:"hecate" ~iterations:0
      ~deadline_ms:3000 "MR"
  in
  let slow_reply = ref None in
  let holder =
    Thread.create
      (fun () ->
        match Client.connect ~timeout_ms:60_000 ~socket () with
        | Error m -> slow_reply := Some (Error m)
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> slow_reply := Some (Client.compile c slow)))
      ()
  in
  Thread.delay 0.25;
  (match Client.connect ~socket () with
  | Error m -> Alcotest.fail (str "connect: %s" m)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.compile c (app_request ~compiler:"eva" "SF") with
          | Ok (Proto.Shed { retry_after_ms; _ }) ->
              Alcotest.(check bool) "retry_after_ms positive" true
                (retry_after_ms > 0)
          | Ok r ->
              Alcotest.fail
                (str "expected shed at capacity, got %s" (Proto.reply_name r))
          | Error m -> Alcotest.fail (str "transport: %s" m)));
  Thread.join holder;
  (match !slow_reply with
  | Some (Ok (Proto.Compiled _)) | Some (Ok (Proto.Timed_out _)) -> ()
  | Some (Ok r) ->
      Alcotest.fail (str "slot holder got %s" (Proto.reply_name r))
  | Some (Error m) -> Alcotest.fail (str "slot holder transport: %s" m)
  | None -> Alcotest.fail "slot holder never finished");
  let s = Server.stats t in
  Alcotest.(check bool) "shed counted" true (s.Admission.shed >= 1)

let test_server_deadline_timeout () =
  with_server ~read_timeout_ms:10_000 "deadline" @@ fun socket t ->
  (* Lenet-5 under reserve-full runs hundreds of ms cold; a 1 ms budget
     must come back as a structured timeout, not a hang or a crash *)
  let req = app_request ~tenant:"tmo" ~deadline_ms:1 "Lenet-5" in
  (match Client.connect ~timeout_ms:30_000 ~socket () with
  | Error m -> Alcotest.fail (str "connect: %s" m)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.compile c req with
          | Ok (Proto.Timed_out msg) ->
              Alcotest.(check bool) "diag mentions the budget" true
                (contains_sub ~sub:"deadline" msg)
          | Ok r ->
              Alcotest.fail
                (str "expected timeout, got %s" (Proto.reply_name r))
          | Error m -> Alcotest.fail (str "transport: %s" m)));
  let s = Server.stats t in
  Alcotest.(check bool) "timeout counted" true (s.Admission.timeouts >= 1)

let test_degradation_policy () =
  fresh_cache ();
  (* wbits 62 > rbits 60 cannot compile strictly (and cannot arrive on
     the wire: decode rejects it) — locally it proves the policy: the
     strict path fails, the pressured path degrades the waterline *)
  let req =
    { (app_request "SF") with Proto.rbits = 60; wbits = 62; oracle = true }
  in
  (match Server.compile_one Admission.Normal req with
  | Proto.Failed diags ->
      Alcotest.(check bool) "strict failure carries diagnostics" true
        (diags <> [])
  | r ->
      Alcotest.fail
        (str "strict over-waterline: expected failed, got %s"
           (Proto.reply_name r)));
  (match Server.compile_one Admission.Pressured req with
  | Proto.Degraded d ->
      Alcotest.(check bool) "waterline degraded" true
        (d.Proto.wbits_used < req.Proto.wbits);
      Alcotest.(check bool) "degradation is explained" true
        (d.Proto.warnings <> [])
  | r ->
      Alcotest.fail
        (str "pressured over-waterline: expected degraded, got %s"
           (Proto.reply_name r)));
  match
    Server.compile_one Admission.Normal
      { req with Proto.allow_fallback = true }
  with
  | Proto.Degraded _ -> ()
  | r ->
      Alcotest.fail
        (str "allow_fallback: expected degraded, got %s" (Proto.reply_name r))

let test_tenant_namespacing () =
  fresh_cache ();
  let req tenant = app_request ~tenant "HCD" in
  let bytes_of = function
    | Proto.Compiled c -> managed_bytes c.Proto.managed
    | r -> Alcotest.fail (str "expected ok, got %s" (Proto.reply_name r))
  in
  let a1 = bytes_of (Server.compile_one Admission.Normal (req "alpha")) in
  let s1 = Store.stats () in
  (* a different tenant must not see alpha's entry: its compile is a
     fresh miss *)
  let b1 = bytes_of (Server.compile_one Admission.Normal (req "beta")) in
  let s2 = Store.stats () in
  Alcotest.(check bool) "beta missed" true (s2.Store.misses > s1.Store.misses);
  (* alpha again is served from its own namespace *)
  let a2 = bytes_of (Server.compile_one Admission.Normal (req "alpha")) in
  let s3 = Store.stats () in
  Alcotest.(check bool) "alpha hit" true (s3.Store.hits > s2.Store.hits);
  Alcotest.(check string) "alpha stable across the hit" a1 a2;
  Alcotest.(check string) "tenants compute the same plan" a1 b1;
  Alcotest.(check (option string)) "namespace restored" None (Store.namespace ())

let test_restart_recovery_sweep () =
  let dir = str "_serve_sweep_%d" (Unix.getpid ()) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let plant name =
        let oc = open_out_bin (Filename.concat dir name) in
        output_string oc "orphaned partial write";
        close_out oc
      in
      plant "aaaa.bin.tmp.1234.0";
      plant "bbbb.bin.tmp.99.3";
      plant "legit-entry.bin";
      Alcotest.(check int) "sweep removes exactly the orphans" 2
        (Fhe_cache.Disk.sweep ~dir);
      Alcotest.(check bool) "real entries survive" true
        (Sys.file_exists (Filename.concat dir "legit-entry.bin"));
      (* the store runs the same sweep on open — the daemon's startup
         path — and counts it *)
      plant "cccc.bin.tmp.42.1";
      fresh_cache ();
      Store.set_dir (Some dir);
      let s = Store.stats () in
      Alcotest.(check int) "store open swept the orphan" 1 s.Store.swept;
      Store.set_dir None)

let test_client_retry_immediate_ok () =
  with_server "retry-ok" @@ fun socket _t ->
  match
    Client.compile_retry ~socket (app_request ~compiler:"eva" "SF")
  with
  | Ok (Proto.Compiled _, log) ->
      Alcotest.(check int) "one attempt" 1 log.Client.attempts;
      Alcotest.(check int) "no sheds" 0 log.Client.sheds;
      Alcotest.(check int) "no transport errors" 0 log.Client.transport_errors
  | Ok (r, _) -> Alcotest.fail (str "expected ok, got %s" (Proto.reply_name r))
  | Error m -> Alcotest.fail (str "retry failed: %s" m)

let test_client_retry_dead_socket () =
  let socket = sock "nobody-home" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  match
    Client.compile_retry ~attempts:3 ~base_delay_ms:1. ~socket
      (app_request ~compiler:"eva" "SF")
  with
  | Error _ -> ()
  | Ok (r, _) ->
      Alcotest.fail
        (str "dead socket produced a reply: %s" (Proto.reply_name r))

let test_client_retry_rides_out_shed () =
  with_server ~capacity:1 ~degrade_at:1 "retry-shed" @@ fun socket t ->
  (* the holder takes the only slot with a compile that is short but
     not instant (a capped Hecate exploration, well under a second
     unloaded), and its deadline bounds the hold from above.  An
     uncapped exploration would run for seconds past its deadline on
     the single worker domain, and the retried compile, queued behind
     it, could hit its own deadline on a loaded host. *)
  let slow =
    app_request ~tenant:"slow" ~compiler:"hecate" ~iterations:1000
      ~deadline_ms:1200 "MR"
  in
  let holder =
    Thread.create
      (fun () ->
        match Client.connect ~timeout_ms:60_000 ~socket () with
        | Error _ -> ()
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> ignore (Client.compile c slow)))
      ()
  in
  (* start retrying only once the server has admitted the holder: a
     fixed head start can run out on a loaded host *)
  let admitted_by = Unix.gettimeofday () +. 30. in
  while
    (Server.stats t).Admission.inflight < 1
    && Unix.gettimeofday () < admitted_by
  do
    Thread.delay 0.005
  done;
  Alcotest.(check bool) "holder admitted" true
    ((Server.stats t).Admission.inflight >= 1);
  (* generous attempt budget: on a loaded 1-core host the holder's
     compile (and the server's deadline bookkeeping) time-dilates, and
     the early exponential-backoff attempts can all land inside the
     hold window *)
  let result =
    Client.compile_retry ~attempts:14 ~base_delay_ms:100. ~socket
      (app_request ~compiler:"eva" "SF")
  in
  Thread.join holder;
  match result with
  | Ok (Proto.Compiled _, log) ->
      Alcotest.(check bool)
        (str "shed at least once (%d sheds, %d attempts)" log.Client.sheds
           log.Client.attempts)
        true
        (log.Client.sheds >= 1);
      Alcotest.(check bool) "then retried through" true (log.Client.attempts >= 2)
  | Ok (r, _) -> Alcotest.fail (str "expected ok, got %s" (Proto.reply_name r))
  | Error m -> Alcotest.fail (str "retry failed: %s" m)

let test_loadgen_smoke () =
  with_server "loadgen" @@ fun socket _t ->
  let req = app_request ~compiler:"eva" "SF" in
  let s = Loadgen.run ~socket ~threads:2 ~per_thread:3 ~make_request:(fun _ -> req) () in
  Alcotest.(check int) "all requests issued" 6 s.Loadgen.requests;
  Alcotest.(check int) "all ok" 6 s.Loadgen.ok;
  Alcotest.(check int) "no transport failures" 0 s.Loadgen.transport;
  Alcotest.(check bool) "qps measured" true (s.Loadgen.qps > 0.);
  Alcotest.(check bool) "p99 >= p50 >= 0" true
    (s.Loadgen.p99_ms >= s.Loadgen.p50_ms && s.Loadgen.p50_ms >= 0.)

(* ----------------------------------------------------------------- *)

let () =
  fresh_cache ();
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "serve"
    [
      ( "wire",
        [
          t "binary round trip, 500 programs" test_wire_binary_round_trip_500;
          t "text round trip, 500 programs" test_wire_text_round_trip_500;
          t "managed round trip" test_wire_managed_round_trip;
          t "golden: textual encoding pinned" test_wire_golden_text;
          t "golden: binary encoding pinned" test_wire_golden_binary;
          t "hostile: every truncation rejected" test_wire_hostile_truncations;
          t "hostile: bit flips never raise" test_wire_hostile_bit_flips;
          t "hostile: corrupt text never raises" test_wire_hostile_text;
        ] );
      ( "protocol",
        [
          t "request round trip" test_protocol_request_round_trip;
          t "reply round trip" test_protocol_reply_round_trip;
          t "hostile payloads never raise" test_protocol_hostile_payloads;
          t "out-of-range configs rejected" test_protocol_rejects_bad_ranges;
          t "framing over a real fd" test_protocol_framing_over_fd;
        ] );
      ( "admission",
        [
          t "normal / pressured / shed thresholds" test_admission_thresholds;
          t "stats json" test_admission_stats_json;
        ] );
      ( "daemon",
        [
          t "ping, stats, shutdown" test_server_ping_stats_shutdown;
          t "served = local, 8 apps x 5 compilers"
            test_served_equals_local_all_apps;
          t "garbage frames keep the connection" test_server_survives_garbage_frames;
          t "seeded wire-fault matrix" test_server_fault_matrix;
          t "sheds at capacity" test_server_sheds_at_capacity;
          t "deadline budget times out" test_server_deadline_timeout;
          t "degradation policy" test_degradation_policy;
          t "tenant cache isolation" test_tenant_namespacing;
          t "restart recovery sweeps orphans" test_restart_recovery_sweep;
        ] );
      ( "client",
        [
          t "retry: immediate success" test_client_retry_immediate_ok;
          t "retry: dead socket exhausts attempts" test_client_retry_dead_socket;
          t "retry: rides out shedding" test_client_retry_rides_out_shed;
          t "loadgen smoke" test_loadgen_smoke;
        ] );
    ]
