(* The strategy tier (dune build @strategy).

   lib/strategy under test: the Scale_strategy interface every compiler
   implements, the registry that is now the only way drivers reach a
   compiler, and the portfolio mode that races them.

   The load-bearing properties:
   - the registry's canonical order, names, aliases and capability
     flags are pinned (they order the differential report, the
     Benchjson entries, and the serve strategies reply);
   - Strategy.cache_key mints the literal keys the stores have always
     used, so existing on-disk stores keep hitting;
   - each strategy's plan, through compile_uncached and through the
     strict compile_safe, has the pinned MD5 of the legacy direct entry
     point's Wire bytes;
   - the `fhec compile` fallback chain prints the pinned goldens
     (test/golden/compile-*, the dune rules);
   - the portfolio winner never scores worse than any leg, the report
     is identical at any pool width, and a warm store serves every leg
     from cache (verified via Store counters);
   - protocol v2 carries the strategy subset, v1 frames still decode
     (golden-pinned), and every truncation of a v2 payload fails.

   The register test mutates the process-global registry, so it runs
   last. *)

open Fhe_ir
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry
module Portfolio = Fhe_strategy.Portfolio
module Proto = Fhe_serve.Protocol
module Server = Fhe_serve.Server
module Store = Fhe_cache.Store
module Reg = Fhe_apps.Registry

let str = Printf.sprintf
let hecate_iters = 10

(* every cache-touching test starts from a known store configuration;
   the store is process-global and alcotest runs these sequentially *)
let fresh_cache () =
  Store.set_enabled true;
  Store.set_dir None;
  Store.set_capacity 256;
  Store.reset ()

let prog name = (Reg.find name).Reg.build ()

(* iteration budgets mirror the bench emitter: full exploration on the
   small apps, capped on the LeNets to keep the tier in CI budget *)
let iters_of name =
  if String.length name >= 5 && String.sub name 0 5 = "Lenet" then 10 else 60

let managed_bytes = Wire.encode_managed

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (str "%s: %s" what e)

(* ----------------------------------------------------------------- *)
(* Registry: order, names, aliases, caps *)

let test_registry_order () =
  Alcotest.(check (list string))
    "canonical registration order"
    [ "eva"; "hecate"; "reserve-ba"; "reserve-ra"; "reserve-full" ]
    (SReg.names ())

let test_registry_aliases () =
  let resolves spelling expect =
    match SReg.of_name spelling with
    | Some s -> Alcotest.(check string) (str "%S resolves" spelling) expect (St.name s)
    | None -> Alcotest.fail (str "%S did not resolve" spelling)
  in
  resolves "eva" "eva";
  resolves "EVA" "eva";
  resolves "hecate" "hecate";
  resolves "ba" "reserve-ba";
  resolves "ra" "reserve-ra";
  resolves "full" "reserve-full";
  resolves "reserve" "reserve-full";
  resolves "RESERVE-FULL" "reserve-full";
  Alcotest.(check bool) "unknown name is None" true
    (SReg.of_name "seal" = None);
  (* portfolio is a mode, not a strategy *)
  Alcotest.(check bool) "portfolio is not a strategy" true
    (SReg.of_name Portfolio.mode_name = None);
  match SReg.get_exn "no-such-strategy" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get_exn accepted an unknown name"

let test_registry_caps () =
  let caps name = St.caps_string (St.caps (SReg.get_exn name)) in
  Alcotest.(check string) "eva caps" "-" (caps "eva");
  Alcotest.(check string) "hecate caps" "explores" (caps "hecate");
  Alcotest.(check string) "ba caps" "fallback" (caps "reserve-ba");
  Alcotest.(check string) "ra caps" "redistributes,fallback" (caps "reserve-ra");
  Alcotest.(check string) "full caps" "redistributes,hoists,fallback"
    (caps "reserve-full");
  (* compile_safe walks the chain from exactly the reserve variants *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (str "%s starts the fallback chain" (St.name s))
        (List.mem (St.name s) [ "reserve-full"; "reserve-ra"; "reserve-ba" ])
        (St.caps s).St.fallback_chain)
    (SReg.all ());
  Alcotest.(check (list string)) "the fallback chain"
    [ "reserve-full"; "reserve-ra"; "reserve-ba"; "eva" ]
    SReg.chain

(* ----------------------------------------------------------------- *)
(* Cache keys: literal pins of the keys the stores have always used
   (captured before the registry became the only compile entry point),
   so on-disk stores built earlier keep hitting *)

let test_cache_keys_legacy () =
  let cfg =
    St.config ~xmax_bits:4 ~iterations:hecate_iters ~rbits:60 ~wbits:30 ()
  in
  List.iter
    (fun (app, name, want) ->
      Alcotest.(check string) (str "%s: %s key" app name) want
        (St.cache_key (SReg.get_exn name) cfg (prog app)))
    [ ("SF", "eva", "9154c85e713d9003a2d21d9e66190e0f");
      ("SF", "hecate", "5e4c21261651c6cee79cc3053805b86b");
      ("SF", "reserve-ba", "0c87df0459da5a7242774dd8795ddf60");
      ("SF", "reserve-ra", "da8f2349475d6b1d78ba0267aca1e65d");
      ("SF", "reserve-full", "186214068c5e20a28d383b267152be2f");
      ("HCD", "eva", "85e0a6347408ccc3aacd879b4c413989");
      ("HCD", "hecate", "88904bcd2d1758bcc77767cd0643adb1");
      ("HCD", "reserve-ba", "75c9e733acc69ed84708325ad5ba0ae1");
      ("HCD", "reserve-ra", "358cc7554ab27c2471e79d04deb9dd93");
      ("HCD", "reserve-full", "24d3710f402ff4ff190df56f7e2d2bf5") ]

let test_cache_key_hecate_default_budget () =
  let p = prog "SF" in
  let cfg = St.config ~rbits:60 ~wbits:30 () in
  Alcotest.(check string)
    "no explicit budget folds default_iterations into the key"
    (Fhe_cache.Key.make ~digest:(Intern.digest p) ~compiler:"hecate" ~rbits:60
       ~wbits:30 ~xmax_bits:0
       ~extra:[ string_of_int (Fhe_hecate.Hecate.default_iterations p) ]
       ())
    (St.cache_key (SReg.get_exn "hecate") cfg p)

(* ----------------------------------------------------------------- *)
(* Compile parity: the MD5 of every plan's Wire bytes, pinned from the
   direct entry points the registry replaced, through both the plain
   and the resilient (strict) door *)

let plan_md5 m = Digest.to_hex (Digest.string (managed_bytes m))

let test_compile_parity () =
  let cfg = St.config ~iterations:hecate_iters ~rbits:60 ~wbits:30 () in
  List.iter
    (fun (app, name, want) ->
      let p = prog app and s = SReg.get_exn name in
      Alcotest.(check string)
        (str "%s/%s: compile_uncached" app name)
        want
        (plan_md5 (SReg.compile_uncached s cfg p));
      match
        Store.bypass (fun () ->
            SReg.compile_safe s cfg ~strict:true ~oracle:true p)
      with
      | Ok o ->
          Alcotest.(check string) (str "%s/%s: compile_safe" app name) want
            (plan_md5 o.SReg.managed)
      | Error _ -> Alcotest.fail (str "%s/%s: compile_safe failed" app name))
    [ ("SF", "eva", "13d9d0164fc11705d9facbac2ed8d0b2");
      ("SF", "hecate", "13d9d0164fc11705d9facbac2ed8d0b2");
      ("SF", "reserve-ba", "83ec38ec6fc963937b6e6b601d68dfbf");
      ("SF", "reserve-ra", "83ec38ec6fc963937b6e6b601d68dfbf");
      ("SF", "reserve-full", "6180f6c92b6502ef1ac4eeda4b3a8b5d");
      ("HCD", "eva", "1488bdc355448234349adcbea5939173");
      ("HCD", "hecate", "c8d05956357d279d55b96fef35420550");
      ("HCD", "reserve-ba", "27f10398e04d72103a6bddc50602210e");
      ("HCD", "reserve-ra", "27f10398e04d72103a6bddc50602210e");
      ("HCD", "reserve-full", "18f9ab4b23e3258a268b8be54a12c9d8");
      ("LR", "eva", "fabeee4d7f5dd79c607d0a7f9f1c03fc");
      ("LR", "hecate", "61184def232892476069bccf08dae83b");
      ("LR", "reserve-ba", "5a829b8208ba6ce40c405a136697c5b1");
      ("LR", "reserve-ra", "9e594e95ce191d39c17623a44ceb38f8");
      ("LR", "reserve-full", "9e594e95ce191d39c17623a44ceb38f8");
      ("MLP", "eva", "e2ad995782bcdbe2cc8125c8cfbe2e40");
      ("MLP", "hecate", "e2ad995782bcdbe2cc8125c8cfbe2e40");
      ("MLP", "reserve-ba", "861ad647644dac221b146a36e7effbfb");
      ("MLP", "reserve-ra", "861ad647644dac221b146a36e7effbfb");
      ("MLP", "reserve-full", "b42fe8031c20184e993fbd120df2bd14") ]

let test_compile_with_phases () =
  let p = prog "HCD" in
  let cfg = St.config ~rbits:60 ~wbits:30 () in
  let s = SReg.get_exn "reserve-full" in
  let m, ph = St.compile_with_phases s cfg p in
  Alcotest.(check string) "phased compile produces the same plan"
    (managed_bytes (SReg.compile_uncached s cfg p))
    (managed_bytes m);
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (str "%s is a finite non-negative time" what) true
        (Float.is_finite v && v >= 0.))
    [
      ("analyze_ms", ph.St.analyze_ms);
      ("annotate_ms", ph.St.annotate_ms);
      ("place_ms", ph.St.place_ms);
      ("total_ms", ph.St.total_ms);
    ];
  Alcotest.(check bool) "total is the sum of the phases" true
    (Float.abs
       (ph.St.total_ms
       -. (ph.St.analyze_ms +. ph.St.annotate_ms +. ph.St.place_ms))
    < 1e-9)

(* ----------------------------------------------------------------- *)
(* Portfolio: winner optimality, pool-width identity, cache riding *)

let portfolio_cfg app =
  St.config ~iterations:(iters_of app) ~rbits:60 ~wbits:30 ()

let test_portfolio_winner_optimal () =
  fresh_cache ();
  List.iter
    (fun (a : Reg.app) ->
      let p = a.Reg.build () in
      let r = ok_exn a.Reg.name (Portfolio.run (portfolio_cfg a.Reg.name) p) in
      Alcotest.(check int)
        (str "%s: one leg per registered strategy" a.Reg.name)
        (List.length (SReg.all ()))
        (List.length r.Portfolio.legs);
      List.iter
        (fun (l : Portfolio.leg) ->
          match l.Portfolio.result with
          | Error e ->
              Alcotest.fail
                (str "%s/%s failed: %s" a.Reg.name
                   (St.name l.Portfolio.strategy)
                   e)
          | Ok _ ->
              Alcotest.(check bool)
                (str "%s: winner est <= %s" a.Reg.name
                   (St.name l.Portfolio.strategy))
                true
                (r.Portfolio.winner.Portfolio.est_latency_us
                 <= l.Portfolio.est_latency_us))
        r.Portfolio.legs)
    Reg.all

(* project a report onto its deterministic content (drop wall times
   and cache provenance — a hit and a recompute must agree on bytes) *)
let report_fingerprint (r : Portfolio.report) =
  let leg (l : Portfolio.leg) =
    str "%s est=%.6f %s"
      (St.name l.Portfolio.strategy)
      l.Portfolio.est_latency_us
      (match l.Portfolio.result with
      | Ok m -> Digest.to_hex (Digest.string (managed_bytes m))
      | Error e -> "error:" ^ e)
  in
  String.concat "\n"
    (str "winner=%s" (St.name r.Portfolio.winner.Portfolio.strategy)
    :: List.map leg r.Portfolio.legs)

let test_portfolio_pool_identity () =
  let p = prog "MLP" in
  let cfg = portfolio_cfg "MLP" in
  let run pool =
    fresh_cache ();
    report_fingerprint (ok_exn "MLP portfolio" (Portfolio.run ?pool cfg p))
  in
  let seq = run None in
  List.iter
    (fun domains ->
      let par =
        Fhe_par.Pool.with_pool ~domains (fun pool -> run (Some pool))
      in
      Alcotest.(check string)
        (str "report identical sequential vs %d domains" domains)
        seq par)
    [ 2; 4 ]

let test_portfolio_rides_cache () =
  fresh_cache ();
  let p = prog "MLP" in
  let cfg = portfolio_cfg "MLP" in
  let cold = ok_exn "cold portfolio" (Portfolio.run cfg p) in
  let s1 = Store.stats () in
  let warm = ok_exn "warm portfolio" (Portfolio.run cfg p) in
  let s2 = Store.stats () in
  let legs = List.length warm.Portfolio.legs in
  Alcotest.(check int) "warm run compiles nothing" s1.Store.misses
    s2.Store.misses;
  Alcotest.(check bool)
    (str "warm run hits the store once per leg (%d -> %d hits)"
       s1.Store.hits s2.Store.hits)
    true
    (s2.Store.hits - s1.Store.hits >= legs);
  List.iter
    (fun (l : Portfolio.leg) ->
      Alcotest.(check bool)
        (str "warm leg %s served from cache" (St.name l.Portfolio.strategy))
        true l.Portfolio.from_cache)
    warm.Portfolio.legs;
  Alcotest.(check string) "warm report identical to cold"
    (report_fingerprint cold) (report_fingerprint warm)

let test_portfolio_subset () =
  fresh_cache ();
  let p = prog "SF" in
  let cfg = portfolio_cfg "SF" in
  let subset = [ SReg.get_exn "eva"; SReg.get_exn "reserve-ba" ] in
  let r = ok_exn "subset portfolio" (Portfolio.run ~strategies:subset cfg p) in
  Alcotest.(check (list string))
    "exactly the requested legs, in order"
    [ "eva"; "reserve-ba" ]
    (List.map (fun l -> St.name l.Portfolio.strategy) r.Portfolio.legs);
  Alcotest.(check bool) "winner comes from the subset" true
    (List.mem
       (St.name r.Portfolio.winner.Portfolio.strategy)
       [ "eva"; "reserve-ba" ]);
  (* the wire protocol's "empty subset = all" convention *)
  let r' = ok_exn "empty subset" (Portfolio.run ~strategies:[] cfg p) in
  Alcotest.(check int) "empty subset races every strategy"
    (List.length (SReg.all ()))
    (List.length r'.Portfolio.legs)

(* ----------------------------------------------------------------- *)
(* Protocol v2: the strategy subset on the wire, v1 compatibility *)

let sample_request p =
  {
    Proto.tenant = "t0";
    compiler = "portfolio";
    strategies = [ "eva"; "reserve-full" ];
    rbits = 60;
    wbits = 30;
    xmax_bits = 2;
    iterations = 40;
    allow_fallback = true;
    oracle = false;
    deadline_ms = 900;
    program = p;
  }

let test_proto_v2_round_trip () =
  let p = prog "SF" in
  let req = sample_request p in
  let typ, payload = Proto.encode_request (Proto.Compile req) in
  match Proto.decode_request ~typ payload with
  | Error e -> Alcotest.fail ("v2 round trip: " ^ e)
  | Ok (Proto.Compile r) ->
      Alcotest.(check string) "tenant" req.Proto.tenant r.Proto.tenant;
      Alcotest.(check string) "compiler" req.Proto.compiler r.Proto.compiler;
      Alcotest.(check (list string))
        "strategy subset survives the wire" req.Proto.strategies
        r.Proto.strategies;
      Alcotest.(check int) "iterations" req.Proto.iterations r.Proto.iterations;
      Alcotest.(check string) "program digest"
        (Intern.digest req.Proto.program)
        (Intern.digest r.Proto.program)
  | Ok _ -> Alcotest.fail "v2 round trip: decoded to a different request"

let test_proto_v2_truncations () =
  let p = prog "SF" in
  let typ, payload = Proto.encode_request (Proto.Compile (sample_request p)) in
  (* the v2 strategy trailer is mandatory, so every proper prefix —
     including one that is a well-formed v1 payload — must fail *)
  for cut = 0 to String.length payload - 1 do
    match Proto.decode_request ~typ (String.sub payload 0 cut) with
    | Ok _ -> Alcotest.fail (str "%d-byte prefix decoded as v2" cut)
    | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (str "%d-byte prefix raised %s" cut (Printexc.to_string e))
  done

let test_proto_strategies_round_trip () =
  let typ, payload = Proto.encode_request Proto.List_strategies in
  (match Proto.decode_request ~typ payload with
  | Ok Proto.List_strategies -> ()
  | Ok _ -> Alcotest.fail "List_strategies decoded to a different request"
  | Error e -> Alcotest.fail ("List_strategies: " ^ e));
  let infos = Server.strategy_infos () in
  Alcotest.(check int) "one info per registered strategy"
    (List.length (SReg.all ()))
    (List.length infos);
  let typ, payload = Proto.encode_reply (Proto.Strategies_reply infos) in
  match Proto.decode_reply ~typ payload with
  | Ok (Proto.Strategies_reply infos') ->
      Alcotest.(check bool) "strategy infos survive the wire" true
        (infos = infos')
  | Ok _ -> Alcotest.fail "Strategies_reply decoded to a different reply"
  | Error e -> Alcotest.fail ("Strategies_reply: " ^ e)

(* ----------------------------------------------------------------- *)
(* v1 golden frame: a pre-bump peer's compile request, frozen.

   The encoder below is a copy of the v1 payload layout (the v2 layout
   minus the strategy trailer) and must never change — it stands in
   for every daemon and client built before the version bump.  The
   frame bytes are pinned in golden/proto_v1.hex; regenerate with
   `test_strategy.exe --dump-proto-v1` only if the golden is
   deliberately re-frozen. *)

let v1_add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let v1_add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let v1_add_str b s =
  v1_add_u32 b (String.length s);
  Buffer.add_string b s

let frozen_v1_frame () =
  let b = Buffer.create 256 in
  v1_add_str b "acme";
  v1_add_str b "reserve" (* the pre-rename alias a v1 peer would send *);
  v1_add_u32 b 60;
  v1_add_u32 b 30;
  v1_add_u32 b 8;
  v1_add_u32 b 25;
  v1_add_u8 b 1 (* allow_fallback, no oracle *);
  v1_add_u32 b 1500;
  v1_add_str b (Wire.encode (prog "SF"));
  let payload = Buffer.contents b in
  let f = Buffer.create (Proto.header_len + String.length payload) in
  Buffer.add_string f Proto.magic;
  v1_add_u8 f 1 (* version *);
  v1_add_u8 f 1 (* t_compile *);
  v1_add_u32 f (String.length payload);
  Buffer.add_string f payload;
  Buffer.contents f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun ch -> Buffer.add_string b (str "%02x" (Char.code ch))) s;
  Buffer.contents b

let test_proto_v1_golden_pinned () =
  Alcotest.(check string) "v1 compile frame bytes are pinned"
    (String.trim (read_file "golden/proto_v1.hex"))
    (hex (frozen_v1_frame ()))

(* feed frame bytes through the real reader *)
let with_frame_fd bytes f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let n = Unix.write_substring w bytes 0 (String.length bytes) in
      Alcotest.(check int) "frame fits the pipe" (String.length bytes) n;
      Unix.close w;
      f r)

let test_proto_v1_frame_decodes () =
  let frame = frozen_v1_frame () in
  with_frame_fd frame (fun fd ->
      match Proto.read_frame fd with
      | Error e ->
          Alcotest.fail
            (Format.asprintf "v1 frame rejected: %a" Proto.pp_read_error e)
      | Ok (version, typ, payload) -> (
          Alcotest.(check int) "reader surfaces the peer's version" 1 version;
          match Proto.decode_request ~version ~typ payload with
          | Error e -> Alcotest.fail ("v1 payload rejected: " ^ e)
          | Ok (Proto.Compile r) ->
              Alcotest.(check string) "tenant" "acme" r.Proto.tenant;
              Alcotest.(check string) "compiler (old alias)" "reserve"
                r.Proto.compiler;
              Alcotest.(check (list string))
                "v1 decodes with an empty strategy subset" []
                r.Proto.strategies;
              Alcotest.(check int) "rbits" 60 r.Proto.rbits;
              Alcotest.(check int) "wbits" 30 r.Proto.wbits;
              Alcotest.(check int) "xmax_bits" 8 r.Proto.xmax_bits;
              Alcotest.(check int) "iterations" 25 r.Proto.iterations;
              Alcotest.(check bool) "allow_fallback" true r.Proto.allow_fallback;
              Alcotest.(check bool) "oracle" false r.Proto.oracle;
              Alcotest.(check int) "deadline_ms" 1500 r.Proto.deadline_ms;
              Alcotest.(check string) "program digest"
                (Intern.digest (prog "SF"))
                (Intern.digest r.Proto.program)
          | Ok _ -> Alcotest.fail "v1 frame decoded to a different request"))

let test_proto_v2_frame_version () =
  let p = prog "SF" in
  let typ, payload = Proto.encode_request (Proto.Compile (sample_request p)) in
  with_frame_fd (Proto.frame ~typ payload) (fun fd ->
      match Proto.read_frame fd with
      | Error e ->
          Alcotest.fail
            (Format.asprintf "v2 frame rejected: %a" Proto.pp_read_error e)
      | Ok (version, typ', payload') ->
          Alcotest.(check int) "current version on the wire" Proto.version
            version;
          Alcotest.(check int) "type byte preserved" typ typ';
          Alcotest.(check string) "payload preserved" payload payload')

(* ----------------------------------------------------------------- *)
(* compile_safe's self-check: the oracle is the only guard against a
   plan that is legal but computes the wrong function *)

(* reserve-full with its first constant doubled: scales and levels are
   untouched, so the validator accepts the plan, but it no longer
   computes its source.  compile_safe takes the module directly, so it
   need not be registered (the register test pins the registry). *)
module Wrong_constant = struct
  let name = "reserve-wrong-constant"
  let aliases = []

  let caps =
    { (St.caps (SReg.get_exn "reserve-full")) with St.fallback_chain = true }

  let cache_key_tag = name
  let cache_extra _ _ = []

  type analysis = unit
  type annotation = unit

  let analyze _ _ = ()
  let annotate _ _ () = ()

  let place cfg p () =
    let m = SReg.compile_uncached (SReg.get_exn "reserve-full") cfg p in
    let ops = Array.copy (Program.ops m.Managed.prog) in
    let i =
      let rec first i =
        match ops.(i) with Op.Const _ -> i | _ -> first (i + 1)
      in
      first 0
    in
    (match ops.(i) with Op.Const c -> ops.(i) <- Op.Const (2.0 *. c) | _ -> ());
    { m with
      Managed.prog =
        Program.make ~ops ~outputs:(Program.outputs m.Managed.prog)
          ~n_slots:(Program.n_slots m.Managed.prog) }
end

let test_self_check_catches_legal_wrong_plan () =
  let p =
    let b = Builder.create ~n_slots:8 () in
    let x = Builder.input b "x" and y = Builder.input b "y" in
    Builder.finish b
      ~outputs:[ Builder.add b (Builder.mul b x (Builder.const b 0.5)) y ]
  in
  let s = (module Wrong_constant : St.SCALE_STRATEGY) in
  let cfg = St.config ~rbits:60 ~wbits:30 () in
  let oracle_inputs =
    [ ("x", Array.make 8 1.0); ("y", Array.make 8 0.25) ]
  in
  fresh_cache ();
  (match Validator.check (SReg.compile_uncached s cfg p) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "the perturbed plan must stay legal");
  let oracle_diag =
    "error[oracle]: output 0 slot 0: managed 1.25 differs from reference \
     0.75 beyond the noise bound 1.80564e-07"
  in
  (match SReg.compile_safe s cfg ~strict:true ~oracle:true ~oracle_inputs p with
  | Ok _ -> Alcotest.fail "strict: the wrong plan was accepted"
  | Error atts ->
      Alcotest.(check (list string))
        "strict: one oracle diagnostic" [ oracle_diag ]
        (List.map (Format.asprintf "%a" Reserve.Diag.pp)
           (SReg.attempt_diags atts)));
  match SReg.compile_safe s cfg ~strict:false ~oracle:true ~oracle_inputs p with
  | Error _ -> Alcotest.fail "fallback: the chain did not recover"
  | Ok o ->
      Alcotest.(check string) "degraded to the next link" "eva"
        o.SReg.strategy;
      Alcotest.(check int) "at the same waterline" 30 o.SReg.wbits;
      Alcotest.(check (list (pair string (list string))))
        "the failed link and its diagnostic"
        [ (Wrong_constant.name, [ oracle_diag ]) ]
        (List.map
           (fun (a : SReg.attempt) ->
             ( a.SReg.strategy,
               List.map (Format.asprintf "%a" Reserve.Diag.pp) a.SReg.diags ))
           o.SReg.fallbacks)

(* ----------------------------------------------------------------- *)
(* register: strategy number six (global mutation — keep this last) *)

module Eva_two = struct
  let name = "eva-2"
  let aliases = [ "eva-two" ]

  let caps =
    {
      St.redistributes = false;
      hoists = false;
      explores = false;
      fallback_chain = false;
    }

  let cache_key_tag = "eva-2"
  let cache_extra _ _ = []

  type analysis = unit
  type annotation = unit

  let analyze _ _ = ()
  let annotate _ _ () = ()

  let place (cfg : St.config) p () =
    Fhe_eva.Eva.compile ~xmax_bits:cfg.St.xmax_bits ~rbits:cfg.St.rbits
      ~wbits:cfg.St.wbits p
end

module Colliding = struct
  include Eva_two

  let name = "eva-3"
  let aliases = [ "reserve" ] (* collides with reserve-full's alias *)
  let cache_key_tag = "eva-3"
end

let test_register_sixth_strategy () =
  SReg.register (module Eva_two : St.SCALE_STRATEGY);
  Alcotest.(check int) "six strategies registered" 6
    (List.length (SReg.all ()));
  Alcotest.(check (list string))
    "appended after the built-ins"
    [ "eva"; "hecate"; "reserve-ba"; "reserve-ra"; "reserve-full"; "eva-2" ]
    (SReg.names ());
  (match SReg.of_name "EVA-TWO" with
  | Some s -> Alcotest.(check string) "alias resolves" "eva-2" (St.name s)
  | None -> Alcotest.fail "registered alias did not resolve");
  (* drivers pick the newcomer up with no dispatch changes *)
  let p = prog "SF" in
  let cfg = St.config ~rbits:60 ~wbits:30 () in
  Alcotest.(check string) "newcomer compiles like its delegate"
    (managed_bytes (Fhe_eva.Eva.compile ~rbits:60 ~wbits:30 p))
    (managed_bytes (SReg.compile_uncached (SReg.get_exn "eva-2") cfg p));
  let r = ok_exn "portfolio with six" (Portfolio.run cfg p) in
  Alcotest.(check int) "portfolio races all six" 6
    (List.length r.Portfolio.legs);
  (* duplicate spellings are refused, with the registry unchanged *)
  (match SReg.register (module Eva_two : St.SCALE_STRATEGY) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "re-registering the same name was accepted");
  (match SReg.register (module Colliding : St.SCALE_STRATEGY) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "an alias collision was accepted");
  Alcotest.(check int) "failed registrations left the registry alone" 6
    (List.length (SReg.all ()))

(* ----------------------------------------------------------------- *)

let () =
  (* regen hook for the golden frame; see the frozen encoder's doc *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--dump-proto-v1" then begin
    print_string (hex (frozen_v1_frame ()));
    print_newline ();
    exit 0
  end;
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "strategy"
    [
      ( "registry",
        [
          t "canonical order" test_registry_order;
          t "aliases resolve" test_registry_aliases;
          t "capability flags" test_registry_caps;
        ] );
      ( "cache keys",
        [
          t "legacy recipes preserved" test_cache_keys_legacy;
          t "hecate default budget" test_cache_key_hecate_default_budget;
        ] );
      ( "compile parity",
        [
          t "byte-identical to legacy entry points" test_compile_parity;
          t "phased compile" test_compile_with_phases;
        ] );
      ( "portfolio",
        [
          t "winner is optimal on every app" test_portfolio_winner_optimal;
          t "identical at any pool width" test_portfolio_pool_identity;
          t "warm store serves every leg" test_portfolio_rides_cache;
          t "strategy subsets" test_portfolio_subset;
        ] );
      ( "protocol",
        [
          t "v2 round trip" test_proto_v2_round_trip;
          t "v2 truncations all fail" test_proto_v2_truncations;
          t "strategies listing round trip" test_proto_strategies_round_trip;
          t "v1 golden frame pinned" test_proto_v1_golden_pinned;
          t "v1 frame decodes" test_proto_v1_frame_decodes;
          t "v2 frame carries its version" test_proto_v2_frame_version;
        ] );
      ( "compile_safe",
        [
          t "self-check catches a legal wrong plan"
            test_self_check_catches_legal_wrong_plan;
        ] );
      ("register", [ t "strategy number six" test_register_sixth_strategy ]);
    ]
