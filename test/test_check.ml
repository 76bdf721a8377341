(* Tests for the conformance subsystem (lib/check): oracle, metamorphic
   relations, differential driver, coverage-guided generation, and the
   machine-readable perf-gate schema — plus the unit-test gaps in
   Fhe_sim.Faults and Reserve.Diag that the subsystem leans on.

   This executable is separate from test_main so the conformance tier
   can also run alone via `dune build @check`. *)

open Fhe_ir
module Check = Fhe_check
module Oracle = Fhe_sim.Oracle
module Invariants = Check.Invariants
module Metamorphic = Check.Metamorphic
module Differential = Check.Differential
module Coverage = Check.Coverage
module Benchjson = Check.Benchjson
module Progen = Fhe_sim.Progen
module Faults = Fhe_sim.Faults
module Diag = Reserve.Diag
module Reg = Fhe_apps.Registry
module SReg = Fhe_strategy.Registry

let str = Format.asprintf

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* structural snapshot of a managed program, for purity/determinism *)
let fingerprint (m : Managed.t) =
  ( Program.ops m.Managed.prog,
    Program.outputs m.Managed.prog,
    m.Managed.scale,
    m.Managed.level )

(* ----------------------------------------------------------------- *)
(* small program constructors                                        *)

let prog_add () =
  let b = Builder.create ~n_slots:8 () in
  let x = Builder.input b "x" and y = Builder.input b "y" in
  Builder.finish b ~outputs:[ Builder.add b x y ]

let prog_sub () =
  let b = Builder.create ~n_slots:8 () in
  let x = Builder.input b "x" and y = Builder.input b "y" in
  Builder.finish b ~outputs:[ Builder.sub b x y ]

(* a mul chain deep enough that every compiler must insert rescales *)
let prog_mul_chain () =
  let b = Builder.create ~n_slots:8 () in
  let x = Builder.input b "x" and y = Builder.input b "y" in
  let m1 = Builder.mul b x y in
  let m2 = Builder.mul b m1 x in
  Builder.finish b ~outputs:[ Builder.mul b m2 y ]

let compile ?(wbits = 30) name p =
  SReg.compile (SReg.get_exn name)
    (Fhe_strategy.Strategy.config ~rbits:60 ~wbits ())
    p

let compile_full ?wbits p = compile ?wbits "reserve-full" p

(* ----------------------------------------------------------------- *)
(* oracle                                                            *)

let test_synth_inputs_deterministic () =
  let p = (Progen.make 11).Progen.prog in
  let a = Oracle.synth_inputs p and b = Oracle.synth_inputs p in
  let names = List.map fst a in
  Alcotest.(check bool) "same program, same vectors" true (a = b);
  Alcotest.(check bool) "each input once" true
    (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun (_, v) ->
      Alcotest.(check int) "at most 64 slots"
        (min (Program.n_slots p) 64)
        (Array.length v);
      Array.iter
        (fun x ->
          Alcotest.(check bool) "in [-1, 1)" true (x >= -1.0 && x < 1.0))
        v)
    a

let test_oracle_accepts_correct () =
  let g = Progen.make 3 in
  let m = compile_full g.Progen.prog in
  let r = Oracle.check g.Progen.prog m ~inputs:g.Progen.inputs in
  Alcotest.(check bool) (str "%a" Oracle.pp r) true (Oracle.ok r)

let test_oracle_flags_wrong_program () =
  (* managed program computes x - y, source says x + y: the oracle must
     notice -- this is the mutation-killing direction of the judgment *)
  let src = prog_add () in
  let m = compile_full (prog_sub ()) in
  let inputs = Oracle.synth_inputs src in
  let r = Oracle.check src m ~inputs in
  Alcotest.(check bool) "mismatch reported" false (Oracle.ok r);
  Alcotest.(check bool) "mismatch list non-empty" true
    (List.length r.Oracle.mismatches > 0)

(* ----------------------------------------------------------------- *)
(* invariants                                                        *)

let test_invariants_clean_on_pipeline_output () =
  List.iter
    (fun variant ->
      let m = compile variant (prog_mul_chain ()) in
      let vs = Invariants.check m in
      Alcotest.(check int)
        (str "variant clean, got %d violation(s)" (List.length vs))
        0 (List.length vs))
    [ "reserve-ba"; "reserve-ra"; "reserve-full" ]

let test_invariants_flag_corruption () =
  let m = compile_full (prog_mul_chain ()) in
  (* a dropped rescale breaks the reserve ledger as well as Table 2 *)
  match Faults.inject Faults.Dropped_rescale ~seed:1 m with
  | None -> Alcotest.fail "expected a rescale site in the mul chain"
  | Some bad ->
      Alcotest.(check bool) "lemma violation found" true
        (Invariants.check bad <> [])

(* ----------------------------------------------------------------- *)
(* metamorphic: 200 fixed-seed generated programs                     *)

let test_metamorphic_200 () =
  for seed = 0 to 199 do
    let g = Progen.make seed in
    let fs = Metamorphic.check g.Progen.prog ~inputs:g.Progen.inputs in
    match fs with
    | [] -> ()
    | f :: _ ->
        Alcotest.fail
          (str "seed %d: %a (%d failure(s))" seed Metamorphic.pp_failure f
             (List.length fs))
  done

(* ----------------------------------------------------------------- *)
(* differential: oracle agreement on generated programs               *)

let test_differential_200 () =
  for seed = 0 to 199 do
    let g = Progen.make seed in
    let r =
      Differential.run ~hecate_iterations:8 ~label:(str "gen-%d" seed)
        g.Progen.prog ~inputs:g.Progen.inputs
    in
    match Differential.failures r with
    | [] -> ()
    | (c, what) :: _ ->
        Alcotest.fail (str "seed %d, %s: %s" seed c what)
  done

(* ----------------------------------------------------------------- *)
(* differential regression pins: the eight registry apps              *)

(* input level L per app, measured at rbits 60 / waterline 30 (the
   BENCH_compile.json baseline).  EVA and the reserve variants are
   deterministic, so these are exact; Hecate's exploration quality
   depends on the iteration budget, so it is only bounded. *)
let pinned_levels =
  (* app, eva, ba, ra, full *)
  [
    ("SF", 3, 3, 2, 2);
    ("HCD", 5, 4, 4, 4);
    ("LR", 5, 7, 5, 5);
    ("MR", 5, 7, 5, 5);
    ("PR", 8, 8, 6, 6);
    ("MLP", 4, 4, 4, 4);
    ("Lenet-5", 10, 10, 10, 10);
    ("Lenet-C", 10, 10, 10, 10);
  ]

(* strategies are first-class modules: find entries by canonical name,
   never by polymorphic equality *)
let level_of (r : Differential.report) cname =
  match
    List.find_opt
      (fun e -> Differential.compiler_name e.Differential.compiler = cname)
      r.Differential.entries
  with
  | Some e -> e.Differential.input_level
  | None -> Alcotest.fail ("missing differential entry: " ^ cname)

let check_pins name (r : Differential.report) =
  let eva, ba, ra, full =
    let _, a, b, c, d =
      List.find (fun (n, _, _, _, _) -> n = name) pinned_levels
    in
    (a, b, c, d)
  in
  Alcotest.(check int) (name ^ " eva L") eva (level_of r "eva");
  Alcotest.(check int) (name ^ " ba L") ba (level_of r "reserve-ba");
  Alcotest.(check int) (name ^ " ra L") ra (level_of r "reserve-ra");
  Alcotest.(check int) (name ^ " full L") full (level_of r "reserve-full");
  let hec = level_of r "hecate" in
  Alcotest.(check bool)
    (str "%s hecate L=%d within [%d, %d]" name hec (full - 1) (eva + 1))
    true
    (hec >= full - 1 && hec <= eva + 1)

let test_differential_small_apps () =
  List.iter
    (fun (a : Reg.app) ->
      let { Fhe_harness.prog; inputs; xmax_bits } =
        Fhe_harness.prepare Fhe_harness.Paper a
      in
      let r =
        Differential.run ~wbits:30 ~xmax_bits ~hecate_iterations:60
          ~label:a.Reg.name prog ~inputs
      in
      (match Differential.failures r with
      | [] -> ()
      | (c, what) :: _ -> Alcotest.fail (str "%s, %s: %s" a.Reg.name c what));
      check_pins a.Reg.name r)
    Reg.small

(* the three reserve passes called directly *)
let reserve_passes ~redistribute ~hoist p =
  let prm = Reserve.Rtype.params ~rbits:60 ~wbits:30 in
  let order = Reserve.Ordering.run prm p in
  Reserve.Placement.run ~hoist p
    (Reserve.Allocation.run prm ~redistribute ~order p)

(* The LeNets are too large to push through the interpreter here (the
   CLI run `fhec check --apps` covers the oracle for them); compile
   under every compiler and pin legality, the reserve lemmas and L. *)
let test_differential_lenet () =
  List.iter
    (fun name ->
      let a = Reg.find name in
      let p = a.Reg.build () in
      (* direct engine calls, bypassing the registry on purpose: an
         independent cross-check that the registered strategies compile
         the same plans (data, not a dispatch on compiler identity) *)
      let direct_compiles =
        [ ("eva", fun p -> Fhe_eva.Eva.compile ~rbits:60 ~wbits:30 p);
          ( "hecate",
            fun p ->
              (Fhe_hecate.Hecate.compile ~iterations:10 ~rbits:60 ~wbits:30 p)
                .Fhe_hecate.Hecate.managed );
          ("reserve-ba", reserve_passes ~redistribute:false ~hoist:false);
          ("reserve-ra", reserve_passes ~redistribute:true ~hoist:false);
          ("reserve-full", reserve_passes ~redistribute:true ~hoist:true) ]
      in
      let entry_level cname =
        let m = (List.assoc cname direct_compiles) p in
        (match Validator.check m with
        | Ok () -> ()
        | Error (e :: _) ->
            Alcotest.fail (str "%s %s: %a" name cname Validator.pp_error e)
        | Error [] -> ());
        Alcotest.(check int)
          (str "%s %s lemma violations" name cname)
          0
          (List.length (Invariants.check m));
        Managed.input_level m
      in
      let eva, ba, ra, full =
        let _, a, b, c, d =
          List.find (fun (n, _, _, _, _) -> n = name) pinned_levels
        in
        (a, b, c, d)
      in
      Alcotest.(check int) (name ^ " eva L") eva (entry_level "eva");
      Alcotest.(check int) (name ^ " ba L") ba (entry_level "reserve-ba");
      Alcotest.(check int) (name ^ " ra L") ra (entry_level "reserve-ra");
      Alcotest.(check int) (name ^ " full L") full (entry_level "reserve-full");
      let hec = entry_level "hecate" in
      Alcotest.(check bool)
        (str "%s hecate L=%d sane" name hec)
        true
        (hec >= full - 1 && hec <= eva + 1))
    [ "Lenet-5"; "Lenet-C" ]

(* ----------------------------------------------------------------- *)
(* faults: unit-test gaps                                             *)

let test_faults_names () =
  let names = List.map Faults.name Faults.all in
  Alcotest.(check (list string))
    "stable labels"
    [ "scale-off-by-one"; "dropped-rescale"; "level-overflow";
      "dangling-operand" ]
    names;
  List.iter
    (fun c ->
      Alcotest.(check string) "pp prints name" (Faults.name c)
        (str "%a" Faults.pp c))
    Faults.all

let test_faults_every_class_caught () =
  let m = compile_full (prog_mul_chain ()) in
  List.iter
    (fun cls ->
      match Faults.inject cls ~seed:7 m with
      | None ->
          Alcotest.fail
            (str "no injection site for %s in a rescale-rich program"
               (Faults.name cls))
      | Some bad -> (
          match Validator.check bad with
          | Error _ -> ()
          | Ok () ->
              Alcotest.fail
                (str "validator accepted %s corruption" (Faults.name cls))))
    Faults.all

let test_faults_no_site () =
  (* an add-only program compiles without a single rescale: the
     dropped-rescale class must decline rather than corrupt blindly *)
  let m = compile_full (prog_add ()) in
  Alcotest.(check bool)
    "no rescale to drop" true
    (Faults.inject Faults.Dropped_rescale ~seed:0 m = None)

let test_faults_pure () =
  let m = compile_full (prog_mul_chain ()) in
  let before = fingerprint m in
  List.iter (fun cls -> ignore (Faults.inject cls ~seed:3 m)) Faults.all;
  Alcotest.(check bool) "original untouched" true (before = fingerprint m);
  Alcotest.(check bool) "original still legal" true
    (Validator.check m = Ok ())

let test_faults_deterministic () =
  let m = compile_full (prog_mul_chain ()) in
  List.iter
    (fun cls ->
      let show = Option.map fingerprint in
      let a = show (Faults.inject cls ~seed:9 m)
      and b = show (Faults.inject cls ~seed:9 m) in
      Alcotest.(check bool)
        (str "%s: equal seeds, equal corruption" (Faults.name cls))
        true (a = b && a <> None))
    Faults.all

(* ----------------------------------------------------------------- *)
(* diag: unit-test gaps                                               *)

let test_diag_names () =
  Alcotest.(check (list string))
    "severities"
    [ "error"; "warning"; "info" ]
    (List.map Diag.severity_name [ Diag.Error; Diag.Warning; Diag.Info ]);
  Alcotest.(check (list string))
    "passes"
    [ "parse"; "ordering"; "allocation"; "placement"; "validation";
      "oracle"; "driver" ]
    (List.map Diag.pass_name
       [ Diag.Parse; Diag.Ordering; Diag.Allocation; Diag.Placement;
         Diag.Validation; Diag.Oracle; Diag.Driver ])

let test_diag_render_round_trip () =
  (* every field must survive into the rendered form *)
  let d =
    Diag.make ~severity:Diag.Warning ~op:12 ~hint:"raise the waterline"
      Diag.Allocation "scale underflow"
  in
  let s = Diag.to_string d in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (str "rendered %S contains %S" s needle)
        true (contains s needle))
    [ "warning"; "allocation"; "12"; "scale underflow"; "raise the waterline" ]

let test_diag_constructors () =
  let e = Diag.errorf Diag.Driver "fell back %d time(s)" 2 in
  Alcotest.(check bool) "errorf is error" true (Diag.is_error e);
  Alcotest.(check string) "errorf message" "fell back 2 time(s)" e.Diag.msg;
  let w = Diag.warnf Diag.Oracle "drift %.1f" 0.5 in
  Alcotest.(check bool) "warnf not error" false (Diag.is_error w);
  Alcotest.(check string) "warnf message" "drift 0.5" w.Diag.msg

let test_diag_of_exn () =
  List.iter
    (fun (exn, needle) ->
      let d = Diag.of_exn Diag.Validation exn in
      Alcotest.(check bool) "of_exn is error" true (Diag.is_error d);
      Alcotest.(check bool)
        (str "%S mentions %S" d.Diag.msg needle)
        true
        (contains d.Diag.msg needle))
    [
      (Failure "boom", "boom");
      (Invalid_argument "bad arg", "bad arg");
      ((try assert false with e -> e), "assertion");
    ]

let test_diag_errors_filter () =
  let mk sev msg = Diag.make ~severity:sev Diag.Driver msg in
  let ds =
    [ mk Diag.Warning "w1"; mk Diag.Error "e1"; mk Diag.Info "i1";
      mk Diag.Error "e2" ]
  in
  Alcotest.(check (list string))
    "error subset in order" [ "e1"; "e2" ]
    (List.map (fun d -> d.Diag.msg) (Diag.errors ds))

let test_diag_of_validator_error () =
  let m = compile_full (prog_mul_chain ()) in
  match Faults.inject Faults.Scale_off_by_one ~seed:1 m with
  | None -> Alcotest.fail "expected a scale site"
  | Some bad -> (
      match Validator.check bad with
      | Ok () -> Alcotest.fail "validator accepted corruption"
      | Error (e :: _) ->
          let d = Diag.of_validator_error e in
          Alcotest.(check bool) "op preserved" true
            (d.Diag.op = Some e.Validator.op);
          Alcotest.(check string) "validation pass" "validation"
            (Diag.pass_name d.Diag.pass)
      | Error [] -> Alcotest.fail "empty error list")

(* ----------------------------------------------------------------- *)
(* coverage                                                           *)

let test_coverage_features () =
  let b = Builder.create ~n_slots:16 () in
  let x = Builder.input b "x" and y = Builder.input b "y" in
  let m = Builder.mul b x y in
  let r = Builder.rotate b m 4 in
  let p = Builder.finish b ~outputs:[ r ] in
  let fs = Coverage.features p in
  List.iter
    (fun f ->
      Alcotest.(check bool) (str "feature %s present" f) true (List.mem f fs))
    [ "op:mul-cc"; "op:rotate"; "depth:2"; "rot:pow2" ];
  Alcotest.(check bool) "sorted, no dups" true
    (List.sort_uniq compare fs = fs)

let test_coverage_generate_deterministic () =
  let run () =
    let t = Coverage.create () in
    let cs = Coverage.generate t ~seed:17 ~budget:24 in
    List.map
      (fun c -> (c.Coverage.profile, c.Coverage.seed, c.Coverage.fresh))
      cs
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same battery decisions" true (a = b);
  Alcotest.(check int) "exactly budget candidates" 24 (List.length a)

let test_coverage_guided_beats_uniform () =
  (* the battery must reach features the default mix alone does not:
     that is the whole point of coverage-guided generation *)
  let budget = 32 in
  let guided = Coverage.create () in
  ignore (Coverage.generate guided ~seed:5 ~budget);
  let uniform = Coverage.create () in
  for i = 0 to budget - 1 do
    ignore (Coverage.add uniform (Progen.make ((5 * 1_000_003) + i)).Progen.prog)
  done;
  Alcotest.(check bool)
    (str "guided %d > uniform %d features" (Coverage.cardinal guided)
       (Coverage.cardinal uniform))
    true
    (Coverage.cardinal guided > Coverage.cardinal uniform)

let test_coverage_distill () =
  let t = Coverage.create () in
  let cs = Coverage.generate t ~seed:2 ~budget:20 in
  let kept = Coverage.distill cs in
  Alcotest.(check bool) "corpus non-empty" true (kept <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "distilled candidates contributed" true
        (c.Coverage.fresh > 0))
    kept;
  Alcotest.(check bool) "corpus no larger than battery" true
    (List.length kept <= List.length cs)

(* ----------------------------------------------------------------- *)
(* benchjson                                                          *)

let sample_run () =
  {
    Benchjson.rbits = 60;
    wbits = 30;
    domains = 4;
    wall_time_par = 12.5;
    cache =
      {
        Benchjson.cache_hits = 10;
        cache_misses = 2;
        cache_stores = 12;
        cache_poisoned = 0;
      };
    serve =
      Some
        {
          Benchjson.serve_requests = 32;
          serve_qps = 180.0;
          serve_p50_ms = 4.5;
          serve_p99_ms = 11.0;
          serve_shed = 3;
          serve_timeouts = 0;
          serve_degraded = 1;
        };
    portfolio =
      Some
        {
          Benchjson.p_strategies = [ "eva"; "reserve-full" ];
          p_wins = [ ("eva", 0); ("reserve-full", 1) ];
          p_entries =
            [
              {
                Benchjson.p_app = "SF";
                p_winner = "reserve-full";
                p_win_est_latency_us = 200.0;
                p_legs = [ ("eva", 250.0); ("reserve-full", 200.0) ];
              };
            ];
        };
    entries =
      [
        {
          Benchjson.app = "SF";
          compiler = "eva";
          compile_ms = 1.5;
          warm_compile_ms = 0.02;
          input_level = 3;
          modulus_bits = 180;
          est_latency_us = 250.0;
          exec =
            Some
              {
                Benchjson.exec_ms = 42.0;
                encrypt_ms = 6.0;
                eval_ms = 30.0;
                decrypt_ms = 6.0;
                keygen_ms = 55.0;
                max_err = 3.5e-3;
                peak_ct_bytes = 1_048_576;
                order_ct_bytes = 2_097_152;
                resident_ct_bytes = 4_194_304;
                peak_key_bytes = 25_165_824;
              };
        };
        {
          Benchjson.app = "SF";
          compiler = "reserve-full";
          compile_ms = 0.8;
          warm_compile_ms = 0.01;
          input_level = 2;
          modulus_bits = 120;
          est_latency_us = 200.0;
          exec = None;
        };
      ];
  }

let test_benchjson_round_trip () =
  let r = sample_run () in
  let s = Benchjson.to_string (Benchjson.run_to_json r) in
  match Benchjson.parse s with
  | Error e -> Alcotest.fail ("self-emitted JSON rejected: " ^ e)
  | Ok j -> (
      match Benchjson.run_of_json j with
      | Error e -> Alcotest.fail ("schema round trip failed: " ^ e)
      | Ok r' -> Alcotest.(check bool) "round trip exact" true (r = r'))

(* a v1 file (no domains / wall_time_par) must still parse, as a
   sequential run *)
let test_benchjson_v1_compat () =
  let s =
    {|{"schema":"fhe-bench-compile/v1","rbits":60,"waterline":30,"entries":[{"app":"SF","compiler":"eva","compile_ms":1.5,"input_level":3,"modulus_bits":180,"est_latency_us":250}]}|}
  in
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail ("v1 baseline rejected: " ^ e)
  | Ok r ->
      Alcotest.(check int) "v1 defaults to one domain" 1 r.Benchjson.domains;
      Alcotest.(check (float 0.0)) "v1 has no batch wall time" 0.0
        r.Benchjson.wall_time_par;
      Alcotest.(check int) "v1 entries survive" 1
        (List.length r.Benchjson.entries)

let test_benchjson_v3_fields () =
  let r = sample_run () in
  let s = Benchjson.to_string (Benchjson.run_to_json r) in
  Alcotest.(check bool) "emits the v7 schema tag" true
    (contains s "fhe-bench-compile/v7");
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      Alcotest.(check int) "domains round trips" r.Benchjson.domains
        r'.Benchjson.domains;
      Alcotest.(check (float 1e-9)) "wall_time_par round trips"
        r.Benchjson.wall_time_par r'.Benchjson.wall_time_par;
      Alcotest.(check int) "cache hits round trip"
        r.Benchjson.cache.Benchjson.cache_hits
        r'.Benchjson.cache.Benchjson.cache_hits;
      Alcotest.(check (float 1e-9)) "warm_compile_ms round trips"
        (List.hd r.Benchjson.entries).Benchjson.warm_compile_ms
        (List.hd r'.Benchjson.entries).Benchjson.warm_compile_ms;
      let serve r =
        match r.Benchjson.serve with
        | Some s -> s
        | None -> Alcotest.fail "serve block lost in round trip"
      in
      Alcotest.(check int) "serve requests round trip"
        (serve r).Benchjson.serve_requests (serve r').Benchjson.serve_requests;
      Alcotest.(check (float 1e-9)) "serve qps round trips"
        (serve r).Benchjson.serve_qps (serve r').Benchjson.serve_qps;
      Alcotest.(check int) "serve shed round trips"
        (serve r).Benchjson.serve_shed (serve r').Benchjson.serve_shed

(* a v3 file (no serve block) must still parse, with serve unmeasured *)
let test_benchjson_v3_compat () =
  let s =
    {|{"schema":"fhe-bench-compile/v3","rbits":60,"waterline":30,"domains":4,"wall_time_par":12.5,"cache":{"hits":10,"misses":2,"stores":12,"poisoned":0},"entries":[{"app":"SF","compiler":"eva","compile_ms":1.5,"warm_compile_ms":0.02,"input_level":3,"modulus_bits":180,"est_latency_us":250}]}|}
  in
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail ("v3 baseline rejected: " ^ e)
  | Ok r ->
      Alcotest.(check int) "v3 keeps its cache stats" 10
        r.Benchjson.cache.Benchjson.cache_hits;
      Alcotest.(check bool) "v3 has no serve block" true
        (r.Benchjson.serve = None)

(* a v4 file (no per-entry exec stats) must still parse, with exec
   unmeasured *)
let test_benchjson_v4_compat () =
  let s =
    {|{"schema":"fhe-bench-compile/v4","rbits":60,"waterline":30,"domains":4,"wall_time_par":12.5,"cache":{"hits":10,"misses":2,"stores":12,"poisoned":0},"serve":{"requests":32,"qps":180,"p50_ms":4.5,"p99_ms":11,"shed":3,"timeouts":0,"degraded":1},"entries":[{"app":"SF","compiler":"eva","compile_ms":1.5,"warm_compile_ms":0.02,"input_level":3,"modulus_bits":180,"est_latency_us":250}]}|}
  in
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail ("v4 baseline rejected: " ^ e)
  | Ok r ->
      Alcotest.(check bool) "v4 keeps its serve block" true
        (r.Benchjson.serve <> None);
      Alcotest.(check bool) "v4 entries have no exec stats" true
        ((List.hd r.Benchjson.entries).Benchjson.exec = None)

(* a v5 file (no portfolio block) must still parse — the committed
   BENCH_compile.json / BENCH_exec.json baselines are v5 *)
let test_benchjson_v5_compat () =
  let s =
    {|{"schema":"fhe-bench-compile/v5","rbits":60,"waterline":30,"domains":4,"wall_time_par":12.5,"cache":{"hits":10,"misses":2,"stores":12,"poisoned":0},"serve":null,"entries":[{"app":"SF","compiler":"eva","compile_ms":1.5,"warm_compile_ms":0.02,"input_level":3,"modulus_bits":180,"est_latency_us":250,"exec":null}]}|}
  in
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail ("v5 baseline rejected: " ^ e)
  | Ok r ->
      Alcotest.(check bool) "v5 has no portfolio block" true
        (r.Benchjson.portfolio = None);
      Alcotest.(check int) "v5 entries survive" 1
        (List.length r.Benchjson.entries)

(* a v6 file (exec stats without memory byte counts) must still parse,
   with the byte counts reading as unmeasured (0) — the mem gate rules
   fire only on baselines that measured them *)
let test_benchjson_v6_compat () =
  let s =
    {|{"schema":"fhe-bench-compile/v6","rbits":60,"waterline":30,"domains":4,"wall_time_par":12.5,"cache":{"hits":10,"misses":2,"stores":12,"poisoned":0},"serve":null,"portfolio":null,"entries":[{"app":"SF","compiler":"eva","compile_ms":1.5,"warm_compile_ms":0.02,"input_level":3,"modulus_bits":180,"est_latency_us":250,"exec":{"exec_ms":42,"encrypt_ms":6,"eval_ms":30,"decrypt_ms":6,"keygen_ms":55,"max_err":0.0035}}]}|}
  in
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail ("v6 baseline rejected: " ^ e)
  | Ok r -> (
      match (List.hd r.Benchjson.entries).Benchjson.exec with
      | None -> Alcotest.fail "v6 exec stats lost"
      | Some x ->
          Alcotest.(check (float 1e-9)) "v6 keeps measured runtime" 42.0
            x.Benchjson.exec_ms;
          Alcotest.(check int) "v6 peak ct bytes unmeasured" 0
            x.Benchjson.peak_ct_bytes;
          Alcotest.(check int) "v6 peak key bytes unmeasured" 0
            x.Benchjson.peak_key_bytes)

(* a v2 file (no cache block, no warm timings) must still parse *)
let test_benchjson_v2_compat () =
  let s =
    {|{"schema":"fhe-bench-compile/v2","rbits":60,"waterline":30,"domains":4,"wall_time_par":12.5,"entries":[{"app":"SF","compiler":"eva","compile_ms":1.5,"input_level":3,"modulus_bits":180,"est_latency_us":250}]}|}
  in
  match Result.bind (Benchjson.parse s) Benchjson.run_of_json with
  | Error e -> Alcotest.fail ("v2 baseline rejected: " ^ e)
  | Ok r ->
      Alcotest.(check int) "v2 keeps its domains" 4 r.Benchjson.domains;
      Alcotest.(check int) "v2 has no cache stats" 0
        r.Benchjson.cache.Benchjson.cache_hits;
      Alcotest.(check (float 0.0)) "v2 warm time reads as unmeasured" 0.0
        (List.hd r.Benchjson.entries).Benchjson.warm_compile_ms

let test_benchjson_parse_rejects () =
  List.iter
    (fun s ->
      match Benchjson.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (str "parser accepted %S" s))
    [ "{"; "[1,"; "{} trailing"; "\"unterminated"; "nul"; "" ]

let test_benchjson_escapes () =
  let j = Benchjson.Obj [ ("k\"ey", Benchjson.Str "a\\b\nc") ] in
  match Benchjson.parse (Benchjson.to_string j) with
  | Ok j' -> Alcotest.(check bool) "escape round trip" true (j = j')
  | Error e -> Alcotest.fail e

let test_benchjson_rejects_unknown_schema () =
  let s =
    {|{"schema":"somebody-else/v9","rbits":60,"waterline":30,"entries":[]}|}
  in
  match Benchjson.parse s with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Benchjson.run_of_json j with
      | Error e ->
          Alcotest.(check bool)
            (str "%s names the schema and bench json" e)
            true
            (contains e Benchjson.schema && contains e "bench json")
      | Ok _ -> Alcotest.fail "unknown schema accepted")

let test_benchjson_gate () =
  let base = sample_run () in
  let chk ~expect name msgs =
    Alcotest.(check bool)
      (str "%s: %s" name (String.concat "; " msgs))
      expect (msgs <> [])
  in
  chk ~expect:false "identical runs pass"
    (Benchjson.compare_runs ~baseline:base ~current:base ());
  let drop =
    { base with Benchjson.entries = [ List.hd base.Benchjson.entries ] }
  in
  chk ~expect:true "missing entry flagged"
    (Benchjson.compare_runs ~baseline:base ~current:drop ());
  let bump f =
    {
      base with
      Benchjson.entries = List.map f base.Benchjson.entries;
    }
  in
  chk ~expect:true "modulus growth flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump (fun e ->
              { e with Benchjson.modulus_bits = e.Benchjson.modulus_bits + 60 }))
       ());
  chk ~expect:true "latency blowup flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump (fun e ->
              { e with Benchjson.est_latency_us = e.Benchjson.est_latency_us *. 2.0 }))
       ());
  chk ~expect:false "2x compile time within slack"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump (fun e ->
              { e with Benchjson.compile_ms = e.Benchjson.compile_ms *. 2.0 }))
       ());
  chk ~expect:true "5x compile time flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump (fun e ->
              { e with Benchjson.compile_ms = e.Benchjson.compile_ms *. 5.0 }))
       ());
  chk ~expect:true "warm 5x slower than cold baseline flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump (fun e ->
              { e with
                Benchjson.warm_compile_ms = e.Benchjson.compile_ms *. 5.0 }))
       ());
  chk ~expect:false "warm within slack of cold passes"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump (fun e ->
              { e with
                Benchjson.warm_compile_ms = e.Benchjson.compile_ms *. 2.0 }))
       ());
  chk ~expect:false "unmeasured warm time passes"
    (Benchjson.compare_runs ~baseline:base
       ~current:(bump (fun e -> { e with Benchjson.warm_compile_ms = 0.0 }))
       ());
  (* the v5 measured-runtime rules *)
  let bump_exec f =
    bump (fun e ->
        { e with
          Benchjson.exec = Option.map f e.Benchjson.exec })
  in
  chk ~expect:true "2x measured runtime flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump_exec (fun x ->
              { x with Benchjson.exec_ms = x.Benchjson.exec_ms *. 2.0 }))
       ());
  chk ~expect:false "1.5x measured runtime within slack"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump_exec (fun x ->
              { x with Benchjson.exec_ms = x.Benchjson.exec_ms *. 1.5 }))
       ());
  chk ~expect:true "lost exec stats flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:(bump (fun e -> { e with Benchjson.exec = None }))
       ());
  chk ~expect:true "precision loss flagged"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump_exec (fun x ->
              { x with Benchjson.max_err = x.Benchjson.max_err *. 10.0 }))
       ());
  chk ~expect:false "2x max err within slack"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump_exec (fun x ->
              { x with Benchjson.max_err = x.Benchjson.max_err *. 2.0 }))
       ());
  chk ~expect:false "baseline without exec stats gates nothing"
    (Benchjson.compare_runs
       ~baseline:
         (bump (fun e -> { e with Benchjson.exec = None }))
       ~current:base ())

(* each exec gate failure path individually, by rule name: push exactly
   one metric past its slack and assert the message that fires belongs
   to the right rule *)
let test_benchjson_gate_rule_names () =
  let base = sample_run () in
  let bump_exec f =
    {
      base with
      Benchjson.entries =
        List.map
          (fun e -> { e with Benchjson.exec = Option.map f e.Benchjson.exec })
          base.Benchjson.entries;
    }
  in
  let expect name f sub =
    match
      Benchjson.compare_runs ~baseline:base ~current:(bump_exec f) ()
    with
    | [ msg ] ->
        Alcotest.(check bool)
          (str "%s: %S names the rule" name msg)
          true (contains msg sub)
    | msgs ->
        Alcotest.fail
          (str "%s: expected exactly 1 regression, got %d" name
             (List.length msgs))
  in
  expect "runtime rule"
    (fun x -> { x with Benchjson.exec_ms = x.Benchjson.exec_ms *. 2.0 })
    "measured runtime regressed";
  expect "precision rule"
    (fun x -> { x with Benchjson.max_err = x.Benchjson.max_err *. 10.0 })
    "decrypt precision regressed";
  expect "peak ct bytes rule"
    (fun x ->
      { x with Benchjson.peak_ct_bytes = x.Benchjson.peak_ct_bytes * 2 })
    "peak live ciphertext bytes regressed";
  expect "peak key bytes rule"
    (fun x ->
      { x with Benchjson.peak_key_bytes = x.Benchjson.peak_key_bytes * 2 })
    "peak switch-key bytes regressed";
  let pass name msgs =
    Alcotest.(check bool)
      (str "%s: %s" name (String.concat "; " msgs))
      true (msgs = [])
  in
  pass "peak ct bytes within 1.10x slack"
    (Benchjson.compare_runs ~baseline:base
       ~current:
         (bump_exec (fun x ->
              { x with
                Benchjson.peak_ct_bytes =
                  x.Benchjson.peak_ct_bytes * 21 / 20 }))
       ());
  pass "mem_slack loosens the byte rules"
    (Benchjson.compare_runs ~mem_slack:3.0 ~baseline:base
       ~current:
         (bump_exec (fun x ->
              { x with
                Benchjson.peak_ct_bytes = x.Benchjson.peak_ct_bytes * 2;
                peak_key_bytes = x.Benchjson.peak_key_bytes * 2 }))
       ());
  (* a pre-v7 baseline (bytes unmeasured) must not gate byte growth *)
  pass "unmeasured baseline bytes gate nothing"
    (Benchjson.compare_runs
       ~baseline:
         (bump_exec (fun x ->
              { x with Benchjson.peak_ct_bytes = 0; peak_key_bytes = 0 }))
       ~current:base ())

(* ----------------------------------------------------------------- *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "check"
    [
      ( "oracle",
        [
          t "synth inputs deterministic" test_synth_inputs_deterministic;
          t "accepts correct compilation" test_oracle_accepts_correct;
          t "flags wrong program" test_oracle_flags_wrong_program;
        ] );
      ( "invariants",
        [
          t "clean on pipeline output" test_invariants_clean_on_pipeline_output;
          t "flags corruption" test_invariants_flag_corruption;
        ] );
      ( "metamorphic",
        [ t "200 generated programs" test_metamorphic_200 ] );
      ( "differential",
        [
          t "200 generated programs" test_differential_200;
          t "small apps: pins + oracle" test_differential_small_apps;
          t "lenet: pins" test_differential_lenet;
        ] );
      ( "faults",
        [
          t "stable names" test_faults_names;
          t "every class caught by validator" test_faults_every_class_caught;
          t "declines without a site" test_faults_no_site;
          t "injection never mutates" test_faults_pure;
          t "deterministic in seed" test_faults_deterministic;
        ] );
      ( "diag",
        [
          t "severity and pass names" test_diag_names;
          t "render round trip" test_diag_render_round_trip;
          t "errorf and warnf" test_diag_constructors;
          t "of_exn" test_diag_of_exn;
          t "errors filter" test_diag_errors_filter;
          t "of_validator_error keeps the op" test_diag_of_validator_error;
        ] );
      ( "coverage",
        [
          t "feature extraction" test_coverage_features;
          t "deterministic battery" test_coverage_generate_deterministic;
          t "guided beats uniform" test_coverage_guided_beats_uniform;
          t "distill keeps contributors" test_coverage_distill;
        ] );
      ( "benchjson",
        [
          t "round trip" test_benchjson_round_trip;
          t "v1 files still parse" test_benchjson_v1_compat;
          t "v2 files still parse" test_benchjson_v2_compat;
          t "v3 files still parse" test_benchjson_v3_compat;
          t "v4 files still parse" test_benchjson_v4_compat;
          t "v5 files still parse" test_benchjson_v5_compat;
          t "v6 files still parse" test_benchjson_v6_compat;
          t "v7 fields round trip" test_benchjson_v3_fields;
          t "parser rejects garbage" test_benchjson_parse_rejects;
          t "string escapes" test_benchjson_escapes;
          t "rejects unknown schema" test_benchjson_rejects_unknown_schema;
          t "gate comparator" test_benchjson_gate;
          t "gate rule names" test_benchjson_gate_rule_names;
        ] );
    ]
