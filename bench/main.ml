(* The evaluation harness: regenerates every table and figure of the
   paper (§8).  Run all sections:

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- table3 table4 fig2 fig6 fig7 fig8 micro

   Absolute numbers come from the Table 3 cost model and this machine's
   clock — the paper's testbed is substituted per DESIGN.md §3 — so the
   claims to check are the *shapes*: who wins, by what factor, and where
   the crossovers sit.  EXPERIMENTS.md records paper-vs-measured. *)

open Fhe_ir
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry
module H = Fhe_harness

let rbits = 60

(* -j N (0 = the runtime's recommended domain count); only the batch
   sections (json, gate) fan out — the table/figure sections interleave
   measurement with printing and stay sequential *)
let jobs = ref 0

let with_pool f = H.with_pool !jobs f

let width = function None -> 1 | Some p -> Fhe_par.Pool.domains p

let env_or var default = Option.value (Sys.getenv_opt var) ~default

(* a BENCH_*_DETERMINISTIC switch: set, non-empty and not "0" *)
let env_flag var =
  match Sys.getenv_opt var with None | Some "" | Some "0" -> false | Some _ -> true

let env_float var ~ok ~default =
  match Option.bind (Sys.getenv_opt var) float_of_string_opt with
  | Some x when ok x -> x
  | _ -> default

(* ------------------------------------------------------------------ *)
(* Shared compilation cache: (app, waterline, compiler) -> managed     *)

(* every compiler is a registry strategy; the paper's table labels
   ("This work", "BA", ...) are presentation strings in the printfs,
   not a dispatch axis *)
let strategy name =
  match SReg.of_name name with
  | Some s -> s
  | None -> failwith ("bench: strategy not registered: " ^ name)

let eva = strategy "eva"
let hecate = strategy "hecate"
let reserve_full = strategy "reserve-full"

(* Exploration budgets: paper-scale exploration on LeNet would take
   hours of wall clock here (the very pathology the paper fixes), so
   LeNet-class programs explore a reduced budget; Table 4 reports both
   the measured time and the per-iteration extrapolation. *)
let paper_iters =
  [ ("SF", 553); ("HCD", 736); ("LR", 2675); ("MR", 3326); ("PR", 5959);
    ("MLP", 677); ("Lenet-5", 14763); ("Lenet-C", 13208) ]

(* BENCH_HECATE_CAP caps exploration globally: the `json` smoke rule in
   the test tree sets it so the emitter stays fast under `dune runtest` *)
let hecate_cap =
  match int_of_string_opt (env_or "BENCH_HECATE_CAP" "") with
  | Some n when n > 0 -> n
  | _ -> max_int

(* apps off the paper's list (the tensor additions) have no paper
   count and take the plain cap *)
let hecate_budget name =
  let paper = Option.value (List.assoc_opt name paper_iters) ~default:max_int in
  min hecate_cap
    (if String.starts_with ~prefix:"Lenet" name then min paper 120
     else min paper 1200)

(* each app's program at one scale with the x_max measured on its
   inputs, built once; batch sections warm it sequentially so pool
   tasks only read it *)
let prepared : (H.scale * string, H.prepared) Hashtbl.t = Hashtbl.create 16

let prep scale (a : Reg.app) =
  match Hashtbl.find_opt prepared (scale, a.Reg.name) with
  | Some r -> r
  | None ->
      let r = H.prepare scale a in
      Hashtbl.replace prepared (scale, a.Reg.name) r;
      r

let prog_of a = (prep H.Paper a).H.prog

let plan_cache : (string * int * string, Managed.t * float) Hashtbl.t =
  Hashtbl.create 64

(* the strategy config this benchmark compiles (app, waterline) under:
   the app's measured x_max headroom and its capped Hecate budget *)
let bench_config (a : Reg.app) ~wbits =
  H.config ~iterations:(hecate_budget a.Reg.name) ~rbits ~wbits
    (prep H.Paper a)

(* one measured, validated compilation.  The content-addressed store
   is bypassed on this domain so the timing is a genuinely cold compile
   even when the global cache is enabled. *)
let cold_compile s cfg p =
  match Fhe_cache.Store.bypass (fun () -> H.compile s cfg p) with
  | Ok r -> r
  | Error e -> failwith e

(* reads the prepared table but never writes it, so it is safe on a
   pool once that is warm *)
let compile_nocache (a : Reg.app) ~wbits s =
  cold_compile s (bench_config a ~wbits) (prog_of a)

(* the Fhe_cache.Store key this (app, compiler, waterline) compiles
   under — the same key the drivers use, so warm timings measure real
   cache service (digest + lookup), not a bench-private shortcut *)
let store_key (a : Reg.app) ~wbits s =
  St.cache_key s (bench_config a ~wbits) (prog_of a)

(* compile (cached); returns the managed program and the wall time (ms) *)
let compile (a : Reg.app) ~wbits s =
  let key = (a.Reg.name, wbits, St.name s) in
  match Hashtbl.find_opt plan_cache key with
  | Some r -> r
  | None ->
      let r = compile_nocache a ~wbits s in
      Hashtbl.replace plan_cache key r;
      r

let latency_s m = Fhe_cost.Model.estimate m /. 1e6

let line = String.make 78 '-'

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 () =
  section "Table 3: RNS-CKKS operation latency by level (cost model, us)";
  Printf.printf "%-22s %10s %10s %10s %10s %10s\n" "Op" "1" "2" "3" "4" "5";
  List.iter
    (fun c ->
      Printf.printf "%-22s" (Fhe_cost.Latency.name c);
      Array.iter (fun v -> Printf.printf " %10.0f" v) (Fhe_cost.Latency.table c);
      print_newline ())
    Fhe_cost.Latency.all;
  (* the same table measured on the from-scratch CKKS backend *)
  section
    "Table 3 (measured): our RNS-CKKS backend, n=2^12, 28-bit primes (us)";
  Printf.printf
    "(absolute values differ from SEAL at N=2^15/60-bit; the ordering and\n\
     growth with level are the claims to check)\n";
  let ctx = Ckks.Context.make ~n:4096 ~levels:6 () in
  let keys = Ckks.Keys.keygen ~rotations:[ 1 ] ctx in
  let nh = Ckks.Context.slot_count ctx in
  let v = Array.init nh (fun i -> sin (float_of_int i)) in
  let scale = 2.0 ** 24.0 in
  let time_op f =
    (* warm up once, then take the median of 5 single-shot timings *)
    ignore (f ());
    let samples =
      List.init 5 (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          (Unix.gettimeofday () -. t0) *. 1e6)
    in
    List.nth (List.sort compare samples) 2
  in
  let module E = Ckks.Evaluator in
  let rows =
    [ ("modswitch (cipher)", fun ct -> ignore (E.modswitch keys ct));
      ("cipher + plain", fun ct -> ignore (E.add_plain keys ct v));
      ("cipher + cipher", fun ct -> ignore (E.add keys ct ct));
      ( "cipher x plain",
        fun ct -> ignore (E.mul_plain keys ct ~scale:(2.0 ** 20.0) v) );
      ("rescale (cipher)", fun ct -> ignore (E.rescale keys ct));
      ("rotate (cipher)", fun ct -> ignore (E.rotate keys ct 1));
      ("cipher x cipher", fun ct -> ignore (E.mul keys ct ct)) ]
  in
  Printf.printf "%-22s %10s %10s %10s %10s %10s\n" "Op" "2" "3" "4" "5" "6";
  List.iter
    (fun (name, f) ->
      Printf.printf "%-22s" name;
      (* start at level 2 so rescale/modswitch always have a level to drop *)
      for level = 2 to 6 do
        let ct = E.encrypt keys ~level ~scale v in
        Printf.printf " %10.0f" (time_op (fun () -> f ct))
      done;
      print_newline ())
    rows

(* ------------------------------------------------------------------ *)
(* Figure 2: the worked example *)

let figure2 () =
  section "Figure 2: scale management plans for x^3*(y^2+y), W=20, R=60";
  let b = Builder.create ~n_slots:4 () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let q =
    Builder.mul b
      (Builder.mul b x (Builder.mul b x x))
      (Builder.add b (Builder.mul b y y) y)
  in
  let p = Builder.finish b ~outputs:[ q ] in
  let show tag paper m =
    Printf.printf "%-28s cost %6.1f (paper: %s)  L=%d  rescales=%d\n" tag
      (Fhe_cost.Model.estimate m /. 100.0)
      paper (Managed.input_level m) (Managed.n_rescale m)
  in
  let fig_cfg = St.config ~rbits:60 ~wbits:20 () in
  let plan name = SReg.compile_uncached (strategy name) fig_cfg p in
  show "EVA (Fig 2b)" "390" (plan "eva");
  show "reserve, no hoist (Fig 2c)" "353" (plan "reserve-ra");
  show "reserve, full (Fig 2d)" "335" (plan "reserve-full");
  Printf.printf "(costs in units of 100us, as in the figure)\n"

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let table4 () =
  section "Table 4: compile time and scale-management time";
  Printf.printf "%-8s %6s %6s | %9s %9s %9s %8s | %9s %9s %8s\n" "Bench"
    "#Ops" "#Iters" "EVA(ms)" "Hecate" "Ours(ms)" "Speedup" "SM-Hec"
    "SM-Ours" "Speedup";
  let gm_compile = ref 0.0 and gm_sm = ref 0.0 and n = ref 0 in
  List.iter
    (fun (a : Reg.app) ->
      let p = prog_of a in
      let wbits = 30 in
      let _, eva_ms = compile a ~wbits eva in
      let iters = hecate_budget a.Reg.name in
      let _, hec_ms = compile a ~wbits hecate in
      (* extrapolate the paper-scale exploration cost *)
      let paper_it = List.assoc a.Reg.name paper_iters in
      let hec_full = hec_ms *. float_of_int paper_it /. float_of_int iters in
      let (_, phases), ours_ms =
        Fhe_util.Timer.time (fun () ->
            St.compile_with_phases reserve_full (bench_config a ~wbits) p)
      in
      let sm_ours = phases.St.total_ms in
      let speedup_c = hec_full /. ours_ms in
      let speedup_sm = hec_full /. sm_ours in
      gm_compile := !gm_compile +. log speedup_c;
      gm_sm := !gm_sm +. log speedup_sm;
      incr n;
      Printf.printf
        "%-8s %6d %6d | %9.2f %9.0f %9.2f %7.0fx | %9.0f %9.2f %7.0fx\n"
        a.Reg.name (Program.n_arith p) paper_it eva_ms hec_full ours_ms
        speedup_c hec_full sm_ours speedup_sm)
    Reg.all;
  Printf.printf
    "geomean speedup over Hecate: compile %.1fx, scale management %.0fx\n"
    (exp (!gm_compile /. float_of_int !n))
    (exp (!gm_sm /. float_of_int !n));
  Printf.printf
    "(Hecate columns extrapolate measured per-iteration cost to the paper's\n\
     iteration counts; measured budgets: %s)\n"
    (String.concat ", "
       (List.map
          (fun (a : Reg.app) ->
            Printf.sprintf "%s=%d" a.Reg.name (hecate_budget a.Reg.name))
          Reg.all))

(* ------------------------------------------------------------------ *)
(* Figure 6: latency vs waterline *)

let figure6 () =
  section "Figure 6: latency (s) of compiled programs, waterline 15..45";
  let waterlines = [ 15; 20; 25; 30; 35; 40; 45 ] in
  List.iter
    (fun (a : Reg.app) ->
      Printf.printf "\n%s (%s)\n" a.Reg.name a.Reg.description;
      Printf.printf "  %-5s %10s %10s %10s %18s\n" "W" "EVA" "Hecate"
        "This work" "speedup vs EVA";
      List.iter
        (fun w ->
          let me, _ = compile a ~wbits:w eva in
          let mh, _ = compile a ~wbits:w hecate in
          let mr, _ = compile a ~wbits:w reserve_full in
          let le = latency_s me
          and lh = latency_s mh
          and lr = latency_s mr in
          Printf.printf "  %-5d %10.3f %10.3f %10.3f %17.2fx\n" w le lh lr
            (le /. lr))
        waterlines)
    Reg.all;
  (* headline: average speedup over EVA across apps and waterlines *)
  let acc = ref 0.0 and n = ref 0 in
  Hashtbl.iter
    (fun (name, w, c) (m, _) ->
      if c = "reserve-full" then begin
        let me, _ = compile (Reg.find name) ~wbits:w eva in
        acc := !acc +. log (latency_s me /. latency_s m);
        incr n
      end)
    plan_cache;
  Printf.printf
    "\ngeomean speedup of this work over EVA across the sweep: %.1f%%\n"
    ((exp (!acc /. float_of_int !n) -. 1.0) *. 100.0)

(* ------------------------------------------------------------------ *)
(* Figure 7: error *)

let figure7 () =
  section "Figure 7: log2 output error bound, waterlines 2^20 and 2^40";
  List.iter
    (fun w ->
      Printf.printf "\nWaterline = 2^%d\n" w;
      Printf.printf "  %-8s %10s %10s %10s\n" "Bench" "EVA" "Hecate"
        "This work";
      List.iter
        (fun (a : Reg.app) ->
          let inputs = (prep H.Paper a).H.inputs in
          let err c =
            let m, _ = compile a ~wbits:w c in
            Fhe_sim.Interp.max_log2_error m ~inputs
          in
          Printf.printf "  %-8s %10.2f %10.2f %10.2f\n" a.Reg.name (err eva)
            (err hecate)
            (err reserve_full))
        Reg.all)
    [ 20; 40 ]

(* ------------------------------------------------------------------ *)
(* Figure 8: ablation *)

let figure8 () =
  section
    "Figure 8: latency normalised to BA (backward analysis only);\n\
     RA adds reserve redistribution, This work adds rescale hoisting";
  List.iter
    (fun w ->
      Printf.printf "\nWaterline = 2^%d\n" w;
      Printf.printf "  %-8s %8s %8s %10s\n" "Bench" "BA" "RA" "This work";
      let gm_ra = ref 0.0 and gm_full = ref 0.0 in
      let napps = List.length Reg.all in
      List.iter
        (fun (a : Reg.app) ->
          let l v = latency_s (fst (compile a ~wbits:w (strategy v))) in
          let ba = l "reserve-ba" and ra = l "reserve-ra"
          and full = l "reserve-full" in
          gm_ra := !gm_ra +. log (ra /. ba);
          gm_full := !gm_full +. log (full /. ba);
          Printf.printf "  %-8s %8.3f %8.3f %10.3f\n" a.Reg.name 1.0 (ra /. ba)
            (full /. ba))
        Reg.all;
      Printf.printf "  %-8s %8.3f %8.3f %10.3f\n" "GMean" 1.0
        (exp (!gm_ra /. float_of_int napps))
        (exp (!gm_full /. float_of_int napps)))
    [ 20; 40 ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: the compiler itself *)

let micro () =
  section "Bechamel microbenchmarks: scale-management passes (ns/run)";
  let sobel_like =
    let b = Builder.create ~n_slots:16384 () in
    let x = Builder.input b "x" in
    let gx =
      Fhe_tensor.Kernels.conv2d b x ~width:64 ~height:64
        ~weights:Fhe_apps.Sobel.sobel_x
    in
    Builder.finish b ~outputs:[ Builder.square b gx ]
  in
  let mr = prog_of (Reg.find "MR") in
  let prm = Reserve.Rtype.params ~rbits:60 ~wbits:30 in
  let order = Reserve.Ordering.run prm mr in
  let reserve = SReg.get_exn "reserve-full" in
  let cfg = St.config ~rbits:60 ~wbits:30 () in
  let tests =
    [ Bechamel.Test.make ~name:"eva/sobel-like"
        (Bechamel.Staged.stage (fun () ->
             ignore (Fhe_eva.Eva.compile ~rbits:60 ~wbits:30 sobel_like)));
      Bechamel.Test.make ~name:"reserve/sobel-like"
        (Bechamel.Staged.stage (fun () ->
             ignore (SReg.compile_uncached reserve cfg sobel_like)));
      Bechamel.Test.make ~name:"eva/MR"
        (Bechamel.Staged.stage (fun () ->
             ignore (Fhe_eva.Eva.compile ~rbits:60 ~wbits:30 mr)));
      Bechamel.Test.make ~name:"reserve/MR"
        (Bechamel.Staged.stage (fun () ->
             ignore (SReg.compile_uncached reserve cfg mr)));
      Bechamel.Test.make ~name:"ordering/MR"
        (Bechamel.Staged.stage (fun () ->
             ignore (Reserve.Ordering.run prm mr)));
      Bechamel.Test.make ~name:"allocation/MR"
        (Bechamel.Staged.stage (fun () ->
             ignore (Reserve.Allocation.run prm ~order mr))) ]
  in
  let benchmark test =
    let open Bechamel in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun t ->
      let results = benchmark (Bechamel.Test.make_grouped ~name:"g" [ t ]) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-24s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* BENCH_compile.json: the machine-readable perf baseline, and the gate
   that re-measures and diffs against it (Fhe_check.Benchjson schema) *)

(* registry order == the committed baseline's entry order *)
let bench_compilers = List.map (fun s -> (s, St.name s)) (SReg.all ())

(* every app x every registered strategy, apps outermost *)
let pairs apps =
  List.concat_map
    (fun (a : Reg.app) -> List.map (fun (c, label) -> (a, c, label)) bench_compilers)
    apps

let cache_stats () =
  let s = Fhe_cache.Store.stats () in
  { Fhe_check.Benchjson.cache_hits = s.Fhe_cache.Store.hits;
    cache_misses = s.Fhe_cache.Store.misses;
    cache_stores = s.Fhe_cache.Store.stores;
    cache_poisoned = s.Fhe_cache.Store.poisoned }

(* write a run as JSON, after checking the gate can parse it back *)
let emit ~what ~out run =
  let text =
    Fhe_check.Benchjson.to_string (Fhe_check.Benchjson.run_to_json run)
  in
  (match Fhe_check.Benchjson.parse text with
  | Ok _ -> ()
  | Error e ->
      failwith (Printf.sprintf "bench %s: emitted malformed JSON: %s" what e));
  let oc = open_out out in
  output_string oc text;
  output_char oc '\n';
  close_out oc

let json_out () = env_or "BENCH_JSON_OUT" "BENCH_compile.json"

let measure_run ?pool () =
  let wbits = 30 in
  List.iter (fun a -> ignore (prep H.Paper a)) Reg.all;
  Fhe_cache.Store.reset ();
  let measure (a, c, label) =
    let m, ms = compile_nocache a ~wbits c in
    (* warm timing: seed the store with the cold result, then time a
       full cache service — digest, key, lookup — under the same key
       the drivers use.  0 when the store is inactive. *)
    let warm_ms =
      if not (Fhe_cache.Store.active ()) then 0.0
      else begin
        Fhe_cache.Store.add (store_key a ~wbits c) m;
        snd
          (Fhe_util.Timer.time (fun () ->
               Fhe_cache.Store.with_managed ~key:(store_key a ~wbits c)
                 (fun () -> fst (compile_nocache a ~wbits c))))
      end
    in
    {
      Fhe_check.Benchjson.app = a.Reg.name;
      compiler = label;
      compile_ms = ms;
      warm_compile_ms = warm_ms;
      input_level = Managed.input_level m;
      modulus_bits = Managed.input_level m * rbits;
      est_latency_us = Fhe_cost.Model.estimate m;
      exec = None;
    }
  in
  let entries, wall_ms =
    Fhe_util.Timer.time (fun () ->
        match pool with
        | None -> List.map measure (pairs Reg.all)
        | Some pool -> Fhe_par.Pool.map pool measure (pairs Reg.all))
  in
  { Fhe_check.Benchjson.rbits; wbits; domains = width pool;
    wall_time_par = wall_ms; cache = cache_stats (); serve = None;
    portfolio = None; entries }

(* ------------------------------------------------------------------ *)
(* serve: load-test a real daemon over its Unix socket.  One warm-up
   round populates the shared compile cache, then the measured round
   reports sustained QPS and warm-cache latency percentiles along with
   the shed/timeout/degraded counters — the schema-v4 snapshot. *)

let measure_serve () =
  let socket = Printf.sprintf "/tmp/fhec-bench-%d.sock" (Unix.getpid ()) in
  let cfg =
    { (Fhe_serve.Server.default_config ~socket) with
      Fhe_serve.Server.capacity = 16;
      degrade_at = 12 }
  in
  let t = Fhe_serve.Server.start cfg in
  Fun.protect ~finally:(fun () -> Fhe_serve.Server.stop t) @@ fun () ->
  (* small, fast apps: the point is transport + cache service, not
     compile heft *)
  let names = [| "SF"; "HCD"; "MR" |] in
  let make_request i =
    let pr = prep H.Paper (Reg.find names.(i mod Array.length names)) in
    {
      Fhe_serve.Protocol.tenant = "";
      compiler = "reserve-full";
      strategies = [];
      rbits;
      wbits = 30;
      xmax_bits = pr.H.xmax_bits;
      iterations = 0;
      allow_fallback = false;
      oracle = false;
      deadline_ms = 0;
      program = pr.H.prog;
    }
  in
  let warm =
    Fhe_serve.Loadgen.run ~socket ~threads:1
      ~per_thread:(Array.length names) ~make_request ()
  in
  let s = Fhe_serve.Loadgen.run ~socket ~threads:4 ~per_thread:8 ~make_request () in
  (warm, s)

let serve_stats_of (s : Fhe_serve.Loadgen.stats) =
  {
    Fhe_check.Benchjson.serve_requests = s.Fhe_serve.Loadgen.requests;
    serve_qps = s.Fhe_serve.Loadgen.qps;
    serve_p50_ms = s.Fhe_serve.Loadgen.p50_ms;
    serve_p99_ms = s.Fhe_serve.Loadgen.p99_ms;
    serve_shed = s.Fhe_serve.Loadgen.shed;
    serve_timeouts = s.Fhe_serve.Loadgen.timeouts;
    serve_degraded = s.Fhe_serve.Loadgen.degraded;
  }

let serve_section () =
  section "serve: compile-daemon load test (warm-up round, then measured)";
  let warm, s = measure_serve () in
  Format.printf "  cold: %a@." Fhe_serve.Loadgen.pp warm;
  Format.printf "  warm: %a@." Fhe_serve.Loadgen.pp s

(* BENCH_JSON_DETERMINISTIC=1 zeroes the measured wall times and the
   recorded pool width so the @par harness can byte-compare a -j 1
   emission against a -j 4 one; everything else in the file is
   deterministic *)
let scrub run =
  if not (env_flag "BENCH_JSON_DETERMINISTIC") then run
  else
    { run with
      Fhe_check.Benchjson.domains = 1;
      wall_time_par = 0.0;
      cache = Fhe_check.Benchjson.no_cache_stats;
      serve = None;
      entries =
        List.map
          (fun m ->
            { m with
              Fhe_check.Benchjson.compile_ms = 0.0;
              warm_compile_ms = 0.0 })
          run.Fhe_check.Benchjson.entries }

let json () =
  section "BENCH_compile.json: per-app compile time / modulus / latency";
  let run = with_pool (fun pool -> measure_run ?pool ()) in
  (* a deterministic emission skips the daemon entirely: its numbers
     are wall-clock through and through *)
  let run =
    if env_flag "BENCH_JSON_DETERMINISTIC" then run
    else
      let _, s = measure_serve () in
      { run with Fhe_check.Benchjson.serve = Some (serve_stats_of s) }
  in
  let run = scrub run in
  let out = json_out () in
  emit ~what:"json" ~out run;
  List.iter
    (fun (m : Fhe_check.Benchjson.measurement) ->
      Printf.printf
        "  %-8s %-12s %9.2f ms (warm %7.3f)  L=%2d (%4d bits)  est %8.3f s\n"
        m.Fhe_check.Benchjson.app m.Fhe_check.Benchjson.compiler
        m.Fhe_check.Benchjson.compile_ms
        m.Fhe_check.Benchjson.warm_compile_ms
        m.Fhe_check.Benchjson.input_level m.Fhe_check.Benchjson.modulus_bits
        (m.Fhe_check.Benchjson.est_latency_us /. 1e6))
    run.Fhe_check.Benchjson.entries;
  Printf.printf "wrote %s (%d entries)\n" out
    (List.length run.Fhe_check.Benchjson.entries)

(* ------------------------------------------------------------------ *)
(* bench portfolio: race every registered strategy per app (legs fan
   out on the worker pool), keep the best est-latency plan, and emit
   the v6 snapshot.  Winner choice and leg estimates are pure cost-
   model numbers, so BENCH_portfolio.json byte-compares across pool
   widths; under BENCH_JSON_DETERMINISTIC the wall/cache numbers are
   scrubbed too and the whole file is width-independent. *)

let portfolio_section () =
  section "BENCH_portfolio.json: strategy race, winner per app";
  let wbits = 30 in
  List.iter (fun a -> ignore (prep H.Paper a)) Reg.all;
  Fhe_cache.Store.reset ();
  let (entries, domains), wall_ms =
    Fhe_util.Timer.time (fun () ->
        with_pool (fun pool ->
            let entries =
              List.map
                (fun (a : Reg.app) ->
                  let p = prog_of a in
                  match
                    Fhe_strategy.Portfolio.run ?pool (bench_config a ~wbits) p
                  with
                  | Error msg -> failwith (a.Reg.name ^ ": " ^ msg)
                  | Ok r ->
                      let legs =
                        List.filter_map
                          (fun (l : Fhe_strategy.Portfolio.leg) ->
                            match l.Fhe_strategy.Portfolio.result with
                            | Ok _ ->
                                Some
                                  ( St.name l.Fhe_strategy.Portfolio.strategy,
                                    l.Fhe_strategy.Portfolio.est_latency_us )
                            | Error _ -> None)
                          r.Fhe_strategy.Portfolio.legs
                      in
                      let w = r.Fhe_strategy.Portfolio.winner in
                      {
                        Fhe_check.Benchjson.p_app = a.Reg.name;
                        p_winner = St.name w.Fhe_strategy.Portfolio.strategy;
                        p_win_est_latency_us =
                          w.Fhe_strategy.Portfolio.est_latency_us;
                        p_legs = legs;
                      })
                Reg.all
            in
            (entries, width pool)))
  in
  let names = List.map snd bench_compilers in
  let wins =
    List.map
      (fun name ->
        ( name,
          List.length
            (List.filter
               (fun (e : Fhe_check.Benchjson.portfolio_entry) ->
                 e.Fhe_check.Benchjson.p_winner = name)
               entries) ))
      names
  in
  List.iter
    (fun (e : Fhe_check.Benchjson.portfolio_entry) ->
      Printf.printf "  %-8s winner %-12s est %8.3f s   (%s)\n"
        e.Fhe_check.Benchjson.p_app e.Fhe_check.Benchjson.p_winner
        (e.Fhe_check.Benchjson.p_win_est_latency_us /. 1e6)
        (String.concat ", "
           (List.map
              (fun (n, est) -> Printf.sprintf "%s %.3f" n (est /. 1e6))
              e.Fhe_check.Benchjson.p_legs)))
    entries;
  Printf.printf "wins: %s\n"
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) wins));
  let run =
    scrub
      { Fhe_check.Benchjson.rbits; wbits; domains; wall_time_par = wall_ms;
        cache = cache_stats (); serve = None;
        portfolio =
          Some
            { Fhe_check.Benchjson.p_strategies = names; p_wins = wins;
              p_entries = entries };
        entries = [] }
  in
  let out = env_or "BENCH_PORTFOLIO_OUT" "BENCH_portfolio.json" in
  emit ~what:"portfolio" ~out run;
  Printf.printf "wrote %s (%d apps)\n" out (List.length entries)

(* ------------------------------------------------------------------ *)
(* bench exec: real encrypt/eval/decrypt wall time per (app, compiler)
   on the from-scratch RNS-CKKS backend.  The exec-scale app variants
   (Registry.exec_build) keep every circuit structure at data sizes a
   real encrypted run finishes in CI budget, at the exec geometry
   (Registry.exec_rbits / exec_wbits). *)

let exec_out () = env_or "BENCH_EXEC_OUT" "BENCH_exec.json"

(* BENCH_EXEC_APPS=SF,MLP restricts the batch (the test tree's
   determinism rule runs a small subset twice); an unknown name is a
   one-line error, exit 1 *)
let exec_apps () =
  match Sys.getenv_opt "BENCH_EXEC_APPS" with
  | None | Some "" -> Reg.all
  | Some names ->
      List.map
        (fun n ->
          match H.find_app (String.trim n) with
          | Ok a -> a
          | Error e ->
              Printf.eprintf "bench exec: %s\n" e;
              exit 1)
        (String.split_on_char ',' names)

(* one real run: compile cold, keygen/encrypt/evaluate/decrypt on the
   CKKS backend (the pool parallelises RNS rows *inside* the run, so
   the batch itself stays sequential and deterministically ordered),
   and diff the decryption against the plaintext reference *)
let measure_exec ?pool apps =
  let measure (a, c, label) =
    let pr = prep H.Exec a in
    let m, compile_ms =
      cold_compile c
        (H.exec_config ~iterations:(min 60 (hecate_budget a.Reg.name)) pr)
        pr.H.prog
    in
    let r = H.run ?pool pr m in
    let st = r.H.stats in
    {
      Fhe_check.Benchjson.app = a.Reg.name;
      compiler = label;
      compile_ms;
      warm_compile_ms = 0.0;
      input_level = Managed.input_level m;
      modulus_bits = Managed.input_level m * Reg.exec_rbits;
      est_latency_us = Fhe_cost.Model.estimate m;
      exec =
        Some
          {
            Fhe_check.Benchjson.exec_ms =
              st.Ckks.Backend.encrypt_ms +. st.Ckks.Backend.eval_ms
              +. st.Ckks.Backend.decrypt_ms;
            encrypt_ms = st.Ckks.Backend.encrypt_ms;
            eval_ms = st.Ckks.Backend.eval_ms;
            decrypt_ms = st.Ckks.Backend.decrypt_ms;
            keygen_ms = st.Ckks.Backend.keygen_ms;
            max_err = H.max_error r;
            peak_ct_bytes = st.Ckks.Backend.mem.Ckks.Backend.peak_ct_bytes;
            order_ct_bytes = st.Ckks.Backend.mem.Ckks.Backend.order_ct_bytes;
            resident_ct_bytes =
              st.Ckks.Backend.mem.Ckks.Backend.resident_ct_bytes;
            peak_key_bytes = st.Ckks.Backend.mem.Ckks.Backend.peak_key_bytes;
          };
    }
  in
  let entries, wall_ms =
    Fhe_util.Timer.time (fun () -> List.map measure (pairs apps))
  in
  { Fhe_check.Benchjson.rbits = Reg.exec_rbits; wbits = Reg.exec_wbits;
    domains = width pool; wall_time_par = wall_ms;
    cache = Fhe_check.Benchjson.no_cache_stats; serve = None;
    portfolio = None; entries }

(* BENCH_EXEC_DETERMINISTIC=1 zeroes wall times and the pool width but
   keeps max_err (bit-identical decrypts at every width): the @exec
   harness byte-compares a -j 1 emission against a -j 4 one *)
let scrub_exec run =
  if not (env_flag "BENCH_EXEC_DETERMINISTIC") then run
  else
    { run with
      Fhe_check.Benchjson.domains = 1;
      wall_time_par = 0.0;
      entries =
        List.map
          (fun m ->
            { m with
              Fhe_check.Benchjson.compile_ms = 0.0;
              exec =
                Option.map
                  (fun e ->
                    { e with
                      Fhe_check.Benchjson.exec_ms = 0.0;
                      encrypt_ms = 0.0;
                      eval_ms = 0.0;
                      decrypt_ms = 0.0;
                      keygen_ms = 0.0 })
                  m.Fhe_check.Benchjson.exec })
          run.Fhe_check.Benchjson.entries }

(* the kernel-level before/after: the retained scalar NTT vs the
   optimized Rvec/Shoup/Barrett one, same plan, n = 2^12 *)
let ntt_microbench () =
  let n = 4096 in
  let p = List.hd (Ckks.Primes.ntt_prime_chain ~n ~bits:28 ~count:1) in
  let plan = Ckks.Ntt.make_plan ~n ~p in
  let g = Fhe_util.Prng.create 5 in
  let a = Array.init n (fun _ -> Fhe_util.Prng.int g p) in
  let reps = 100 in
  let time f =
    ignore (f ());
    let _, ms =
      Fhe_util.Timer.time (fun () ->
          for _ = 1 to reps do
            f ()
          done)
    in
    ms /. float_of_int reps
  in
  (* both transforms map canonical residues to canonical residues, so
     iterating them in place times the pure kernels *)
  let scratch = Array.copy a in
  let t_ref = time (fun () -> Ckks.Ntt.Reference.forward plan scratch) in
  let v = Ckks.Rvec.of_array a in
  let t_opt = time (fun () -> Ckks.Ntt.forward plan v) in
  Printf.printf
    "NTT forward n=%d: reference %.3f ms, optimized %.3f ms (%.1fx)\n" n t_ref
    t_opt (t_ref /. t_opt)

let exec_section () =
  let apps = exec_apps () in
  section "BENCH_exec.json: real CKKS runtime per app x compiler";
  ntt_microbench ();
  let run = scrub_exec (with_pool (fun pool -> measure_exec ?pool apps)) in
  let out = exec_out () in
  emit ~what:"exec" ~out run;
  List.iter
    (fun (m : Fhe_check.Benchjson.measurement) ->
      match m.Fhe_check.Benchjson.exec with
      | None -> ()
      | Some e ->
          Printf.printf
            "  %-8s %-12s L=%2d  run %8.2f ms (enc %6.2f + eval %8.2f + dec \
             %5.2f)  keygen %7.2f  max|err| %.3e  peak ct %6.2f MiB (order \
             %6.2f)  keys %6.2f MiB\n"
            m.Fhe_check.Benchjson.app m.Fhe_check.Benchjson.compiler
            m.Fhe_check.Benchjson.input_level e.Fhe_check.Benchjson.exec_ms
            e.Fhe_check.Benchjson.encrypt_ms e.Fhe_check.Benchjson.eval_ms
            e.Fhe_check.Benchjson.decrypt_ms e.Fhe_check.Benchjson.keygen_ms
            e.Fhe_check.Benchjson.max_err
            (float_of_int e.Fhe_check.Benchjson.peak_ct_bytes /. 1048576.0)
            (float_of_int e.Fhe_check.Benchjson.order_ct_bytes /. 1048576.0)
            (float_of_int e.Fhe_check.Benchjson.peak_key_bytes /. 1048576.0))
    run.Fhe_check.Benchjson.entries;
  Printf.printf "wrote %s (%d entries)\n" out
    (List.length run.Fhe_check.Benchjson.entries)

(* ------------------------------------------------------------------ *)

let load_baseline path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match
    Result.bind (Fhe_check.Benchjson.parse text) Fhe_check.Benchjson.run_of_json
  with
  | Ok r -> r
  | Error e -> failwith (path ^ ": " ^ e)

let gate () =
  section "perf gate: current measurements vs recorded BENCH_compile.json";
  let failures = ref 0 in
  let diff ~what ~path ?exec_slack ?mem_slack baseline current =
    match
      Fhe_check.Benchjson.compare_runs ?exec_slack ?mem_slack ~baseline
        ~current ()
    with
    | [] ->
        Printf.printf "%s gate passed: %d entries within bounds of %s\n" what
          (List.length baseline.Fhe_check.Benchjson.entries)
          path
    | regressions ->
        List.iter (fun r -> Printf.printf "  REGRESSION %s\n" r) regressions;
        Printf.eprintf "%s gate failed: %d regression(s) vs %s\n" what
          (List.length regressions) path;
        failures := !failures + List.length regressions
  in
  let path = env_or "BENCH_JSON_BASELINE" (json_out ()) in
  let baseline = load_baseline path in
  let current = with_pool (fun pool -> measure_run ?pool ()) in
  diff ~what:"compile" ~path baseline current;
  (* the runtime side: re-run the exec batch and hold it to the
     committed BENCH_exec.json.  Skipped (with a note) when no exec
     baseline exists, so compile-only checkouts still gate. *)
  let epath = env_or "BENCH_EXEC_BASELINE" (exec_out ()) in
  if not (Sys.file_exists epath) then
    Printf.printf "exec gate skipped: no baseline at %s\n" epath
  else begin
    let exec_slack =
      env_float "BENCH_EXEC_SLACK" ~ok:(fun s -> s > 1.0) ~default:3.0
    in
    (* byte counts are deterministic, so the default slack is tight;
       BENCH_MEM_SLACK only exists to loosen an intentional change *)
    let mem_slack =
      env_float "BENCH_MEM_SLACK" ~ok:(fun s -> s >= 1.0) ~default:1.10
    in
    let baseline = load_baseline epath in
    let current = with_pool (fun pool -> measure_exec ?pool (exec_apps ())) in
    diff ~what:"exec" ~path:epath ~exec_slack ~mem_slack baseline current
  end;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* bench tensor: the tensor frontend's layout search per catalog app.
   The compile-tier table is pure cost-model output (byte-identical at
   any -j, which the @tensor harness checks under
   BENCH_JSON_DETERMINISTIC); without that flag the section also runs
   every supported layout of the exec-scale graphs on the real CKKS
   backend — the measured side of the EXPERIMENTS.md layout table —
   and marks the row of the exec-scale pin. *)

module Tn = Fhe_apps.Tensors
module TLay = Fhe_tensor.Layout
module TLow = Fhe_tensor.Lower

let tensor_section () =
  section "tensor: packing/layout search per tensor-frontend app";
  let deterministic = env_flag "BENCH_JSON_DETERMINISTIC" in
  let reserve = strategy "reserve" in
  with_pool (fun pool ->
      List.iter
        (fun (e : Tn.entry) ->
          let g = e.Tn.graph () in
          let cands, best = TLow.search ?pool g in
          Printf.printf "%s (%d slots, batch %d, pinned %s):\n" e.Tn.name
            (Fhe_tensor.Graph.n_slots g)
            (Fhe_tensor.Graph.batch g)
            (TLay.name e.Tn.plan);
          List.iter
            (fun (c : TLow.candidate) ->
              Printf.printf "  %c %-12s %7d ops  depth %2d  est %10.3f s\n"
                (if c.TLow.plan = best.TLow.plan then '*' else ' ')
                (TLay.name c.TLow.plan)
                (Program.n_ops c.TLow.prog)
                (Analysis.max_mult_depth c.TLow.prog)
                (c.TLow.est /. 1e6))
            cands;
          if not deterministic then begin
            (* exec-scale: really run each supported packing *)
            let eg = e.Tn.exec_graph () in
            let data = e.Tn.exec_data ~seed:42 in
            List.iter
              (fun plan ->
                let pr =
                  H.of_program (TLow.lower ~plan eg)
                    ~inputs:(TLow.pack_inputs ~plan eg ~data)
                in
                let m, _ =
                  cold_compile reserve (H.exec_config ~iterations:0 pr) pr.H.prog
                in
                let r =
                  H.run ?pool ~refs:(TLow.reference ~plan eg ~data) pr m
                in
                Printf.printf
                  "    exec %-12s eval %8.2f ms  max|err| %.3e%s\n"
                  (TLay.name plan) r.H.stats.Ckks.Backend.eval_ms
                  (H.max_error r)
                  (if plan = e.Tn.exec_plan then "  (exec pin)" else ""))
              (TLow.candidates eg)
          end)
        Tn.all)

let all_sections =
  [ ("table3", table3); ("fig2", figure2); ("table4", table4);
    ("fig6", figure6); ("fig7", figure7); ("fig8", figure8); ("micro", micro) ]

(* on-demand sections (not part of the default full run: `json`
   overwrites the recorded baseline and `gate` diffs against it) *)
let extra_sections =
  [ ("json", json); ("exec", exec_section); ("gate", gate);
    ("serve", serve_section); ("portfolio", portfolio_section);
    ("tensor", tensor_section) ]

let () =
  (* peel `-j N` off the section list *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 0 ->
            jobs := v;
            parse acc rest
        | _ ->
            Printf.eprintf "-j expects a non-negative integer, got %S\n" n;
            exit 1)
    | [ "-j" ] ->
        Printf.eprintf "-j expects an argument\n";
        exit 1
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst all_sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name (all_sections @ extra_sections) with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (know: %s)\n" name
            (String.concat ", "
               (List.map fst (all_sections @ extra_sections)));
          exit 1)
    requested
