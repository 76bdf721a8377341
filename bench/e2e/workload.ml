(* The four workloads.  Each drives the public API from outside:
   Fhe_apps.Registry builds the programs, the reserve-full strategy of
   Fhe_strategy compiles them, Ckks.Keys / Ckks.Backend.run_with_keys
   run them, and Fhe_sim.Interp.run_reference is the plaintext oracle.
   Every call into a layer goes through a Trace span, so one code path
   serves the untraced run (trace off) and the traced one. *)

open Fhe_ir
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy
module B = Ckks.Backend

let reserve_full = Fhe_strategy.Registry.get_exn "reserve-full"

(* the exec tier's parameters: 28-bit primes are the backend's ceiling *)
let exec_rbits = 28

let exec_wbits = 22

(* the paper's compile parameters (Table 4) *)
let paper_rbits = 60

let paper_wbits = 30

type sample = {
  ms : float;  (** the timed section: what a caller waits for *)
  ok : bool;
  err_ratio : float;  (** max|dec−ref| / exec_tol; 0 for compiles *)
}

(* A workload after set-up, ready to serve requests. *)
type t = {
  rbits : int;
  plans : Managed.t list;
  request : Trace.t -> int -> sample;
      (** request [i] (0 is the warm-up); with the trace on, it also
          replays, counts and checks what it ran *)
  width2_speedup : reps:int -> float;
      (** one request at width 1 over the same at width 2 (medians) *)
  micro_ctx : unit -> Ckks.Context.t * int;
      (** ring and top level for the layer loops of {!Micro} *)
  rank_pairs : unit -> (float * float) list;
      (** (cost-model µs, measured µs) per replayed op so far *)
  key_peak_bytes : unit -> int;
}

type spec = {
  name : string;
  setup : Trace.t -> seed:int -> t;  (** everything before request 1 *)
}

exception Replay_mismatch of string

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Compile through the strategy's three phases, called directly so each
   is its own span, then validate.  The content-addressed store is
   bypassed: every compile is cold. *)
let compile tr ~req ~kind cfg prog =
  Fhe_cache.Store.bypass (fun () ->
      let (module S : St.SCALE_STRATEGY) = reserve_full in
      let span name f = Trace.span tr ~req ~kind name (fun _ -> f ()) in
      let a = span "strategy.analyze" (fun () -> S.analyze cfg prog) in
      let b = span "strategy.annotate" (fun () -> S.annotate cfg prog a) in
      let m = span "strategy.place" (fun () -> S.place cfg prog b) in
      let valid = span "ir.validate" (fun () -> Validator.check m) in
      (m, Result.is_ok valid))

let max_abs_err outs refs =
  let e = ref 0.0 in
  Array.iteri
    (fun o out ->
      Array.iteri
        (fun j x ->
          let d = Float.abs (x -. refs.(o).(j)) in
          (* NaN compares false: count it as unbounded *)
          if not (d <= !e) then e := if Float.is_nan d then infinity else d)
        out)
    outs;
  !e

let bit_identical a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x y)
       a b

(* ------------------------------------------------------------------ *)
(* Encrypted inference *)

type leg = {
  app : Reg.app;
  prog : Program.t;
  plan : Managed.t;
  keys : Ckks.Keys.t;
}

let rotation_steps (m : Managed.t) =
  let p = m.Managed.prog in
  let nh = Program.n_slots p in
  let steps = ref [] in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Rotate (a, s) when Program.vtype p a = Op.Cipher ->
          let s = Fhe_util.Bits.pos_rem s nh in
          if s <> 0 && not (List.mem s !steps) then steps := s :: !steps
      | _ -> ())
    p;
  List.rev !steps

(* Plans compile from the fixed seed-42 inputs' x_max, so the workload
   seed changes only the encrypted data, never the plan. *)
let setup_leg tr ?key_budget (app : Reg.app) =
  let kind = app.Reg.name in
  let span name f = Trace.span tr ~kind name (fun _ -> f ()) in
  let prog = span "apps.build" app.Reg.exec_build in
  let xmax_bits =
    span "sim.xmax" (fun () ->
        Fhe_sim.Interp.max_magnitude_bits prog
          ~inputs:(app.Reg.exec_inputs ~seed:42))
  in
  let cfg = St.config ~xmax_bits ~rbits:exec_rbits ~wbits:exec_wbits () in
  let plan, valid = compile tr ~req:(-1) ~kind cfg prog in
  if not valid then failwith (kind ^ ": compiled plan fails validation");
  let ctx =
    Ckks.Context.make ~n:(2 * Program.n_slots prog)
      ~levels:(max 1 (Managed.max_level plan))
      ~level_bits:exec_rbits ()
  in
  let keys = span "keys.keygen" (fun () -> Ckks.Keys.keygen ?key_budget ctx) in
  List.iter
    (fun s ->
      Trace.span tr ~kind ~level:s "keys.add_rotation" (fun _ ->
          Ckks.Keys.add_rotation keys s))
    (rotation_steps plan);
  { app; prog; plan; keys }

let run_leg tr ~seed ~req ranks leg =
  let kind = leg.app.Reg.name in
  let inputs = leg.app.Reg.exec_inputs ~seed:((seed * 1000) + req) in
  let g0 = Gc.quick_stat () and k0 = Ckks.Keys.mem leg.keys in
  let t0 = Fhe_util.Timer.now_ns () in
  let outs = B.run_with_keys leg.keys leg.plan ~inputs in
  let t1 = Fhe_util.Timer.now_ns () in
  Trace.add tr ~req ~kind ~level:(Managed.input_level leg.plan)
    "backend.run_with_keys" ~t0 ~t1;
  if tr.Trace.on then begin
    let g1 = Gc.quick_stat () and k1 = Ckks.Keys.mem leg.keys in
    Trace.count tr ~req "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    Trace.count tr ~req "gc.major_collections"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    Trace.count tr ~req "keys.gens"
      (float_of_int (k1.Ckks.Keys.gens - k0.Ckks.Keys.gens));
    Trace.count tr ~req "keys.evictions"
      (float_of_int (k1.Ckks.Keys.evictions - k0.Ckks.Keys.evictions));
    let routs =
      Trace.span tr ~req ~kind "replay" (fun parent ->
          let routs, calls = Replay.run leg.keys leg.plan ~inputs in
          List.iter
            (fun (c : Replay.call) ->
              let name =
                if c.Replay.op = "plain" then "backend.plain"
                else "evaluator." ^ c.Replay.op
              in
              Trace.add tr ~req ~parent ~kind ~level:c.Replay.level name
                ~t0:c.Replay.t0 ~t1:c.Replay.t1;
              if c.Replay.model_us > 0.0 then
                ranks :=
                  (c.Replay.model_us, ms_between c.Replay.t0 c.Replay.t1 *. 1e3)
                  :: !ranks)
            calls;
          routs)
    in
    if not (bit_identical outs routs) then
      raise
        (Replay_mismatch
           (Printf.sprintf "%s request %d: replay decrypts differ from run_with_keys"
              kind req))
  end;
  let refs =
    Trace.span tr ~req ~kind "sim.reference" (fun _ ->
        Fhe_sim.Interp.run_reference leg.prog ~inputs)
  in
  let err = max_abs_err outs refs in
  { ms = ms_between t0 t1;
    ok = err <= leg.app.Reg.exec_tol;
    err_ratio = err /. leg.app.Reg.exec_tol }

let median_ms reps f =
  Stats.median (List.init reps (fun _ -> snd (Fhe_util.Timer.time f)))

let inference ?key_budget apps tr ~seed =
  let legs = List.map (setup_leg tr ?key_budget) (List.map Reg.find apps) in
  let ranks = ref [] in
  let request tr req =
    List.fold_left
      (fun acc leg ->
        let s = run_leg tr ~seed ~req ranks leg in
        { ms = acc.ms +. s.ms;
          ok = acc.ok && s.ok;
          err_ratio = Float.max acc.err_ratio s.err_ratio })
      { ms = 0.0; ok = true; err_ratio = 0.0 }
      legs
  in
  let width2_speedup ~reps =
    let inputs = List.map (fun l -> l.app.Reg.exec_inputs ~seed) legs in
    let one () =
      List.iter2
        (fun l inputs -> ignore (B.run_with_keys l.keys l.plan ~inputs))
        legs inputs
    in
    let ctxs = List.map (fun l -> l.keys.Ckks.Keys.ctx) legs in
    let w1 = median_ms reps one in
    let w2 =
      Fhe_par.Pool.with_pool ~domains:2 (fun pool ->
          List.iter (fun c -> Ckks.Context.set_pool c (Some pool)) ctxs;
          Fun.protect
            ~finally:(fun () ->
              List.iter (fun c -> Ckks.Context.set_pool c None) ctxs)
            (fun () -> median_ms reps one))
    in
    w1 /. w2
  in
  let deepest =
    List.fold_left
      (fun a l ->
        if l.keys.Ckks.Keys.ctx.Ckks.Context.levels
           > a.keys.Ckks.Keys.ctx.Ckks.Context.levels
        then l
        else a)
      (List.hd legs) legs
  in
  let t =
    { rbits = exec_rbits;
      plans = List.map (fun l -> l.plan) legs;
      request;
      width2_speedup;
      micro_ctx =
        (fun () ->
          let ctx = deepest.keys.Ckks.Keys.ctx in
          (ctx, ctx.Ckks.Context.levels));
      rank_pairs = (fun () -> !ranks);
      key_peak_bytes =
        (fun () ->
          List.fold_left
            (fun acc l -> acc + (Ckks.Keys.mem l.keys).Ckks.Keys.peak_bytes)
            0 legs) }
  in
  (* the warm-up request: generates whatever keys are still lazy *)
  let w = request tr 0 in
  if not w.ok then failwith "warm-up request failed its oracle";
  t

(* ------------------------------------------------------------------ *)
(* Paper-scale compile (Table 4) *)

type paper_prog = { p_app : Reg.app; p_prog : Program.t; cfg : St.config }

(* the plan's content: program digest plus its level and scale arrays *)
let plan_digest (m : Managed.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          [ Intern.digest m.Managed.prog; ints m.Managed.level; ints m.Managed.scale ]))

let compile_paper tr ~seed =
  let progs =
    List.map
      (fun (app : Reg.app) ->
        let kind = app.Reg.name in
        let span name f = Trace.span tr ~kind name (fun _ -> f ()) in
        let p = span "apps.build" app.Reg.build in
        let xmax_bits =
          span "sim.xmax" (fun () ->
              Fhe_sim.Interp.max_magnitude_bits p ~inputs:(app.Reg.inputs ~seed:42))
        in
        { p_app = app; p_prog = p;
          cfg = St.config ~xmax_bits ~rbits:paper_rbits ~wbits:paper_wbits () })
      Reg.all
  in
  let n = List.length progs in
  let expected = Hashtbl.create n in
  (* request [i] compiles all programs, starting at a seed-chosen one *)
  let request tr req =
    let start = ((seed * 1000) + req) mod n in
    let order = List.filteri (fun i _ -> i >= start) progs @ List.filteri (fun i _ -> i < start) progs in
    let g0 = Gc.quick_stat () in
    let t0 = Fhe_util.Timer.now_ns () in
    let plans =
      List.map
        (fun pp ->
          let kind = pp.p_app.Reg.name in
          Trace.span tr ~req ~kind "strategy.compile" (fun _ ->
              (kind, compile tr ~req ~kind pp.cfg pp.p_prog)))
        order
    in
    let t1 = Fhe_util.Timer.now_ns () in
    if tr.Trace.on then begin
      let g1 = Gc.quick_stat () in
      Trace.count tr ~req "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
      Trace.count tr ~req "gc.major_collections"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))
    end;
    let ok =
      List.for_all
        (fun (kind, (m, valid)) ->
          let d = plan_digest m in
          if not (Hashtbl.mem expected kind) then Hashtbl.replace expected kind (d, m);
          valid && fst (Hashtbl.find expected kind) = d)
        plans
    in
    { ms = ms_between t0 t1; ok; err_ratio = 0.0 }
  in
  let w = request tr 0 in
  if not w.ok then failwith "warm-up compile failed validation";
  let plans = List.map (fun pp -> snd (Hashtbl.find expected pp.p_app.Reg.name)) progs in
  let one_compile pp =
    let m =
      Fhe_cache.Store.bypass (fun () ->
          Fhe_strategy.Registry.compile_uncached reserve_full pp.cfg pp.p_prog)
    in
    ignore (Validator.check m)
  in
  let width2_speedup ~reps =
    let w1 = median_ms reps (fun () -> List.iter one_compile progs) in
    let w2 =
      Fhe_par.Pool.with_pool ~domains:2 (fun pool ->
          median_ms reps (fun () -> Fhe_par.Pool.iter pool one_compile progs))
    in
    w1 /. w2
  in
  { rbits = paper_rbits;
    plans;
    request;
    width2_speedup;
    (* the paper's ring, with the backend's 28-bit primes standing in
       for its 60-bit ones *)
    micro_ctx =
      (fun () ->
        let top = List.fold_left (fun a m -> max a (Managed.input_level m)) 1 plans in
        let slots = Program.n_slots (List.hd plans).Managed.prog in
        (Ckks.Context.make ~n:(2 * slots) ~levels:top ~level_bits:exec_rbits (), top));
    rank_pairs = (fun () -> []);
    key_peak_bytes = (fun () -> 0) }

(* 2 MiB holds 12 of MLP's 0.16 MiB switch keys, against a working set
   of 65 (64 rotation steps and the relinearization key): nearly every
   key switch regenerates its key *)
let mlp_key_budget = 2 * 1024 * 1024

let all =
  [ { name = "lenet5-infer"; setup = inference [ "Lenet-5" ] };
    { name = "regress-infer"; setup = inference [ "LR"; "MR"; "PR" ] };
    { name = "mlp-keybudget"; setup = inference ~key_budget:mlp_key_budget [ "MLP" ] };
    { name = "compile-paper"; setup = compile_paper } ]

let find name = List.find_opt (fun w -> w.name = name) all
