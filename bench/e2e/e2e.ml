(* The repo benchmark: end-to-end and per-layer metrics for warm-key
   encrypted inference, key-budgeted inference and paper-scale compile.
   See README.md in this directory for the workloads, the metrics and
   the bounds.

     e2e.exe --seed N [--workload W] [--seconds S | --samples N]
             [--trace 0|1] [--trace-dir D] [--json F]

   One workload runs in this process; several (or none named: all four)
   run one after another, each in a fresh child process, so memory is
   measured per workload.  Every metric prints as a line
   `<workload> <metric> <value> <unit>`; the last line of stdout is one
   JSON object {correct, attempted, failed, metrics}.  Untraced runs
   report the end-to-end metrics; `--trace 1` reports the per-layer
   ones and writes a Chrome trace-event file. *)

module J = Fhe_check.Benchjson
module W = Workload

type config = {
  workloads : string list;
  seed : int;
  seconds : float option;  (** measure for this long (at least 5 requests) *)
  samples : int;  (** else this many requests *)
  trace : bool;
  trace_dir : string;
  json : string option;
  smoke : bool;
  deterministic : bool;
  manifest : string option;
}

type metric = { name : string; value : float; unit_ : string; det : bool }

let metric ?(det = false) name unit_ value = { name; value; unit_; det }

let min_samples = 5

(* set-up runs at least [min_setups] times, and cheap set-ups repeat
   until 3 s have gone into them, at most [max_setups] times *)
let min_setups = 3

let max_setups = 9

let evaluator_ops =
  [ "encrypt"; "decrypt"; "add"; "add_plain"; "mul"; "mul_plain"; "rotate";
    "rescale"; "modswitch"; "rescale_modswitch"; "upscale"; "neg" ]

(* the Table 3 latency class of each evaluator op (encrypt and decrypt
   have none) *)
let latency_class = function
  | "add" -> Some Fhe_cost.Latency.Add_cc
  | "add_plain" | "upscale" -> Some Fhe_cost.Latency.Add_cp
  | "mul" -> Some Fhe_cost.Latency.Mul_cc
  | "mul_plain" -> Some Fhe_cost.Latency.Mul_cp
  | "rotate" -> Some Fhe_cost.Latency.Rotate_c
  | "rescale" -> Some Fhe_cost.Latency.Rescale_c
  | "modswitch" -> Some Fhe_cost.Latency.Modswitch_c
  | "neg" -> Some Fhe_cost.Latency.Modswitch_p
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Metrics of one workload *)

let end_to_end (inst : W.t) ~latencies ~setup_s =
  let sum f = List.fold_left (fun a m -> a +. f m) 0.0 inst.W.plans in
  [ metric "latency_p50_ms" "ms" (Stats.percentile latencies 0.5);
    metric "latency_p75_ms" "ms" (Stats.percentile latencies 0.75);
    metric "setup_s" "s" (Stats.median setup_s);
    metric "peak_rss_mib" "MiB" (Stats.peak_rss_mib ());
    metric ~det:true "plan_est_s" "est_s"
      (sum (fun m -> Fhe_cost.Model.estimate m /. 1e6));
    metric ~det:true "plan_modulus_bits" "bits"
      (sum (fun m -> float_of_int (Fhe_ir.Managed.input_level m * inst.W.rbits))) ]

let per_layer cfg (inst : W.t) (tr : Trace.t) ~n_req ~max_err_ratio ~canary_ms =
  let spans = Trace.spans tr and counters = Trace.counters tr in
  let measured (s : Trace.span) = s.Trace.req >= 1 in
  let named n (s : Trace.span) = s.Trace.name = n in
  let sum_ms p = List.fold_left (fun a s -> if p s then a +. Trace.ms s else a) 0.0 spans in
  let count p = List.length (List.filter p spans) in
  let per_req x = x /. float_of_int n_req in
  let counted name =
    List.filter_map
      (fun (c : Trace.counter) ->
        if c.Trace.c_name = name && c.Trace.c_req >= 1 then Some c.Trace.value
        else None)
      counters
  in
  let counter name = per_req (List.fold_left ( +. ) 0.0 (counted name)) in
  (* a phase's time per request where requests run it, else per set-up *)
  let phase name =
    if List.exists (fun s -> measured s && named name s) spans then
      per_req (sum_ms (fun s -> measured s && named name s))
    else sum_ms (fun s -> s.Trace.req = -1 && named name s)
  in
  let layer_call (s : Trace.span) =
    measured s
    && (String.starts_with ~prefix:"evaluator." s.Trace.name
       || List.mem s.Trace.name
            [ "backend.plain"; "strategy.analyze"; "strategy.annotate";
              "strategy.place"; "ir.validate" ])
  in
  let timed = counted "request.timed_ms" in
  let calls op = count (fun s -> measured s && named ("evaluator." ^ op) s) in
  let op_ms op = sum_ms (fun s -> measured s && named ("evaluator." ^ op) s) in
  (* the layer loops run at the workload's ring and top level; they
     only feed timings, which a deterministic run zeroes *)
  let micro =
    if cfg.deterministic then None
    else begin
      let ctx, level = inst.W.micro_ctx () in
      let scale = Fhe_util.Bits.pow2f W.exec_wbits in
      let unused = List.filter (fun op -> calls op = 0) evaluator_ops in
      let gen_ms, op_us = Micro.evaluator ctx ~level ~scale unused in
      Some (level, gen_ms, op_us, Micro.kernels ctx ~level ~scale)
    end
  in
  let micro_get f = match micro with None -> 0.0 | Some m -> f m in
  (* last: a pool that has existed can slow what runs after it *)
  let width2_speedup =
    if cfg.deterministic then 0.0
    else inst.W.width2_speedup ~reps:(if cfg.smoke then 1 else 3)
  in
  let op_us op =
    if calls op > 0 then op_ms op *. 1e3 /. float_of_int (calls op)
    else micro_get (fun (_, _, op_us, _) -> List.assoc op op_us)
  in
  let evaluator_ms = sum_ms (fun s -> measured s && String.starts_with ~prefix:"evaluator." s.Trace.name) in
  let key_gen_ms =
    match List.filter (named "keys.add_rotation") spans with
    | [] -> micro_get (fun (_, gen_ms, _, _) -> gen_ms)
    | gens -> Stats.mean (List.map Trace.ms gens)
  in
  let rank_corr =
    match inst.W.rank_pairs () with
    | [] ->
        (* no replay: rank the op kinds at the top level instead *)
        micro_get (fun (level, _, _, _) ->
            let pairs =
              List.filter_map
                (fun op ->
                  Option.map
                    (fun c -> (Fhe_cost.Latency.cost c (float_of_int level), op_us op))
                    (latency_class op))
                evaluator_ops
            in
            Stats.spearman (List.map fst pairs) (List.map snd pairs))
    | pairs -> Stats.spearman (List.map fst pairs) (List.map snd pairs)
  in
  let plans f = float_of_int (List.fold_left (fun a m -> a + f m) 0 inst.W.plans) in
  let open Fhe_ir in
  [ metric "request.traced_ms" "ms" (Stats.median timed);
    metric "request.overhead_frac" "fraction"
      (1.0 -. (sum_ms layer_call /. List.fold_left ( +. ) 0.0 timed)) ]
  @ List.concat_map
      (fun op ->
        [ metric ("evaluator." ^ op ^ ".us") "us" (op_us op);
          metric ~det:true ("evaluator." ^ op ^ ".n") "count"
            (per_req (float_of_int (calls op))) ])
      evaluator_ops
  @ [ metric "evaluator.keyswitch_share" "fraction"
        (if evaluator_ms = 0.0 then 0.0 else (op_ms "rotate" +. op_ms "mul") /. evaluator_ms) ]
  @ List.map
      (fun name -> metric name "us" (micro_get (fun (_, _, _, k) -> List.assoc name k)))
      [ "ntt.forward_us"; "ntt.inverse_us"; "encoder.encode_us";
        "encoder.decode_us"; "poly.automorphism_us"; "poly.mul_us" ]
  @ [ metric "keys.gen_ms" "ms" key_gen_ms;
      metric ~det:true "keys.gens" "count" (counter "keys.gens");
      metric ~det:true "keys.evictions" "count" (counter "keys.evictions");
      metric ~det:true "keys.peak_mib" "MiB"
        (float_of_int (inst.W.key_peak_bytes ()) /. 1048576.0);
      metric "strategy.analyze_ms" "ms" (phase "strategy.analyze");
      metric "strategy.annotate_ms" "ms" (phase "strategy.annotate");
      metric "strategy.place_ms" "ms" (phase "strategy.place");
      metric "ir.validate_ms" "ms" (phase "ir.validate");
      metric ~det:true "ir.managed_ops" "count" (plans (fun m -> Program.n_ops m.Managed.prog));
      metric ~det:true "ir.rescales" "count" (plans Managed.n_rescale);
      metric ~det:true "ir.modswitches" "count" (plans Managed.n_modswitch);
      metric ~det:true "ir.upscales" "count" (plans Managed.n_upscale);
      metric "cost.rank_corr" "rho" rank_corr;
      metric ~det:true "oracle.max_err_ratio" "ratio" max_err_ratio;
      metric "apps.build_ms" "ms" (phase "apps.build");
      metric "sim.xmax_ms" "ms" (phase "sim.xmax");
      metric "gc.minor_mwords" "Mwords" (counter "gc.minor_words" /. 1e6);
      metric "gc.major_collections" "count" (counter "gc.major_collections");
      metric "par.width2_speedup" "ratio" width2_speedup;
      metric "host.canary_ms" "ms" canary_ms ]

(* ------------------------------------------------------------------ *)
(* Output *)

(* all digits, for the result line *)
let full_digits f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else if Float.is_nan f then "0"
  else if f > 0.0 then "1e308"
  else "-1e308"

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
          (full_digits m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let workload_json ~correct ~attempted ~failed metrics =
  J.Obj
    [ ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
             metrics) ) ]

let write_json cfg path workloads =
  let oc = open_out_bin path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("schema", J.Str "fhe-bench-e2e/v1");
            ("seed", J.Num (float_of_int cfg.seed));
            ("workloads", J.Obj workloads) ]));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* One workload, in this process *)

let run_one cfg (w : W.spec) =
  let canary0 = Stats.host_canary_ms () in
  let tr = Trace.create ~on:(cfg.trace || cfg.smoke) in
  (* the traced run sets up once: it reports no setup_s *)
  let more_setups n spent =
    if tr.Trace.on then n < 1
    else n < min_setups || (spent < 3.0 && n < max_setups)
  in
  let inst = ref None and setup_s = ref [] in
  while more_setups (List.length !setup_s) (List.fold_left ( +. ) 0.0 !setup_s) do
    (* drop the previous set-up first, so peaks do not stack *)
    inst := None;
    Gc.compact ();
    let i, ms = Fhe_util.Timer.time (fun () -> w.W.setup tr ~seed:cfg.seed) in
    inst := Some i;
    setup_s := (ms /. 1e3) :: !setup_s
  done;
  let inst = Option.get !inst in
  (* start every run's requests from the same compacted heap, not from
     wherever set-up's garbage left the major GC *)
  Gc.compact ();
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let t_start = Fhe_util.Timer.now_ns () in
  let more () =
    match cfg.seconds with
    | None -> !attempted < cfg.samples
    | Some s ->
        !attempted < min_samples
        || W.ms_between t_start (Fhe_util.Timer.now_ns ()) < s *. 1e3
  in
  while more () do
    incr attempted;
    let req = !attempted in
    match Trace.span tr ~req "request" (fun _ -> inst.W.request tr req) with
    | s ->
        Trace.count tr ~req "request.timed_ms" s.W.ms;
        samples := s :: !samples;
        if not s.W.ok then incr failed
    | exception (W.Replay_mismatch _ as e) -> raise e
    | exception e ->
        Printf.eprintf "%s request %d failed: %s\n%!" w.W.name req
          (Printexc.to_string e);
        incr failed
  done;
  let canary_ms = (canary0 +. Stats.host_canary_ms ()) /. 2.0 in
  let latencies = List.map (fun s -> s.W.ms) !samples in
  let max_err_ratio =
    List.fold_left (fun a s -> Float.max a s.W.err_ratio) 0.0 !samples
  in
  let e2e = end_to_end inst ~latencies ~setup_s:!setup_s in
  let layers =
    if tr.Trace.on then
      per_layer cfg inst tr ~n_req:!attempted ~max_err_ratio ~canary_ms
    else []
  in
  let shown =
    if cfg.smoke then e2e @ layers else if cfg.trace then layers else e2e
  in
  let shown =
    if cfg.deterministic then
      List.map (fun m -> if m.det then m else { m with value = 0.0 }) shown
    else shown
  in
  let diag =
    [ metric ~det:true "samples" "count" (float_of_int !attempted);
      metric ~det:true "error_rate" "fraction"
        (float_of_int !failed /. float_of_int !attempted);
      metric ~det:true "max_err_ratio" "ratio" max_err_ratio ]
    @ (if cfg.deterministic then []
       else
         [ metric "setups" "count" (float_of_int (List.length !setup_s));
           metric "host_canary_ms" "ms" canary_ms ])
  in
  List.iter
    (fun m -> Printf.printf "%s %s %.6g %s\n" w.W.name m.name m.value m.unit_)
    (diag @ shown);
  if tr.Trace.on then begin
    if not (Sys.file_exists cfg.trace_dir) then Sys.mkdir cfg.trace_dir 0o755;
    let path = Filename.concat cfg.trace_dir ("trace-" ^ w.W.name ^ ".json") in
    Trace.write tr path;
    if cfg.smoke then begin
      (* the trace must read back as trace-event JSON *)
      match J.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j when J.member "traceEvents" j <> None -> ()
      | _ -> failwith (path ^ ": not a trace-event JSON file")
    end
    else Printf.eprintf "%s: trace written to %s\n%!" w.W.name path
  end;
  let correct = !failed = 0 in
  Option.iter
    (fun path ->
      write_json cfg path
        [ (w.W.name, workload_json ~correct ~attempted:!attempted ~failed:!failed shown) ])
    cfg.json;
  print_endline
    (result_line ~correct ~attempted:!attempted ~failed:!failed shown);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Several workloads, one child process each *)

let child_args cfg name =
  [ "--workload"; name; "--seed"; string_of_int cfg.seed;
    "--samples"; string_of_int cfg.samples;
    "--trace"; (if cfg.trace then "1" else "0"); "--trace-dir"; cfg.trace_dir ]
  @ (match cfg.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
  @ (if cfg.smoke then [ "--smoke" ] else [])
  @ if cfg.deterministic then [ "--deterministic" ] else []

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | l ->
        print_endline l;
        go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let parse_result line =
  match J.parse line with
  | Ok j -> j
  | Error e -> failwith ("unreadable result line: " ^ e)

let manifest_names path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match J.parse text with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  List.concat_map
    (fun key ->
      match J.member key j with
      | Some (J.Arr ms) ->
          List.filter_map
            (fun m -> match J.member "name" m with Some (J.Str n) -> Some n | _ -> None)
            ms
      | _ -> failwith (path ^ ": no " ^ key))
    [ "end_to_end"; "per_layer" ]

let run_children cfg names =
  let expected = Option.map manifest_names cfg.manifest in
  let bad = ref false in
  let results =
    List.map
      (fun name ->
        let args = Array.of_list (Sys.executable_name :: child_args cfg name) in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = read_lines ic in
        let status = Unix.close_process_in ic in
        let j =
          match List.rev lines with
          | last :: _ when status = Unix.WEXITED 0 -> parse_result last
          | _ ->
              bad := true;
              Printf.eprintf "%s: child run failed\n%!" name;
              J.Obj []
        in
        (match (expected, J.member "metrics" j) with
        | Some names, Some (J.Obj ms) ->
            List.iter
              (fun n ->
                if not (List.mem_assoc n ms) then begin
                  bad := true;
                  Printf.eprintf "%s: metric %s not printed\n%!" name n
                end)
              names
        | _ -> ());
        if J.member "failed" j <> Some (J.Num 0.0) then bad := true;
        (name, j))
      names
  in
  Option.iter (fun path -> write_json cfg path results) cfg.json;
  let num key j = match J.member key j with Some (J.Num v) -> int_of_float v | _ -> 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n"
    (not !bad)
    (List.fold_left (fun a (_, j) -> a + num "attempted" j) 0 results)
    (List.fold_left (fun a (_, j) -> a + num "failed" j) 0 results);
  if !bad then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref None
  and samples = ref 40 and trace = ref false and trace_dir = ref "_e2e"
  and json = ref None and smoke = ref false
  and deterministic = ref false and manifest = ref None in
  let names = List.map (fun (w : W.spec) -> w.W.name) W.all in
  let spec =
    [ ( "--workload",
        Arg.Symbol (names, fun w -> workloads := !workloads @ [ w ]),
        " run this workload (repeatable; default: all)" );
      ("--seed", Arg.Set_int seed, "N seed of the encrypted inputs (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S measure for S seconds (at least 5 requests)" );
      ("--samples", Arg.Set_int samples, "N measure N requests (default 40)");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 traced run: per-layer metrics and a trace file" );
      ( "--trace-dir",
        Arg.Set_string trace_dir,
        "D write trace-<workload>.json here (default _e2e)" );
      ("--json", Arg.String (fun f -> json := Some f), "F also write the metrics here");
      ( "--smoke",
        Arg.Set smoke,
        " quick self-check: 2 requests, 1 set-up, every metric printed" );
      ( "--deterministic",
        Arg.Set deterministic,
        " zero every timing, so outputs byte-compare" );
      ( "--manifest",
        Arg.String (fun f -> manifest := Some f),
        "F check every metric named in this BENCHMARK.json is printed" ) ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload W] --seed N [--seconds S] [--trace 0|1]";
  let cfg =
    { workloads = (if !workloads = [] then names else !workloads);
      seed = !seed;
      seconds = (if !smoke then None else !seconds);
      samples = (if !smoke then 2 else !samples);
      trace = !trace;
      trace_dir = !trace_dir;
      json = !json;
      smoke = !smoke;
      deterministic = !deterministic;
      manifest = !manifest }
  in
  match cfg.workloads with
  | [ name ] when cfg.manifest = None -> (
      try run_one cfg (Option.get (W.find name)) with
      | W.Replay_mismatch msg ->
          prerr_endline ("e2e: " ^ msg);
          exit 3)
  | names -> run_children cfg names
