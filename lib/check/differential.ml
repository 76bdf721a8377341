open Fhe_ir
module Oracle = Fhe_sim.Oracle

type compiler = Fhe_strategy.Strategy.t

let all_compilers = Fhe_strategy.Registry.all ()
let compiler_name = Fhe_strategy.Strategy.name
let of_name = Fhe_strategy.Registry.of_name

type entry = {
  compiler : compiler;
  managed : Managed.t option;
  compile_ms : float;
  input_level : int;
  modulus_bits : int;
  est_latency_us : float;
  validator_errors : string list;
  lemma_violations : Invariants.violation list;
  oracle : Oracle.report option;
  crash : string option;
}

let entry_ok e =
  e.crash = None && e.managed <> None && e.validator_errors = []
  && e.lemma_violations = []
  && match e.oracle with Some o -> Oracle.ok o | None -> false

type report = { label : string; entries : entry list }

let ok r = List.for_all entry_ok r.entries

let failures r =
  List.filter_map
    (fun e ->
      if entry_ok e then None
      else
        let what =
          match e.crash with
          | Some msg -> "crash: " ^ msg
          | None -> (
              match (e.validator_errors, e.lemma_violations, e.oracle) with
              | v :: _, _, _ -> "validator: " ^ v
              | [], l :: _, _ ->
                  Format.asprintf "%a" Invariants.pp_violation l
              | [], [], Some o when not (Oracle.ok o) ->
                  Format.asprintf "%a" Oracle.pp_mismatch
                    (List.hd o.Oracle.mismatches)
              | _ -> "no managed program produced")
        in
        Some (compiler_name e.compiler, what))
    r.entries

let run ?pool ?(rbits = 60) ?(wbits = 30) ?(xmax_bits = 0)
    ?(hecate_iterations = 60) ?(compilers = all_compilers)
    ?(verify_cache = true) ~label p ~inputs =
  let cfg =
    Fhe_strategy.Strategy.config ~xmax_bits ~iterations:hecate_iterations
      ~rbits ~wbits ()
  in
  let one compiler =
    let compile () = Fhe_strategy.Registry.compile_uncached compiler cfg p in
    (* every strategy goes through the content-addressed store; the
       compute path is bypassed so a miss is a genuinely cold compile *)
    let cached_compile () =
      if not (Fhe_cache.Store.active ()) then (compile (), false)
      else
        Fhe_cache.Store.with_managed_hit
          ~key:(Fhe_strategy.Strategy.cache_key compiler cfg p)
          (fun () -> Fhe_cache.Store.bypass compile)
    in
    match Fhe_util.Timer.time cached_compile with
    | (m, from_cache), compile_ms ->
        let validator_errors =
          match Validator.check m with
          | Ok () -> []
          | Error es ->
              List.map (Format.asprintf "%a" Validator.pp_error) es
        in
        let lemma_violations =
          let base = Invariants.check m in
          (* cache-soundness lemma: a served plan must agree with a
             fresh recompute op for op *)
          if from_cache && verify_cache then
            base
            @ Invariants.check_cache_consistency ~cached:m
                ~fresh:(Fhe_cache.Store.bypass compile)
          else base
        in
        let oracle =
          try Some (Oracle.check p m ~inputs)
          with _ -> None
        in
        {
          compiler;
          managed = Some m;
          compile_ms;
          input_level = Managed.input_level m;
          modulus_bits = Managed.input_level m * rbits;
          est_latency_us = Fhe_cost.Model.estimate m;
          validator_errors;
          lemma_violations;
          oracle;
          crash = None;
        }
    | exception e ->
        {
          compiler;
          managed = None;
          compile_ms = 0.0;
          input_level = 0;
          modulus_bits = 0;
          est_latency_us = 0.0;
          validator_errors = [];
          lemma_violations = [];
          oracle = None;
          crash = Some (Printexc.to_string e);
        }
  in
  let entries =
    match pool with
    | None -> List.map one compilers
    | Some pool -> Fhe_par.Pool.map pool one compilers
  in
  { label; entries }

let pp ppf r =
  Format.fprintf ppf "differential %s:" r.label;
  List.iter
    (fun e ->
      Format.fprintf ppf "@\n  %-12s " (compiler_name e.compiler);
      if entry_ok e then
        Format.fprintf ppf "ok  L=%d (%d bits)  %.2f ms  est %.3f s"
          e.input_level e.modulus_bits e.compile_ms
          (e.est_latency_us /. 1e6)
      else
        match failures { r with entries = [ e ] } with
        | (_, what) :: _ -> Format.fprintf ppf "FAIL  %s" what
        | [] -> Format.fprintf ppf "FAIL")
    r.entries
