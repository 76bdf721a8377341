(* fhec — the command-line driver for the RNS-CKKS scale-management
   compilers.

     fhec list
     fhec compile --app SF --compiler reserve --waterline 30 --print-ir
     fhec run --app LR --compiler eva --waterline 20
     fhec compare --app MLP --waterline 30 *)

open Cmdliner
open Fhe_ir
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry

(* ------------------------------------------------------------------ *)
(* Shared argument definitions *)

let app_arg =
  let doc = "Benchmark application (see $(b,fhec list))." in
  Arg.(required & opt (some string) None & info [ "app"; "a" ] ~docv:"NAME" ~doc)

let compiler_arg =
  let doc =
    "Scale-management strategy: $(b,reserve) (this work), $(b,eva), \
     $(b,hecate), the ablations $(b,ba) / $(b,ra), or $(b,portfolio) to \
     race every registered strategy and keep the best est-latency plan \
     (see $(b,fhec --list-strategies))."
  in
  Arg.(value & opt string "reserve" & info [ "compiler"; "c" ] ~docv:"NAME" ~doc)

let strategy_arg =
  let doc =
    "Synonym for $(b,--compiler) that wins when both are given: any \
     registered strategy name or alias, or $(b,portfolio)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "strategy" ] ~docv:"NAME|portfolio" ~doc)

let waterline_arg =
  let doc = "Waterline in bits (the minimum ciphertext scale)." in
  Arg.(value & opt int 30 & info [ "waterline"; "w" ] ~docv:"BITS" ~doc)

let rbits_arg =
  let doc = "Rescaling factor in bits (the paper uses 60)." in
  Arg.(value & opt int 60 & info [ "rbits" ] ~docv:"BITS" ~doc)

let iterations_arg =
  let doc = "Exploration budget for the Hecate compiler (0 = auto)." in
  Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)

let print_ir_arg =
  let doc = "Print the managed IR with scale/level annotations." in
  Arg.(value & flag & info [ "print-ir" ] ~doc)

let seed_arg =
  let doc = "Seed for the synthetic input data." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

(* content-addressed compilation cache (Fhe_cache.Store); enabled
   in-memory by default, so the flags exist to turn it off, to make the
   default explicit in scripts, and to add the on-disk store *)
let cache_arg =
  let doc =
    "Enable the content-addressed compilation cache (the default; \
     in-memory only unless $(b,--cache-dir) is given)."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let no_cache_arg =
  let doc = "Disable the compilation cache entirely." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist cache entries under $(docv) (created on first write; \
     corrupt entries are detected, discarded and recomputed).  Implies \
     $(b,--cache)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let setup_cache cache dir no_cache =
  Fhe_cache.Store.set_dir dir;
  if no_cache then Fhe_cache.Store.set_enabled false
  else if cache || dir <> None then Fhe_cache.Store.set_enabled true

let cache_term =
  Term.(const setup_cache $ cache_arg $ cache_dir_arg $ no_cache_arg)

let jobs_arg =
  let doc =
    "Parallel width of the driver: a fixed-size pool of $(docv) domains \
     compiles independent programs concurrently.  $(b,-j 1) is the \
     sequential legacy path; 0 (the default) uses the runtime's \
     recommended domain count.  Reports are byte-identical at every \
     width."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* -j N -> a pool for the driver (None = sequential legacy path) *)
let with_pool jobs f =
  let width = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  if width = 1 then f None
  else Fhe_par.Pool.with_pool ~domains:width (fun pool -> f (Some pool))

let find_app name =
  match Reg.find name with
  | a -> Ok a
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown app %S; try: %s" name
           (String.concat ", " (List.map (fun a -> a.Reg.name) Reg.all)))

(* Escaped compiler exceptions become clean CLI errors, not backtraces. *)
let protecting f =
  match f () with
  | v -> v
  | exception e ->
      Error (Printf.sprintf "compilation failed: %s" (Printexc.to_string e))

let validated m =
  match Validator.check m with
  | Ok () -> Ok m
  | Error es ->
      Error
        (Format.asprintf "illegal managed program:@\n%a"
           (Format.pp_print_list ~pp_sep:Format.pp_print_newline
              Validator.pp_error)
           es)

let render_attempts attempts =
  String.concat "\n"
    (List.map
       (fun (a : SReg.attempt) ->
         Format.asprintf "attempt %s (waterline %d):@\n%a" a.SReg.strategy
           a.SReg.wbits Reserve.Diag.pp_list a.SReg.diags)
       attempts)

(* Per-leg portfolio report: est latencies only (wall times and cache
   hits are nondeterministic, and this output is byte-compared across
   pool widths). *)
let pp_portfolio (r : Fhe_strategy.Portfolio.report) =
  Printf.printf "portfolio      : %d strategies raced\n"
    (List.length r.Fhe_strategy.Portfolio.legs);
  List.iter
    (fun (l : Fhe_strategy.Portfolio.leg) ->
      match l.Fhe_strategy.Portfolio.result with
      | Ok _ ->
          Printf.printf "  %-12s est %10.3f s\n"
            (St.name l.Fhe_strategy.Portfolio.strategy)
            (l.Fhe_strategy.Portfolio.est_latency_us /. 1e6)
      | Error _ ->
          Printf.printf "  %-12s FAILED\n"
            (St.name l.Fhe_strategy.Portfolio.strategy))
    r.Fhe_strategy.Portfolio.legs;
  Printf.printf "winner         : %s\n"
    (St.name r.Fhe_strategy.Portfolio.winner.Fhe_strategy.Portfolio.strategy)

let do_compile ?(fallback = false) ?pool app compiler ~rbits ~wbits
    ~iterations =
  protecting (fun () ->
      let p = app.Reg.build () in
      let xmax_bits =
        Fhe_sim.Interp.max_magnitude_bits p ~inputs:(app.Reg.inputs ~seed:42)
      in
      let iterations = if iterations <= 0 then None else Some iterations in
      let cfg = St.config ~xmax_bits ?iterations ~rbits ~wbits () in
      let name = String.lowercase_ascii compiler in
      if name = Fhe_strategy.Portfolio.mode_name then begin
        (* portfolio is a race, not a deep search: bound the Hecate
           leg's exploration when no budget was given *)
        let cfg =
          if cfg.St.iterations = None then
            { cfg with St.iterations = Some 60 }
          else cfg
        in
        match Fhe_strategy.Portfolio.run ?pool cfg p with
        | Error msg -> Error msg
        | Ok r -> (
            pp_portfolio r;
            match
              r.Fhe_strategy.Portfolio.winner.Fhe_strategy.Portfolio.result
            with
            | Ok m -> Ok (p, m, xmax_bits)
            | Error _ -> assert false (* the winner is an Ok leg *))
      end
      else
        match SReg.of_name name with
        | None -> Error (Printf.sprintf "unknown compiler %S" name)
        | Some s -> (
            match
              SReg.compile_safe s cfg ~strict:(not fallback) ~oracle:true
                ~oracle_inputs:(app.Reg.inputs ~seed:42) p
            with
            | Ok o ->
                List.iter
                  (fun d -> Printf.printf "%s\n" (Reserve.Diag.to_string d))
                  o.SReg.warnings;
                if o.SReg.fallbacks <> [] then
                  Printf.printf "fallback engine : %s (waterline %d)\n"
                    o.SReg.strategy o.SReg.wbits;
                Ok (p, o.SReg.managed, xmax_bits)
            | Error attempts -> Error (render_attempts attempts)))

let report app (m : Managed.t) xmax =
  Printf.printf "app            : %s (%s)\n" app.Reg.name app.Reg.description;
  Printf.printf "arith ops      : %d\n" (Program.n_arith m.Managed.prog);
  Printf.printf "managed ops    : %d (+%d rescale, %d modswitch, %d upscale)\n"
    (Program.n_ops m.Managed.prog)
    (Managed.n_rescale m) (Managed.n_modswitch m) (Managed.n_upscale m);
  Printf.printf "x_max headroom : %d bits\n" xmax;
  Printf.printf "input level L  : %d (Q = R^%d)\n" (Managed.input_level m)
    (Managed.input_level m);
  Printf.printf "est. latency   : %.3f s\n" (Fhe_cost.Model.estimate m /. 1e6)

(* ------------------------------------------------------------------ *)
(* Commands *)

let list_cmd =
  let run () =
    List.iter
      (fun (a : Reg.app) ->
        Printf.printf "%-8s %s\n" a.Reg.name a.Reg.description)
      Reg.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark applications")
    Term.(const run $ const ())

let handle = function
  | Ok () -> `Ok ()
  | Error msg -> `Error (false, msg)

let fallback_arg =
  let doc =
    "Degrade gracefully: on any pass, validation, or self-check failure \
     walk the fallback chain (reserve → ablations → EVA → EVA at lower \
     waterlines) instead of failing."
  in
  Arg.(value & flag & info [ "fallback" ] ~doc)

let strict_arg =
  let doc =
    "Attempt only the requested configuration and fail loudly (default; \
     overrides $(b,--fallback))."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let compile_cmd =
  let run () app strategy compiler wbits rbits iterations print_ir fallback
      strict jobs =
    let compiler = Option.value strategy ~default:compiler in
    handle
      (Result.bind (find_app app) (fun app ->
           let compile pool =
             do_compile
               ~fallback:(fallback && not strict)
               ?pool app compiler ~rbits ~wbits ~iterations
           in
           let compiled =
             (* only portfolio mode races legs on a pool; named
                strategies compile inline *)
             if
               String.lowercase_ascii compiler
               = Fhe_strategy.Portfolio.mode_name
             then with_pool jobs compile
             else compile None
           in
           Result.bind compiled (fun (_, m, xmax) ->
               Result.bind (validated m) (fun m ->
                   report app m xmax;
                   if print_ir then
                     Format.printf "%a"
                       (Pp.pp_managed ~scale:m.Managed.scale
                          ~level:m.Managed.level)
                       m.Managed.prog;
                   Ok ()))))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an application and report statistics")
    Term.(
      ret
        (const run $ cache_term $ app_arg $ strategy_arg $ compiler_arg
       $ waterline_arg $ rbits_arg $ iterations_arg $ print_ir_arg
       $ fallback_arg $ strict_arg $ jobs_arg))

let run_cmd =
  let run () app compiler wbits rbits iterations seed =
    handle
      (Result.bind (find_app app) (fun app ->
           Result.bind (do_compile app compiler ~rbits ~wbits ~iterations)
             (fun (p, m, xmax) ->
               Result.bind (validated m) (fun m ->
                   report app m xmax;
                   let inputs = app.Reg.inputs ~seed in
                   let outs = Fhe_sim.Interp.run m ~inputs in
                   let refs = Fhe_sim.Interp.run_reference p ~inputs in
                   let mismatched = ref 0 in
                   Array.iteri
                     (fun i (v : Fhe_sim.Interp.value) ->
                       Printf.printf
                         "output %d: first slots [%.5f %.5f %.5f] (expected \
                          [%.5f %.5f %.5f]), error bound 2^%.1f\n"
                         i v.Fhe_sim.Interp.data.(0) v.Fhe_sim.Interp.data.(1)
                         v.Fhe_sim.Interp.data.(2) refs.(i).(0) refs.(i).(1)
                         refs.(i).(2)
                         (Fhe_util.Bits.log2f v.Fhe_sim.Interp.err);
                       Array.iteri
                         (fun j x ->
                           let bound =
                             v.Fhe_sim.Interp.err
                             +. (1e-9 *. (1.0 +. Float.abs refs.(i).(j)))
                           in
                           if Float.abs (x -. refs.(i).(j)) > bound then
                             incr mismatched)
                         v.Fhe_sim.Interp.data)
                     outs;
                   if !mismatched > 0 then
                     Error
                       (Printf.sprintf
                          "differential check failed: %d slot(s) differ from \
                           the reference beyond the noise bound"
                          !mismatched)
                   else Ok ()))))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile and execute on the fixed-point/noise simulator")
    Term.(
      ret
        (const run $ cache_term $ app_arg $ compiler_arg $ waterline_arg
       $ rbits_arg $ iterations_arg $ seed_arg))

let compare_cmd =
  let run () app wbits rbits iterations =
    handle
      (Result.bind (find_app app) (fun app ->
           let one name =
             Result.map
               (fun (_, m, _) -> (name, Fhe_cost.Model.estimate m))
               (do_compile app name ~rbits ~wbits ~iterations)
           in
           Result.bind (one "eva") (fun eva ->
               Result.bind (one "hecate") (fun hec ->
                   Result.bind (one "reserve") (fun rsv ->
                       let print (name, cost) =
                         Printf.printf "%-8s %10.3f s   (%.2fx vs EVA)\n" name
                           (cost /. 1e6) (snd eva /. cost)
                       in
                       List.iter print [ eva; hec; rsv ];
                       Ok ())))))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all three compilers on one application")
    Term.(
      ret
        (const run $ cache_term $ app_arg $ waterline_arg $ rbits_arg
       $ iterations_arg))

let compile_file_cmd =
  let file_arg =
    let doc = "Program file in the textual IR format (see Fhe_ir.Parser)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let dot_arg =
    let doc = "Also write a Graphviz rendering of the managed program." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT.dot" ~doc)
  in
  let n_slots_arg =
    let doc = "Slot count of the program's ciphertexts." in
    Arg.(value & opt int 4096 & info [ "slots" ] ~docv:"N" ~doc)
  in
  let run () file compiler wbits rbits n_slots print_ir dot =
    handle
      (protecting @@ fun () ->
       let ic = open_in_bin file in
       let text = really_input_string ic (in_channel_length ic) in
       close_in ic;
       match Parser.parse ~n_slots text with
       | Error e ->
           Error (Format.asprintf "%s: %a" file Parser.pp_error e)
       | Ok p ->
           let m =
             match SReg.of_name compiler with
             | Some s ->
                 Ok (SReg.compile s (St.config ~rbits ~wbits ()) p)
             | None ->
                 Error
                   (Printf.sprintf "unknown compiler %S"
                      (String.lowercase_ascii compiler))
           in
           Result.bind m (fun m ->
           Result.bind (validated m) (fun m ->
               Printf.printf "%s: %d ops -> %d managed, L = %d, est %.3f s\n"
                 file (Program.n_arith p)
                 (Program.n_ops m.Managed.prog)
                 (Managed.input_level m)
                 (Fhe_cost.Model.estimate m /. 1e6);
               if print_ir then
                 Format.printf "%a"
                   (Pp.pp_managed ~scale:m.Managed.scale
                      ~level:m.Managed.level)
                   m.Managed.prog;
               Option.iter
                 (fun path ->
                   let oc = open_out path in
                   output_string oc (Pp.to_dot ~managed:m m.Managed.prog);
                   close_out oc;
                   Printf.printf "wrote %s\n" path)
                 dot;
               Ok ())))
  in
  Cmd.v
    (Cmd.info "compile-file"
       ~doc:"Compile a program written in the textual IR format")
    Term.(
      ret
        (const run $ cache_term $ file_arg $ compiler_arg $ waterline_arg
       $ rbits_arg $ n_slots_arg $ print_ir_arg $ dot_arg))

let fuzz_cmd =
  let seeds_arg =
    let doc = "Number of random programs to push through the compiler." in
    Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let size_arg =
    let doc = "Approximate op count of each random program." in
    Arg.(value & opt int 25 & info [ "size" ] ~docv:"OPS" ~doc)
  in
  let run () seeds size wbits rbits strict jobs =
    handle
      (if seeds <= 0 then Error "--seeds must be positive"
       else
         with_pool jobs (fun pool ->
             let s =
               Fhe_check.Fuzzdriver.run ?pool ~size ~rbits ~wbits ~strict
                 ~seeds ()
             in
             Format.printf "%a@." Fhe_check.Fuzzdriver.pp s;
             Fhe_check.Fuzzdriver.verdict s))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Push random programs and injected faults through the resilient \
          driver and report pass/fallback/crash counts per fault class")
    Term.(
      ret
        (const run $ cache_term $ seeds_arg $ size_arg $ waterline_arg
       $ rbits_arg $ strict_arg $ jobs_arg))

let check_cmd =
  let apps_arg =
    let doc = "Check the eight registry applications." in
    Arg.(value & flag & info [ "apps" ] ~doc)
  in
  let gen_arg =
    let doc = "Also check $(docv) coverage-guided generated programs." in
    Arg.(value & opt int 0 & info [ "gen" ] ~docv:"N" ~doc)
  in
  let check_seed_arg =
    let doc = "Seed of the coverage-guided generator." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let hecate_arg =
    let doc = "Hecate exploration budget per program." in
    Arg.(value & opt int 60 & info [ "hecate-iterations" ] ~docv:"N" ~doc)
  in
  let verbose_arg =
    let doc = "Print one status line per checked program." in
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
  in
  let run () apps gen seed wbits rbits hecate verbose jobs =
    handle
      (if (not apps) && gen <= 0 then
         Error "nothing to check: pass --apps and/or --gen N"
       else
         with_pool jobs (fun pool ->
             let progress = if verbose then print_endline else fun _ -> () in
             let s =
               Fhe_check.Conformance.run ?pool ~rbits ~wbits
                 ~hecate_iterations:hecate ~apps ~gen ~seed ~progress ()
             in
             Format.printf "%a@." Fhe_check.Conformance.pp s;
             if Fhe_check.Conformance.ok s then Ok ()
             else
               Error
                 (Printf.sprintf "conformance: %d violation(s)"
                    (List.length s.Fhe_check.Conformance.failures))))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the conformance subsystem: differential compilation under \
          EVA/Hecate/reserve variants with semantic-equivalence and \
          reserve-typing oracles, plus metamorphic pass-preservation, over \
          the registry apps and/or coverage-guided generated programs")
    Term.(
      ret
        (const run $ cache_term $ apps_arg $ gen_arg $ check_seed_arg
       $ waterline_arg $ rbits_arg $ hecate_arg $ verbose_arg $ jobs_arg))

let exec_cmd =
  (* exec-scale defaults: 28-bit primes (the Ckks backend's ceiling)
     and a waterline that leaves headroom under them *)
  let exec_waterline_arg =
    let doc = "Waterline in bits (the minimum ciphertext scale)." in
    Arg.(value & opt int 22 & info [ "waterline"; "w" ] ~docv:"BITS" ~doc)
  in
  let exec_rbits_arg =
    let doc = "Rescaling factor in bits (must be at most 28: chain \
               primes live below 2^30)." in
    Arg.(value & opt int 28 & info [ "rbits" ] ~docv:"BITS" ~doc)
  in
  let mem_budget_arg =
    let doc = "Ciphertext + switch-key memory budget in bytes (0 = \
               unlimited).  Under a budget, cold ciphertexts spill to a \
               checksummed on-disk store and switch keys regenerate on \
               demand; decrypted results are byte-identical either way." in
    Arg.(value & opt int 0 & info [ "mem-budget" ] ~docv:"BYTES" ~doc)
  in
  let no_sched_arg =
    let doc = "Execute in program order without liveness scheduling, \
               freeing, or arena reuse (debugging aid; results are \
               byte-identical with scheduling on)." in
    Arg.(value & flag & info [ "no-sched" ] ~doc)
  in
  let run () app compiler wbits rbits iterations seed jobs mem_budget no_sched =
    handle
      (Result.bind (find_app app) (fun app ->
           protecting @@ fun () ->
           let p = app.Reg.exec_build () in
           let inputs = app.Reg.exec_inputs ~seed in
           let xmax_bits = Fhe_sim.Interp.max_magnitude_bits p ~inputs in
           let iterations = if iterations <= 0 then None else Some iterations in
           let m =
             match SReg.of_name compiler with
             | Some s ->
                 Ok
                   (SReg.compile s
                      (St.config ~xmax_bits ?iterations ~rbits ~wbits ())
                      p)
             | None ->
                 Error
                   (Printf.sprintf "unknown compiler %S"
                      (String.lowercase_ascii compiler))
           in
           Result.bind m (fun m ->
           Result.bind (validated m) (fun m ->
               with_pool jobs (fun pool ->
                   let mem_budget =
                     if mem_budget > 0 then Some mem_budget else None
                   in
                   let outs, st =
                     Ckks.Backend.run_timed ?pool ~sched:(not no_sched)
                       ?mem_budget m ~inputs
                   in
                   let refs = Fhe_sim.Interp.run_reference p ~inputs in
                   (* results on stdout — deterministic at every pool
                      width and across runs (seeded samplers), so the
                      test tree can byte-compare -j 1 against -j 4;
                      wall times go to stderr *)
                   Printf.printf "app %s compiler %s  L=%d  slots=%d\n"
                     app.Reg.name
                     (String.lowercase_ascii compiler)
                     (Managed.input_level m)
                     (Program.n_slots p);
                   Array.iteri
                     (fun o out ->
                       let err = ref 0.0 in
                       Array.iteri
                         (fun j x ->
                           let d = Float.abs (x -. refs.(o).(j)) in
                           if d > !err then err := d)
                         out;
                       Printf.printf
                         "output %d: slots [%.4f %.4f %.4f]  max|err| %.3e  \
                          level %d\n"
                         o out.(0) out.(1) out.(2) !err
                         st.Ckks.Backend.output_levels.(o))
                     outs;
                   Printf.eprintf
                     "keygen %.2f ms | encrypt %.2f ms | eval %.2f ms | \
                      decrypt %.2f ms\n"
                     st.Ckks.Backend.keygen_ms st.Ckks.Backend.encrypt_ms
                     st.Ckks.Backend.eval_ms st.Ckks.Backend.decrypt_ms;
                   (* memory report stays on stderr: stdout is
                      byte-compared across budgets by the test tree *)
                   let mem = st.Ckks.Backend.mem in
                   Printf.eprintf
                     "mem: peak ct %d B (program order %d B, no-free %d B, \
                      %s) | peak keys %d B | key gens %d evictions %d | \
                      spills %d reloads %d recomputes %d | arena reuses %d \
                      | hoisted rotations %d\n"
                     mem.Ckks.Backend.peak_ct_bytes
                     mem.Ckks.Backend.order_ct_bytes
                     mem.Ckks.Backend.resident_ct_bytes
                     (if mem.Ckks.Backend.reordered then "reordered"
                      else "program order")
                     mem.Ckks.Backend.peak_key_bytes
                     mem.Ckks.Backend.key_gens mem.Ckks.Backend.key_evictions
                     mem.Ckks.Backend.ct_spills mem.Ckks.Backend.ct_reloads
                     mem.Ckks.Backend.ct_recomputes
                     mem.Ckks.Backend.arena_reuses
                     mem.Ckks.Backend.hoisted_rotations;
                   Ok ())))))
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Compile the exec-scale variant of an application and run it \
          end-to-end on the real RNS-CKKS backend (keygen, encrypt, \
          evaluate, decrypt), reporting decrypted slots, the error \
          against the plaintext reference, and wall times")
    Term.(
      ret
        (const run $ cache_term $ app_arg $ compiler_arg $ exec_waterline_arg
       $ exec_rbits_arg $ iterations_arg $ seed_arg $ jobs_arg
       $ mem_budget_arg $ no_sched_arg))

(* ------------------------------------------------------------------ *)
(* The compile daemon and its client *)

module Srv = Fhe_serve.Server
module Cli = Fhe_serve.Client
module Proto = Fhe_serve.Protocol

let socket_arg =
  let doc = "Unix-domain socket path of the compile daemon.  Keep it \
             short (under ~100 bytes): sockaddr_un caps the length." in
  Arg.(value & opt string "/tmp/fhec.sock"
       & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

(* CLI compiler names -> canonical protocol labels *)
let protocol_compiler c =
  if c = Fhe_strategy.Portfolio.mode_name then Ok c
  else
    match SReg.of_name c with
    | Some s -> Ok (St.name s)
    | None -> Error (Printf.sprintf "unknown compiler %S" c)

let build_request ?(strategies = []) app_name compiler ~tenant ~rbits ~wbits
    ~iterations ~fallback ~deadline_ms =
  Result.bind (find_app app_name) @@ fun app ->
  Result.bind (protocol_compiler (String.lowercase_ascii compiler))
  @@ fun compiler ->
  protecting @@ fun () ->
  let p = app.Reg.build () in
  let xmax_bits =
    Fhe_sim.Interp.max_magnitude_bits p ~inputs:(app.Reg.inputs ~seed:42)
  in
  Ok
    {
      Proto.tenant;
      compiler;
      strategies;
      rbits;
      wbits;
      xmax_bits;
      iterations;
      allow_fallback = fallback;
      oracle = true;
      deadline_ms;
      program = p;
    }

let self_test ~socket =
  let socket =
    if socket = "/tmp/fhec.sock" then
      Printf.sprintf "/tmp/fhec-selftest-%d.sock" (Unix.getpid ())
    else socket
  in
  let cfg = { (Srv.default_config ~socket) with capacity = 4; degrade_at = 4 } in
  let t = Srv.start cfg in
  Fun.protect ~finally:(fun () -> Srv.stop t) @@ fun () ->
  Result.bind
    (Result.bind (Cli.connect ~socket ()) (fun c ->
         let r = Cli.ping c in
         Cli.close c;
         r))
  @@ fun () ->
  Printf.printf "self-test: ping ok\n%!";
  let one compiler =
    Result.bind
      (build_request "SF" compiler ~tenant:"" ~rbits:60 ~wbits:30 ~iterations:0
         ~fallback:false ~deadline_ms:0)
    @@ fun req ->
    Result.bind (Cli.compile_retry ~socket req) @@ fun (reply, _) ->
    match reply with
    | Proto.Compiled r | Proto.Degraded r ->
        (* the same dispatch with no transport in between: the served
           bytes must agree exactly *)
        let local = Srv.compile_one Fhe_serve.Admission.Normal req in
        let parity =
          match local with
          | Proto.Compiled l | Proto.Degraded l ->
              Wire.encode_managed l.Proto.managed
              = Wire.encode_managed r.Proto.managed
          | _ -> false
        in
        if not parity then
          Error (Printf.sprintf "%s: served result differs from local" compiler)
        else begin
          Printf.printf "self-test: compile SF/%s ok (engine %s, L=%d, \
                         parity ok)\n%!"
            compiler r.Proto.engine
            (Managed.input_level r.Proto.managed);
          Ok ()
        end
    | other ->
        Error
          (Printf.sprintf "%s: unexpected reply %s" compiler
             (Proto.reply_name other))
  in
  Result.bind (one "reserve-full") @@ fun () ->
  Result.bind (one "eva") @@ fun () ->
  Result.bind (one "portfolio") @@ fun () ->
  Result.bind
    (Result.bind (Cli.connect ~socket ()) (fun c ->
         let r = Cli.list_strategies c in
         Cli.close c;
         r))
  @@ fun infos ->
  Printf.printf "self-test: strategies ok (%d registered)\n%!"
    (List.length infos);
  Result.bind
    (Result.bind (Cli.connect ~socket ()) (fun c ->
         let r = Cli.stats c in
         Cli.close c;
         r))
  @@ fun _json ->
  Printf.printf "self-test: stats ok\n%!";
  Printf.printf "self-test: PASS\n%!";
  Ok ()

let serve_cmd =
  let domains_arg =
    let doc = "Width of the compile worker pool (at least 2)." in
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc = "Maximum compiles in flight before requests are shed." in
    Arg.(value & opt int 8 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let degrade_arg =
    let doc =
      "In-flight threshold above which admitted requests run with the \
       fallback chain enabled (graceful degradation under load)."
    in
    Arg.(value & opt int 6 & info [ "degrade-at" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-request compile budget in milliseconds." in
    Arg.(value & opt int 30_000 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let read_timeout_arg =
    let doc = "Per-connection receive/send timeout in milliseconds \
               (the slow-loris guard)." in
    Arg.(value & opt int 2_000 & info [ "read-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let self_test_arg =
    let doc =
      "Start a private daemon, push pings and compiles through a real \
       socket, verify served results match local compilation \
       byte-for-byte, and exit."
    in
    Arg.(value & flag & info [ "self-test" ] ~doc)
  in
  let run () socket domains capacity degrade_at deadline_ms read_timeout_ms
      self_test_flag =
    handle
      (protecting @@ fun () ->
       if self_test_flag then self_test ~socket
       else begin
         let cfg =
           {
             Srv.socket;
             domains;
             capacity;
             degrade_at;
             default_deadline_ms = deadline_ms;
             read_timeout_ms;
             max_payload = Proto.max_payload_default;
           }
         in
         Printf.printf "fhec serve: listening on %s (pool %d, capacity %d)\n%!"
           socket (max 2 domains) capacity;
         Srv.run cfg;
         Ok ()
       end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resilient compile daemon: a Unix-domain-socket service \
          with bounded admission (explicit shedding), per-request deadline \
          budgets, graceful degradation under load, and a shared \
          per-tenant compilation cache")
    Term.(
      ret
        (const run $ cache_term $ socket_arg $ domains_arg $ capacity_arg
       $ degrade_arg $ deadline_arg $ read_timeout_arg $ self_test_arg))

let client_cmd =
  let action_arg =
    let doc =
      "One of $(b,compile), $(b,ping), $(b,stats), $(b,strategies), \
       $(b,shutdown)."
    in
    Arg.(value & pos 0 string "compile" & info [] ~docv:"ACTION" ~doc)
  in
  let client_app_arg =
    let doc = "Benchmark application to compile (see $(b,fhec list))." in
    Arg.(value & opt string "SF" & info [ "app"; "a" ] ~docv:"NAME" ~doc)
  in
  let tenant_arg =
    let doc = "Cache namespace on the server; tenants never share entries." in
    Arg.(value & opt string "" & info [ "tenant" ] ~docv:"NAME" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request compile budget in ms (0 = server default)." in
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let attempts_arg =
    let doc = "Retry budget: attempts before giving up on shed/transport \
               failures (exponential backoff with jitter in between)." in
    Arg.(value & opt int 5 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let with_conn socket f =
    Result.bind (Cli.connect ~socket ()) (fun c ->
        let r = f c in
        Cli.close c;
        r)
  in
  let run () socket action app strategy compiler wbits rbits iterations tenant
      deadline_ms attempts fallback seed =
    let compiler = Option.value strategy ~default:compiler in
    handle
      (match action with
      | "ping" ->
          Result.map
            (fun () -> print_endline "pong")
            (with_conn socket Cli.ping)
      | "stats" ->
          Result.map print_endline (with_conn socket Cli.stats)
      | "shutdown" ->
          Result.map
            (fun () -> print_endline "server stopping")
            (with_conn socket Cli.shutdown_server)
      | "compile" -> (
          Result.bind
            (build_request app compiler ~tenant ~rbits ~wbits ~iterations
               ~fallback ~deadline_ms)
          @@ fun req ->
          Result.bind (Cli.compile_retry ~attempts ~seed ~socket req)
          @@ fun (reply, log) ->
          if log.Cli.attempts > 1 then
            Printf.printf "(%d attempts: %d shed, %d transport)\n"
              log.Cli.attempts log.Cli.sheds log.Cli.transport_errors;
          match reply with
          | Proto.Compiled r | Proto.Degraded r ->
              Result.bind (find_app app) @@ fun app ->
              List.iter print_endline r.Proto.warnings;
              if Proto.reply_name reply = "degraded" then
                Printf.printf "degraded: engine %s at waterline %d\n"
                  r.Proto.engine r.Proto.wbits_used;
              Printf.printf "served by      : %s (waterline %d)\n"
                r.Proto.engine r.Proto.wbits_used;
              report app r.Proto.managed req.Proto.xmax_bits;
              Ok ()
          | Proto.Shed { reason; _ } -> Error ("shed: " ^ reason)
          | Proto.Timed_out msg -> Error msg
          | Proto.Failed msgs ->
              Error ("compilation failed:\n" ^ String.concat "\n" msgs)
          | Proto.Bad_request msg -> Error ("bad request: " ^ msg)
          | Proto.Pong | Proto.Stats_reply _ | Proto.Strategies_reply _ ->
              Error "unexpected reply type")
      | "strategies" ->
          Result.map
            (fun infos ->
              List.iter
                (fun (i : Proto.strategy_info) ->
                  let caps =
                    let flags =
                      List.filter_map
                        (fun (b, n) -> if b then Some n else None)
                        [
                          (i.Proto.s_redistributes, "redistributes");
                          (i.Proto.s_hoists, "hoists");
                          (i.Proto.s_explores, "explores");
                          (i.Proto.s_fallback, "fallback");
                        ]
                    in
                    if flags = [] then "-" else String.concat "," flags
                  in
                  let aliases =
                    if i.Proto.s_aliases = [] then ""
                    else
                      Printf.sprintf "  (aliases: %s)"
                        (String.concat ", " i.Proto.s_aliases)
                  in
                  Printf.printf "%-12s  %-32s%s\n" i.Proto.s_name caps aliases)
                infos)
            (with_conn socket Cli.list_strategies)
      | other ->
          Error
            (Printf.sprintf
               "unknown action %S (try compile, ping, stats, strategies, \
                shutdown)" other))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running compile daemon: submit compiles (with retry, \
          backoff, and jitter), ping it, read its counters, or shut it \
          down")
    Term.(
      ret
        (const run $ cache_term $ socket_arg $ action_arg $ client_app_arg
       $ strategy_arg $ compiler_arg $ waterline_arg $ rbits_arg
       $ iterations_arg $ tenant_arg $ deadline_arg $ attempts_arg
       $ fallback_arg $ seed_arg))

(* The group-level default term: `fhec --list-strategies` prints the
   registry (one row per strategy: canonical name, capability flags,
   aliases) plus the portfolio pseudo-mode; `fhec` alone shows help. *)
(* ------------------------------------------------------------------ *)
(* fhec tensor: the tensor frontend's layout search over the catalog *)

module Tn = Fhe_apps.Tensors
module TG = Fhe_tensor.Graph
module TL = Fhe_tensor.Layout
module TLow = Fhe_tensor.Lower

let tensor_cmd =
  let list_layouts_arg =
    let doc = "List the candidate packing layouts and exit." in
    Arg.(value & flag & info [ "list-layouts" ] ~doc)
  in
  let tensor_app_arg =
    let doc = "Tensor-frontend application (MLP, MLP-W, MLP-B, Lenet-5, \
               Lenet-C)." in
    Arg.(
      value & opt (some string) None & info [ "app"; "a" ] ~docv:"NAME" ~doc)
  in
  let layout_arg =
    let doc =
      "Lower under $(docv) only instead of searching every supported \
       layout (see $(b,--list-layouts))."
    in
    Arg.(
      value & opt (some string) None & info [ "layout"; "l" ] ~docv:"NAME" ~doc)
  in
  let small_arg =
    let doc =
      "Search over the exec-scale graph (same structure, shrunk data) \
       at the exec geometry (rbits 28, waterline 22), against the \
       exec-scale pin."
    in
    Arg.(value & flag & info [ "small" ] ~doc)
  in
  let row plan prog est chosen =
    Printf.printf "%c %-12s %7d ops  depth %2d  est %.6e\n"
      (if chosen then '*' else ' ')
      (TL.name plan) (Program.n_ops prog)
      (Analysis.max_mult_depth prog) est
  in
  let run () list_layouts app layout small jobs =
    if list_layouts then begin
      List.iter
        (fun l -> Printf.printf "%-12s %s\n" (TL.name l) (TL.description l))
        TL.all;
      `Ok ()
    end
    else
      match app with
      | None ->
          `Error (true, "--app NAME is required (or use --list-layouts)")
      | Some name ->
          handle
            (match Tn.find name with
            | exception Not_found ->
                Error
                  (Printf.sprintf "unknown tensor app %S; try: %s" name
                     (String.concat ", "
                        (List.map (fun e -> e.Tn.name) Tn.all)))
            | e -> (
                (* each scale is estimated at the geometry it compiles
                   under and reports that scale's pin *)
                let g, pin, rbits, wbits =
                  if small then
                    ( e.Tn.exec_graph (), e.Tn.exec_plan,
                      Some Reg.exec_rbits, Some Reg.exec_wbits )
                  else (e.Tn.graph (), e.Tn.plan, None, None)
                in
                Printf.printf "%s: %s (%d slots, %d nodes, batch %d)\n"
                  e.Tn.name e.Tn.description (TG.n_slots g) (TG.n_nodes g)
                  (TG.batch g);
                match layout with
                | Some lname -> (
                    match TL.of_name lname with
                    | None ->
                        Error (Printf.sprintf "unknown layout %S" lname)
                    | Some plan when not (TLow.supports plan g) ->
                        Error
                          (Printf.sprintf
                             "layout %s cannot pack this graph (see \
                              --list-layouts)"
                             (TL.name plan))
                    | Some plan ->
                        let prog = protecting (fun () -> Ok (TLow.lower ~plan g)) in
                        Result.map
                          (fun prog ->
                            row plan prog (TLow.cost ?rbits ?wbits prog) true)
                          prog)
                | None ->
                    let cands, best =
                      with_pool jobs (fun pool ->
                          TLow.search ?pool ?rbits ?wbits g)
                    in
                    List.iter
                      (fun (c : TLow.candidate) ->
                        row c.TLow.plan c.TLow.prog c.TLow.est
                          (c.TLow.plan = best.TLow.plan))
                      cands;
                    Printf.printf "chosen %s (pinned plan %s)\n"
                      (TL.name best.TLow.plan) (TL.name pin);
                    Ok ()))
  in
  Cmd.v
    (Cmd.info "tensor"
       ~doc:
         "Search slot packings for a tensor-frontend application and \
          report the per-layout lowering costs")
    Term.(
      ret
        (const run $ cache_term $ list_layouts_arg $ tensor_app_arg
       $ layout_arg $ small_arg $ jobs_arg))

let list_strategies_term =
  let flag =
    let doc =
      "List the registered scale-management strategies with their \
       capability flags and aliases, then exit."
    in
    Arg.(value & flag & info [ "list-strategies" ] ~doc)
  in
  let run list =
    if not list then `Help (`Pager, None)
    else begin
      List.iter
        (fun s ->
          let aliases =
            match St.aliases s with
            | [] -> ""
            | l -> Printf.sprintf "  (aliases: %s)" (String.concat ", " l)
          in
          Printf.printf "%-12s  %-32s%s\n" (St.name s)
            (St.caps_string (St.caps s))
            aliases)
        (SReg.all ());
      Printf.printf "%-12s  %s\n" Fhe_strategy.Portfolio.mode_name
        "race every strategy, keep the best est-latency plan";
      `Ok ()
    end
  in
  Term.(ret (const run $ flag))

let () =
  let info =
    Cmd.info "fhec" ~version:"1.0.0"
      ~doc:"Performance-aware scale management for RNS-CKKS programs"
  in
  exit
    (Cmd.eval
       (Cmd.group info ~default:list_strategies_term
          [ list_cmd; compile_cmd; compile_file_cmd; run_cmd; compare_cmd;
            exec_cmd; fuzz_cmd; check_cmd; serve_cmd; client_cmd;
            tensor_cmd ]))
