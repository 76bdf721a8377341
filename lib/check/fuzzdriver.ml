(* The fuzz harness behind `fhec fuzz`, as a library so the stress
   tests can run it sequentially and in parallel and compare the two.

   Each seed is independent: its program, its inputs, and its
   fault-injection sites all derive from the seed alone (the per-item
   stream-splitting scheme of Fhe_util.Prng), so the per-seed result
   is the same whichever worker domain runs it.  Aggregation folds the
   per-seed results in seed order, making the whole report
   byte-identical at every pool width. *)

open Fhe_ir

type seed_result = {
  outcome : [ `Ok | `Fallback | `Failed ] option;
      (* None when the seed crashed before the driver returned *)
  crash : string option;
  injected : bool array;
  detected : bool array;
  missed : bool array;
  nosite : bool array;
}

type stats = {
  seeds : int;
  size : int;
  wbits : int;
  ok : int;
  fellback : int;
  failed : int;
  crashed : int;
  classes : Fhe_sim.Faults.cls array;
  injected : int array;
  detected : int array;
  missed : int array;
  nosite : int array;
  crash_msgs : string list;
}

let classes = Array.of_list Fhe_sim.Faults.all

let one_seed ~size ~rbits ~wbits ~strict seed =
  let n_cls = Array.length classes in
  let r =
    {
      outcome = None;
      crash = None;
      injected = Array.make n_cls false;
      detected = Array.make n_cls false;
      missed = Array.make n_cls false;
      nosite = Array.make n_cls false;
    }
  in
  try
    let g = Fhe_sim.Progen.make ~size seed in
    let p = g.Fhe_sim.Progen.prog in
    let cfg = Fhe_strategy.Strategy.config ~rbits ~wbits () in
    let managed, outcome =
      match
        Fhe_strategy.Registry.compile_safe
          (Fhe_strategy.Registry.get_exn "reserve-full")
          cfg ~strict ~oracle:true ~oracle_inputs:g.Fhe_sim.Progen.inputs p
      with
      | Ok o ->
          ( Some o.Fhe_strategy.Registry.managed,
            if o.Fhe_strategy.Registry.fallbacks = [] then `Ok else `Fallback )
      | Error _ -> (None, `Failed)
    in
    let r = { r with outcome = Some outcome } in
    (* corrupt a known-legal plan; the validator must reject every
       corruption class.  When the driver produced nothing (already an
       [`Failed] outcome) and EVA can't compile the configuration
       either, there is no plan to corrupt — skip injection for this
       seed rather than calling it a crash. *)
    let victim =
      match managed with
      | Some m -> Some m
      | None -> (
          let eva = Fhe_strategy.Registry.get_exn "eva" in
          match Fhe_strategy.Registry.compile eva cfg p with
          | m -> Some m
          | exception _ -> None)
    in
    Option.iter
      (fun victim ->
        Array.iteri
          (fun ci cls ->
            match Fhe_sim.Faults.inject cls ~seed victim with
            | None -> r.nosite.(ci) <- true
            | Some bad -> (
                r.injected.(ci) <- true;
                match Validator.check bad with
                | Error _ -> r.detected.(ci) <- true
                | Ok () -> r.missed.(ci) <- true))
          classes)
      victim;
    r
  with e ->
    { r with crash = Some (Printf.sprintf "seed %d: %s" seed (Printexc.to_string e)) }

let run ?pool ?(size = 25) ?(rbits = 60) ?(wbits = 30) ?(strict = false)
    ~seeds () =
  if seeds <= 0 then invalid_arg "Fuzzdriver.run: seeds must be positive";
  let all_seeds = List.init seeds (fun s -> s) in
  let work chunk = List.map (one_seed ~size ~rbits ~wbits ~strict) chunk in
  let results =
    match pool with
    | None -> work all_seeds
    | Some pool ->
        (* chunk the seeds so tiny programs amortize the queue lock *)
        let chunks = 4 * Fhe_par.Pool.domains pool in
        List.concat
          (Fhe_par.Pool.map pool work
             (Fhe_par.Chunk.split ~chunks all_seeds))
  in
  let n_cls = Array.length classes in
  let ok = ref 0 and fellback = ref 0 and failed = ref 0 and crashed = ref 0 in
  let injected = Array.make n_cls 0 and detected = Array.make n_cls 0 in
  let missed = Array.make n_cls 0 and nosite = Array.make n_cls 0 in
  let crash_msgs = ref [] in
  List.iter
    (fun r ->
      (match r.outcome with
      | Some `Ok -> incr ok
      | Some `Fallback -> incr fellback
      | Some `Failed -> incr failed
      | None -> ());
      (match r.crash with
      | Some msg ->
          incr crashed;
          if List.length !crash_msgs < 5 then crash_msgs := msg :: !crash_msgs
      | None -> ());
      let bump counts flags =
        Array.iteri (fun i b -> if b then counts.(i) <- counts.(i) + 1) flags
      in
      bump injected r.injected;
      bump detected r.detected;
      bump missed r.missed;
      bump nosite r.nosite)
    results;
  {
    seeds; size; wbits;
    ok = !ok; fellback = !fellback; failed = !failed; crashed = !crashed;
    classes; injected; detected; missed; nosite;
    crash_msgs = List.rev !crash_msgs;
  }

let verdict s =
  if s.crashed > 0 then Error "fuzz: uncaught exceptions in the driver"
  else if Array.exists (fun c -> c > 0) s.missed then
    Error "fuzz: some injected faults escaped the validator"
  else Ok ()

let pp ppf s =
  Format.fprintf ppf "fuzz: %d random programs (size ~%d, waterline %d)@\n"
    s.seeds s.size s.wbits;
  Format.fprintf ppf "  compiled (requested config) : %d@\n" s.ok;
  Format.fprintf ppf "  compiled via fallback       : %d@\n" s.fellback;
  Format.fprintf ppf "  failed with diagnostics     : %d@\n" s.failed;
  Format.fprintf ppf "  crashed (uncaught)          : %d@\n" s.crashed;
  Format.fprintf ppf "fault injection:";
  Array.iteri
    (fun ci cls ->
      Format.fprintf ppf
        "@\n  %-18s injected %4d  detected %4d  missed %4d  no-site %4d"
        (Fhe_sim.Faults.name cls) s.injected.(ci) s.detected.(ci)
        s.missed.(ci) s.nosite.(ci))
    s.classes;
  List.iter (fun m -> Format.fprintf ppf "@\n%s" m) s.crash_msgs
