module Reg = Fhe_apps.Registry
module Oracle = Fhe_sim.Oracle

type kind = Semantic | Typing | Metamorphic_ | Crash

type failure = {
  subject : string;
  compiler : string;
  kind : kind;
  detail : string;
}

type summary = {
  programs : int;
  compilations : int;
  failures : failure list;
  coverage : int;
  corpus : int;
}

let ok s = s.failures = []

let kind_name = function
  | Semantic -> "semantic"
  | Typing -> "typing"
  | Metamorphic_ -> "metamorphic"
  | Crash -> "crash"

let entry_failures subject (e : Differential.entry) =
  let compiler = Differential.compiler_name e.Differential.compiler in
  let mk kind detail = { subject; compiler; kind; detail } in
  match e.Differential.crash with
  | Some msg -> [ mk Crash msg ]
  | None ->
      List.concat
        [ List.map
            (fun v -> mk Typing ("validator: " ^ v))
            e.Differential.validator_errors;
          List.map
            (fun v ->
              mk Typing (Format.asprintf "%a" Invariants.pp_violation v))
            e.Differential.lemma_violations;
          (match e.Differential.oracle with
          | Some o when not (Oracle.ok o) ->
              [ mk Semantic
                  (Format.asprintf "%a" Oracle.pp_mismatch
                     (List.hd o.Oracle.mismatches)) ]
          | Some _ -> []
          | None -> [ mk Semantic "oracle could not execute the program" ]) ]

let check_one ~rbits ~wbits ~xmax_bits ~hecate_iterations ~subject p
    ~inputs =
  let d =
    Differential.run ~rbits ~wbits ~xmax_bits ~hecate_iterations
      ~label:subject p ~inputs
  in
  let diff_failures =
    List.concat_map (entry_failures subject) d.Differential.entries
  in
  let meta_failures =
    List.map
      (fun (f : Metamorphic.failure) ->
        { subject; compiler = "-"; kind = Metamorphic_;
          detail = f.Metamorphic.relation ^ ": " ^ f.Metamorphic.detail })
      (Metamorphic.check ~rbits ~wbits ~xmax_bits p ~inputs)
  in
  (List.length d.Differential.entries, diff_failures @ meta_failures)

let run ?pool ?(rbits = 60) ?(wbits = 30) ?(hecate_iterations = 60)
    ?(apps = true) ?(gen = 0) ?(seed = 1) ?(progress = fun _ -> ()) () =
  (* Phase 1 (sequential): assemble the work list.  Coverage-guided
     generation is a bandit over the shared coverage map, so it stays
     sequential — candidate [i+1] depends on what [i] contributed.
     Each work item is (subject, thunk); the thunks are pure. *)
  let app_items =
    if not apps then []
    else
      List.map
        (fun (a : Reg.app) ->
          ( a.Reg.name,
            fun () ->
              let p = a.Reg.build () in
              let inputs = a.Reg.inputs ~seed:42 in
              let xmax_bits = Fhe_sim.Interp.max_magnitude_bits p ~inputs in
              check_one ~rbits ~wbits ~xmax_bits ~hecate_iterations
                ~subject:a.Reg.name p ~inputs ))
        Reg.all
  in
  let coverage = Coverage.create () in
  let corpus = ref 0 in
  let gen_items =
    if gen <= 0 then []
    else begin
      let candidates = Coverage.generate coverage ~seed ~budget:gen in
      corpus := List.length (Coverage.distill candidates);
      List.map
        (fun (c : Coverage.candidate) ->
          let subject =
            Printf.sprintf "gen-%d(%s)" c.Coverage.seed c.Coverage.profile
          in
          ( subject,
            fun () ->
              check_one ~rbits ~wbits ~xmax_bits:0 ~hecate_iterations
                ~subject c.Coverage.gen.Fhe_sim.Progen.prog
                ~inputs:c.Coverage.gen.Fhe_sim.Progen.inputs ))
        candidates
    end
  in
  let items = app_items @ gen_items in
  (* Phase 2 (parallel): run the checks.  Exceptions become Crash
     results inside the task, so one pathological program can't abort
     the sweep at any pool width. *)
  let check (subject, thunk) =
    match thunk () with
    | n, fs -> (subject, n, fs)
    | exception e ->
        ( subject, 0,
          [ { subject; compiler = "-"; kind = Crash;
              detail = Printexc.to_string e } ] )
  in
  let checked =
    match pool with
    | None -> List.map check items
    | Some pool -> Fhe_par.Pool.map pool check items
  in
  (* Phase 3 (sequential): fold the results in submission order, so
     progress lines and the failure list are byte-identical whatever
     the pool width. *)
  let programs = ref 0 and compilations = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (subject, n, fs) ->
      incr programs;
      compilations := !compilations + n;
      failures := List.rev_append fs !failures;
      progress
        (Printf.sprintf "%-24s %s" subject
           (if fs = [] then "ok"
            else Printf.sprintf "%d violation(s)" (List.length fs))))
    checked;
  {
    programs = !programs;
    compilations = !compilations;
    failures = List.rev !failures;
    coverage = Coverage.cardinal coverage;
    corpus = !corpus;
  }

let pp_failure ppf f =
  Format.fprintf ppf "%-11s %-24s %-12s %s"
    (kind_name f.kind) f.subject f.compiler f.detail

let pp ppf s =
  let count k =
    List.length (List.filter (fun f -> f.kind = k) s.failures)
  in
  if s.failures <> [] then begin
    Format.fprintf ppf "violations:@\n";
    List.iter (fun f -> Format.fprintf ppf "  %a@\n" pp_failure f) s.failures
  end;
  Format.fprintf ppf
    "conformance: %d program(s), %d compilation(s); %d semantic, %d typing, \
     %d metamorphic, %d crash violation(s)"
    s.programs s.compilations (count Semantic) (count Typing)
    (count Metamorphic_) (count Crash);
  if s.coverage > 0 then
    Format.fprintf ppf "@\ncoverage: %d feature(s), corpus of %d program(s)"
      s.coverage s.corpus
