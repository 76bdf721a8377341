open Fhe_ir
module Oracle = Fhe_sim.Oracle

type failure = { relation : string; detail : string }

let pp_failure ppf f =
  Format.fprintf ppf "metamorphic %s: %s" f.relation f.detail

let relations =
  [ "identity"; "constfold"; "cse"; "dce"; "optimize"; "optimize-then-compile";
    "managed-cse"; "managed-dce"; "managed-cse-dce" ]

(* exact reference comparison: the oracle with a zero noise bound *)
let same_reference p q ~inputs =
  let a = Fhe_sim.Interp.run_reference p ~inputs in
  let b = Fhe_sim.Interp.run_reference q ~inputs in
  if Array.length a <> Array.length b then Some "output count changed"
  else
    match
      (Oracle.judge ~refs:a
         (Array.map (fun data -> { Fhe_sim.Interp.data; err = 0.0 }) b))
        .Oracle.mismatches
    with
    | [] -> None
    | x :: _ ->
        Some
          (Printf.sprintf "output %d slot %d: %g <> %g" x.Oracle.output
             x.slot x.expected x.got)

let check ?(rbits = 60) ?(wbits = 25) ?(xmax_bits = 0) p ~inputs =
  let failures = ref [] in
  let fail relation detail = failures := { relation; detail } :: !failures in
  let guarded relation f =
    try f () with e -> fail relation ("exception: " ^ Printexc.to_string e)
  in
  (* 1. source-level rewrites preserve the reference semantics *)
  let arith relation (pass : Program.t -> Rewrite.result) =
    guarded relation (fun () ->
        let r = pass p in
        match same_reference p r.Rewrite.prog ~inputs with
        | None -> ()
        | Some d -> fail relation d)
  in
  arith "identity" Rewrite.identity;
  arith "constfold" Constfold.run;
  arith "cse" (Cse.run ?key:None);
  arith "dce" Dce.run;
  let optimize q =
    let q = (Constfold.run q).Rewrite.prog in
    let q = (Cse.run q).Rewrite.prog in
    (Dce.run q).Rewrite.prog
  in
  guarded "optimize" (fun () ->
      match same_reference p (optimize p) ~inputs with
      | None -> ()
      | Some d -> fail "optimize" d);
  (* 2. the compiled forms: well-typed under both judgments and
     oracle-equivalent to the *original* source *)
  let well_typed relation (m : Managed.t) =
    (match Validator.check m with
    | Ok () -> ()
    | Error es ->
        fail relation
          (Format.asprintf "validator: %a" Validator.pp_error (List.hd es)));
    (match Invariants.check m with
    | [] -> ()
    | v :: _ ->
        fail relation (Format.asprintf "%a" Invariants.pp_violation v));
    let o = Oracle.check p m ~inputs in
    if not (Oracle.ok o) then
      fail relation
        (Format.asprintf "%a" Oracle.pp_mismatch
           (List.hd o.Oracle.mismatches))
  in
  let reserve = Fhe_strategy.Registry.get_exn "reserve-full" in
  let cfg = Fhe_strategy.Strategy.config ~xmax_bits ~rbits ~wbits () in
  guarded "optimize-then-compile" (fun () ->
      well_typed "optimize-then-compile"
        (Fhe_strategy.Registry.compile reserve cfg (optimize p)));
  guarded "managed-rewrites" (fun () ->
      let m = Fhe_strategy.Registry.compile reserve cfg p in
      well_typed "managed-cse" (Managed.cse m);
      well_typed "managed-dce" (Managed.dce m);
      well_typed "managed-cse-dce" (Managed.dce (Managed.cse m)));
  List.rev !failures
