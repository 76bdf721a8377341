open Fhe_ir
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy

type scale = Paper | Exec

type prepared = {
  prog : Program.t;
  inputs : (string * float array) list;
  xmax_bits : int;
}

let find_app name =
  match Reg.find name with
  | a -> Ok a
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown app %S; try: %s" name
           (String.concat ", "
              (List.map (fun a -> a.Reg.name) (Reg.all @ Reg.tensor))))

let of_program prog ~inputs =
  { prog; inputs; xmax_bits = Fhe_sim.Interp.max_magnitude_bits prog ~inputs }

let prepare ?(seed = 42) scale (a : Reg.app) =
  match scale with
  | Paper -> of_program (a.Reg.build ()) ~inputs:(a.Reg.inputs ~seed)
  | Exec -> of_program (a.Reg.exec_build ()) ~inputs:(a.Reg.exec_inputs ~seed)

let config ?iterations ~rbits ~wbits pr =
  St.config ~xmax_bits:pr.xmax_bits ?iterations ~rbits ~wbits ()

let exec_config ?iterations pr =
  config ?iterations ~rbits:Reg.exec_rbits ~wbits:Reg.exec_wbits pr

let strategy name =
  match Fhe_strategy.Registry.of_name name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown compiler %S" (String.lowercase_ascii name))

let validated m =
  match Validator.check m with
  | Ok () -> Ok m
  | Error es ->
      Error
        (Format.asprintf "illegal managed program:@\n%a"
           (Format.pp_print_list ~pp_sep:Format.pp_print_newline
              Validator.pp_error)
           es)

let compile s cfg p =
  let m, ms = Fhe_util.Timer.time (fun () -> Fhe_strategy.Registry.compile s cfg p) in
  Result.map (fun m -> (m, ms)) (validated m)

let compile_exn ?iterations name pr =
  let s = Fhe_strategy.Registry.get_exn name in
  match compile s (exec_config ?iterations pr) pr.prog with
  | Ok (m, _) -> m
  | Error e -> failwith e

type run = {
  outputs : float array array;
  stats : Ckks.Backend.stats;
  errors : float array;
}

let run ?pool ?sched ?mem_budget ?refs pr m =
  let outputs, stats =
    Ckks.Backend.run_timed ?pool ?sched ?mem_budget m
      ~inputs:pr.inputs
  in
  let refs =
    match refs with
    | Some r -> r
    | None -> Fhe_sim.Interp.run_reference pr.prog ~inputs:pr.inputs
  in
  { outputs; stats; errors = Fhe_sim.Oracle.output_errors refs outputs }

let max_error r = Array.fold_left Float.max 0.0 r.errors

let with_pool jobs f =
  let width = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  if width = 1 then f None
  else Fhe_par.Pool.with_pool ~domains:width (fun pool -> f (Some pool))
