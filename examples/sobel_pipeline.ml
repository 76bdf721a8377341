(* Encrypted image processing: the Sobel filter benchmark end to end on
   the fixed-point simulator, showing how the reserve compiler reduces
   operation levels (and therefore latency) relative to EVA.

     dune exec examples/sobel_pipeline.exe *)

open Fhe_ir
module Reg = Fhe_apps.Registry

let () =
  let app = Reg.find "SF" in
  let program = app.Reg.build () in
  let inputs = app.Reg.inputs ~seed:7 in
  let xmax_bits = Fhe_sim.Interp.max_magnitude_bits program ~inputs in
  Printf.printf "Sobel filter: %d ops, multiplicative depth %d, |values| < 2^%d\n"
    (Program.n_arith program)
    (Analysis.max_mult_depth program)
    xmax_bits;

  let wbits = 25 in
  let eva = Fhe_eva.Eva.compile ~xmax_bits ~rbits:60 ~wbits program in
  let rsv =
    Fhe_strategy.Registry.(
      compile (get_exn "reserve-full")
        (Fhe_strategy.Strategy.config ~xmax_bits ~rbits:60 ~wbits ())
        program)
  in
  Validator.check_exn eva;
  Validator.check_exn rsv;

  (* level histogram: where does each plan run its heavy ops? *)
  let histogram (m : Managed.t) =
    let h = Hashtbl.create 8 in
    Program.iteri
      (fun i k ->
        match k with
        | Op.Rotate _ | Op.Mul _ when Program.vtype m.Managed.prog i = Op.Cipher
          ->
            let l = m.Managed.level.(i) in
            Hashtbl.replace h l (1 + Option.value ~default:0 (Hashtbl.find_opt h l))
        | _ -> ())
      m.Managed.prog;
    List.sort compare (Hashtbl.fold (fun l c acc -> (l, c) :: acc) h [])
  in
  let show name m =
    Printf.printf "%-8s L=%d  est %.3fs  heavy ops by level: %s\n" name
      (Managed.input_level m)
      (Fhe_cost.Model.estimate m /. 1e6)
      (String.concat ", "
         (List.map (fun (l, c) -> Printf.sprintf "l%d:%d" l c) (histogram m)))
  in
  show "EVA" eva;
  show "reserve" rsv;

  (* run the reserve-managed program and report the edge-map quality *)
  let out = (Fhe_sim.Interp.run rsv ~inputs).(0) in
  let reference = (Fhe_sim.Interp.run_reference program ~inputs).(0) in
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. reference.(i))))
    out.Fhe_sim.Interp.data;
  Printf.printf
    "edge magnitudes computed for %d pixels; worst deviation %.2e, noise \
     bound 2^%.1f\n"
    (64 * 64) !worst
    (Fhe_util.Bits.log2f out.Fhe_sim.Interp.err)
