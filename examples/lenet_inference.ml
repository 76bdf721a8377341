(* Deep-learning inference at the paper's largest scale: LeNet-5 on
   MNIST-shaped data (~10k homomorphic ops), showing the compile-time
   gap that motivates the reserve analysis — exploration-based scale
   management is thousands of times slower at this size.

     dune exec examples/lenet_inference.exe *)

open Fhe_ir
module Reg = Fhe_apps.Registry

let () =
  let app = Reg.find "Lenet-5" in
  print_endline "building LeNet-5 (conv-sq-pool-conv-sq-pool-fc-sq-fc-sq-fc)...";
  let program, build_ms = Fhe_util.Timer.time app.Reg.build in
  Printf.printf "%d arithmetic ops, multiplicative depth %d (built in %.0f ms)\n\n"
    (Program.n_arith program)
    (Analysis.max_mult_depth program)
    build_ms;

  let wbits = 30 in
  let module St = Fhe_strategy.Strategy in
  let (rsv, ph), rsv_ms =
    Fhe_util.Timer.time (fun () ->
        St.compile_with_phases
          (Fhe_strategy.Registry.get_exn "reserve-full")
          (St.config ~rbits:60 ~wbits ()) program)
  in
  Printf.printf
    "reserve analysis : %.1f ms total (ordering %.1f + allocation %.1f + \
     placement %.1f), compile %.1f ms\n"
    ph.St.total_ms ph.St.analyze_ms ph.St.annotate_ms ph.St.place_ms rsv_ms;

  let eva, eva_ms =
    Fhe_util.Timer.time (fun () ->
        Fhe_eva.Eva.compile ~rbits:60 ~wbits program)
  in
  Printf.printf "EVA              : %.1f ms\n" eva_ms;

  let iters = 40 in
  let hec, hec_ms =
    Fhe_util.Timer.time (fun () ->
        Fhe_hecate.Hecate.compile ~iterations:iters ~rbits:60 ~wbits program)
  in
  Printf.printf
    "Hecate           : %.0f ms for %d iterations -> %.0f s extrapolated to \
     the paper's 14763\n\n"
    hec_ms iters
    (hec_ms /. float_of_int iters *. 14763.0 /. 1000.0);

  List.iter
    (fun (name, m) ->
      Validator.check_exn m;
      Printf.printf "%-8s L=%2d  estimated inference latency %.1f s\n" name
        (Managed.input_level m)
        (Fhe_cost.Model.estimate m /. 1e6))
    [ ("EVA", eva); ("Hecate", hec.Fhe_hecate.Hecate.managed); ("reserve", rsv) ];

  (* run the inference on the simulator and show the logits *)
  let inputs = app.Reg.inputs ~seed:9 in
  let out = (Fhe_sim.Interp.run rsv ~inputs).(0) in
  Printf.printf "\nlogits: ";
  for c = 0 to 9 do
    Printf.printf "%.3f " out.Fhe_sim.Interp.data.(c)
  done;
  Printf.printf "\n(error bound 2^%.1f)\n"
    (Fhe_util.Bits.log2f out.Fhe_sim.Interp.err)
