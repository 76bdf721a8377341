(* Privacy-preserving model training: two epochs of homomorphic
   gradient descent for linear regression over 16384 encrypted samples
   (the LR benchmark), showing the learned weights and the error the
   scale-management plan induces at two waterlines.

     dune exec examples/regression_training.exe *)

module Reg = Fhe_apps.Registry

let () =
  let app = Reg.find "LR" in
  let program = app.Reg.build () in
  let inputs = app.Reg.inputs ~seed:123 in
  (* ground truth: y = 0.7*x - 0.2 + noise (Data.linear_samples) *)
  let reference = Fhe_sim.Interp.run_reference program ~inputs in
  Printf.printf "after 2 GD epochs (plaintext reference): w = %.4f, b = %.4f\n"
    reference.(0).(0) reference.(1).(0);
  Printf.printf
    "            (moving from w=0.1 towards the target w=0.7, b=-0.2)\n\n";

  let xmax_bits = Fhe_sim.Interp.max_magnitude_bits program ~inputs in
  List.iter
    (fun wbits ->
      Printf.printf "waterline 2^%d:\n" wbits;
      List.iter
        (fun (name, m) ->
          Fhe_ir.Validator.check_exn m;
          let outs = Fhe_sim.Interp.run m ~inputs in
          Printf.printf
            "  %-8s L=%d  est %.3fs  w=%.4f b=%.4f  (error bound 2^%.1f)\n"
            name
            (Fhe_ir.Managed.input_level m)
            (Fhe_cost.Model.estimate m /. 1e6)
            outs.(0).Fhe_sim.Interp.data.(0) outs.(1).Fhe_sim.Interp.data.(0)
            (Fhe_util.Bits.log2f outs.(0).Fhe_sim.Interp.err))
        (List.map
           (fun (label, s) ->
             ( label,
               Fhe_strategy.Registry.(compile (get_exn s))
                 (Fhe_strategy.Strategy.config ~xmax_bits ~rbits:60 ~wbits ())
                 program ))
           [ ("EVA", "eva"); ("reserve", "reserve-full") ]))
    [ 20; 40 ]
