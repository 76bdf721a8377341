(* Error-latency trade-off exploration (ELASM-style, the paper's cited
   follow-up): private logistic scoring with a polynomial sigmoid, where
   the scale-management objective mixes the Table-3 latency estimate
   with a static noise proxy.

   Pure-latency exploration happily downscales everything (fast, noisy);
   penalising the noise proxy buys precision back for a small latency
   cost — the knob an application with an accuracy SLO actually wants.

     dune exec examples/private_scoring.exe *)

open Fhe_ir

let () =
  (* score = sigmoid(w·x + b) over 4096 encrypted feature vectors of
     dim 8 packed per-feature; sigmoid ≈ 0.5 + 0.197 t − 0.004 t³ *)
  let n_slots = 4096 in
  let b = Builder.create ~n_slots () in
  let feats = List.init 8 (fun i -> Builder.input b (Printf.sprintf "x%d" i)) in
  let g = Fhe_util.Prng.create 99 in
  let terms =
    List.map
      (fun x ->
        Builder.mul b x
          (Builder.const b (Fhe_util.Prng.uniform g ~lo:(-0.5) ~hi:0.5)))
      feats
  in
  let t = Builder.add b (Builder.add_many b terms) (Builder.const b 0.05) in
  (* degree-7 minimax sigmoid approximation (Horner over odd powers) *)
  let t2 = Builder.square b t in
  let t3 = Builder.mul b t2 t in
  let t5 = Builder.mul b t3 t2 in
  let t7 = Builder.mul b t5 t2 in
  let term c x = Builder.mul b x (Builder.const b c) in
  let score =
    Builder.add b
      (Builder.add b
         (Builder.sub b (term 0.2159 t) (term 0.0082 t3))
         (Builder.sub b (term 0.00016 t5) (term 0.0000011 t7)))
      (Builder.const b 0.5)
  in
  (* aggregate: the encrypted mean score over the whole batch — a
     rotate-and-sum reduction whose heavy rotations tempt a latency-only
     explorer into aggressive (noisy) downscaling *)
  let mean = Fhe_tensor.Kernels.mean_slots b score ~n:n_slots in
  let p = Builder.finish b ~outputs:[ score; mean ] in
  Printf.printf "logistic scorer: %d ops, depth %d\n" (Program.n_arith p)
    (Analysis.max_mult_depth p);

  let rbits = 60 and wbits = 20 and iterations = 400 in
  let latency m = Fhe_cost.Model.estimate m in
  let noise m = Fhe_sim.Noise.static_log2_error m in
  let explore name objective =
    let r = Fhe_hecate.Hecate.compile ~objective ~iterations ~rbits ~wbits p in
    let m = r.Fhe_hecate.Hecate.managed in
    Validator.check_exn m;
    Printf.printf "%-22s latency %.3f s   static error 2^%.1f   (%d plans accepted)\n"
      name (latency m /. 1e6) (noise m) r.Fhe_hecate.Hecate.accepted;
    m
  in
  let fast = explore "latency-only" latency in
  (* ELASM-style: latency multiplied by an error penalty *)
  let balanced =
    explore "latency + error"
      (fun m -> latency m *. (2.0 ** (0.5 *. noise m)))
  in
  Printf.printf
    "error-aware plan is %.1f%% slower but %.1f bits more precise\n"
    ((latency balanced /. latency fast -. 1.0) *. 100.0)
    (noise fast -. noise balanced)
