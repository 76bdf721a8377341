type app = {
  name : string;
  description : string;
  build : unit -> Fhe_ir.Program.t;
  inputs : seed:int -> (string * float array) list;
  exec_build : unit -> Fhe_ir.Program.t;
  exec_inputs : seed:int -> (string * float array) list;
  exec_tol : float;
}

(* The exec tier's geometry: 28-bit chain primes (the CKKS backend's
   ceiling) and a waterline that leaves headroom under them. *)
let exec_rbits = 28
let exec_wbits = 22

(* Exec-scale geometry: the compile-tier programs (16384 slots, 64×64
   images, LeNet at full width) are what the paper benchmarks, but a
   real encrypted run of those takes minutes per app.  The exec
   variants shrink the data — never the structure — so the real-runtime
   tier stays in CI budget: 16×16 images for the filters, 256 samples
   for the regressions, the full 64-dim MLP in 128 slots, and the
   miniature LeNet.  [exec_tol] is the pinned max|err| bound for a
   28-bit-prime, waterline-22 compile (measured max error with roughly
   8× headroom for platform float jitter). *)
let all =
  [ { name = "SF";
      description = "Sobel filter, 64x64 image";
      build = (fun () -> Sobel.build ());
      inputs = (fun ~seed -> Sobel.inputs ~seed ());
      exec_build = (fun () -> Sobel.build ~n_slots:256 ~width:16 ());
      exec_inputs = (fun ~seed -> Sobel.inputs ~width:16 ~seed ());
      exec_tol = 0.15 };
    { name = "HCD";
      description = "Harris corner detection, 64x64 image";
      build = (fun () -> Harris.build ());
      inputs = (fun ~seed -> Harris.inputs ~seed ());
      exec_build = (fun () -> Harris.build ~n_slots:256 ~width:16 ());
      exec_inputs = (fun ~seed -> Harris.inputs ~width:16 ~seed ());
      exec_tol = 4.0 };
    { name = "LR";
      description = "linear regression, 2 GD epochs, 16384 samples";
      build = (fun () -> Regression.linear ());
      inputs = (fun ~seed -> Regression.inputs_linear ~seed ());
      exec_build = (fun () -> Regression.linear ~n_slots:256 ());
      exec_inputs = (fun ~seed -> Regression.inputs_linear ~seed ~n:256 ());
      exec_tol = 1.5e-3 };
    { name = "MR";
      description = "multivariate regression (8 features), 2 GD epochs";
      build = (fun () -> Regression.multivariate ());
      inputs = (fun ~seed -> Regression.inputs_multivariate ~seed ());
      exec_build = (fun () -> Regression.multivariate ~n_slots:256 ());
      exec_inputs =
        (fun ~seed -> Regression.inputs_multivariate ~seed ~n:256 ());
      exec_tol = 2e-4 };
    { name = "PR";
      description = "polynomial regression (degree 3), 2 GD epochs";
      build = (fun () -> Regression.polynomial ());
      inputs = (fun ~seed -> Regression.inputs_polynomial ~seed ());
      exec_build = (fun () -> Regression.polynomial ~n_slots:256 ());
      exec_inputs = (fun ~seed -> Regression.inputs_polynomial ~seed ~n:256 ());
      exec_tol = 1.2e-3 };
    { name = "MLP";
      description = "64-64-16-10 perceptron, square activations";
      build = (fun () -> Mlp.build ());
      inputs = (fun ~seed -> Mlp.inputs ~seed);
      exec_build = (fun () -> Mlp.build ~n_slots:128 ());
      exec_inputs = (fun ~seed -> Mlp.inputs ~seed);
      exec_tol = 0.7 };
    { name = "Lenet-5";
      description = "LeNet-5 inference, MNIST shapes";
      build = (fun () -> Lenet.build Lenet.Mnist);
      inputs = (fun ~seed -> Lenet.inputs ~seed Lenet.Mnist);
      exec_build = (fun () -> Lenet.build_small Lenet.Mnist);
      exec_inputs = (fun ~seed -> Lenet.inputs_small ~seed Lenet.Mnist);
      exec_tol = 2e-4 };
    { name = "Lenet-C";
      description = "LeNet-5 inference, CIFAR-10 shapes";
      build = (fun () -> Lenet.build Lenet.Cifar);
      inputs = (fun ~seed -> Lenet.inputs ~seed Lenet.Cifar);
      exec_build = (fun () -> Lenet.build_small Lenet.Cifar);
      exec_inputs = (fun ~seed -> Lenet.inputs_small ~seed Lenet.Cifar);
      exec_tol = 2e-4 }
  ]

(* compile-tier programs cheap enough for exhaustive differential
   tiers: everything but the two full-width LeNets *)
let small =
  List.filter
    (fun a -> not (String.starts_with ~prefix:"Lenet" a.name))
    all

(* Apps the tensor frontend adds beyond the paper's eight.  Kept out of
   [all] so the §8 tables and the tiers pinned to the paper's app set
   are untouched; the @tensor and exec tiers walk this list
   explicitly. *)
let tensor =
  [ { name = "MLP-W";
      description = "128-128-32-10 perceptron, poly(x/2 + x\xc2\xb2/4) activations";
      build = (fun () -> Mlp.build_wide ());
      inputs = (fun ~seed -> Mlp.inputs_wide ~seed);
      exec_build = (fun () -> Mlp.build_wide ~n_slots:256 ());
      exec_inputs = (fun ~seed -> Mlp.inputs_wide ~seed);
      exec_tol = 1e-3 };
    { name = "MLP-B";
      description = "batched 64-64-16-10 perceptron, 256 users interleaved";
      build = (fun () -> Mlp.build_batched ());
      inputs = (fun ~seed -> Mlp.inputs_batched ~seed ());
      exec_build = (fun () -> Mlp.build_batched ~n_slots:512 ~batch:8 ());
      exec_inputs =
        (fun ~seed -> Mlp.inputs_batched ~n_slots:512 ~batch:8 ~seed ());
      exec_tol = 2.5 }
  ]

let find name =
  let lower = String.lowercase_ascii name in
  match
    List.find_opt
      (fun a -> String.lowercase_ascii a.name = lower)
      (all @ tensor)
  with
  | Some a -> a
  | None -> raise Not_found
