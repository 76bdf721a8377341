module T = Fhe_tensor

(* The tensor-frontend catalog: every registry app whose circuit is now
   *generated* from a {!Fhe_tensor.Graph} rather than hand-built, plus
   the wide/batched MLP variants the frontend adds.  [fhec tensor], the
   bench tensor section and the @tensor tier all drive layout search
   from these graphs.  Each app carries one packing pin per scale:
   [plan] is what the compile-tier [build] in {!Registry} uses,
   [exec_plan] what its [exec_build] uses.  Each exec pin is the search
   winner at the exec geometry ({!Registry.exec_rbits} /
   {!Registry.exec_wbits}) except MLP's (see [all]); the @tensor tier
   holds the exec pins to the search, and its digest pins hold the
   lowerings to their op streams. *)

type entry = {
  name : string;
  description : string;
  graph : unit -> T.Graph.t;  (** compile-tier graph (16384 slots) *)
  plan : T.Layout.plan;  (** the compile-scale packing pin *)
  data : seed:int -> (string * float array array) list;
      (** logical tensor data for {!T.Lower.pack_inputs} /
          {!T.Lower.reference} at compile-tier geometry *)
  exec_graph : unit -> T.Graph.t;  (** exec-scale graph (shrunk data) *)
  exec_plan : T.Layout.plan;  (** the exec-scale packing pin *)
  exec_data : seed:int -> (string * float array array) list;
}

let mlp_data ~seed =
  [ ("x", [| Data.signal ~seed ~lo:0.0 ~hi:1.0 Mlp.input_dim |]) ]

let mlp_wide_data ~seed =
  [ ("x", [| Data.signal ~seed ~lo:0.0 ~hi:1.0 Mlp.wide_dim |]) ]

(* MLP's exec pin is the one pin that is not its scale's search winner.
   At 128 slots the search picks bsgs, but bsgs has mult depth 9
   against diag's 6: reserve-full then compiles MLP at L = 9 instead of
   6 (+84 modulus bits), and the 2 MiB key budget of bench/e2e's
   mlp-keybudget regenerates every key at the deeper level. *)
let all =
  [ { name = "MLP";
      description = "64-64-16-10 perceptron, square activations";
      graph = (fun () -> Mlp.graph ());
      plan = Mlp.plan;
      data = (fun ~seed -> mlp_data ~seed);
      exec_graph = (fun () -> Mlp.graph ~n_slots:128 ());
      exec_plan = Mlp.plan;
      exec_data = (fun ~seed -> mlp_data ~seed) };
    { name = "MLP-W";
      description = "128-128-32-10 perceptron, poly(x/2 + x\xc2\xb2/4) activations";
      graph = (fun () -> Mlp.graph_wide ());
      plan = Mlp.plan_wide;
      data = (fun ~seed -> mlp_wide_data ~seed);
      exec_graph = (fun () -> Mlp.graph_wide ~n_slots:256 ());
      exec_plan = Mlp.plan_wide;
      exec_data = (fun ~seed -> mlp_wide_data ~seed) };
    { name = "MLP-B";
      description = "batched 64-64-16-10 perceptron, 256 users interleaved";
      graph = (fun () -> Mlp.graph_batched ());
      plan = Mlp.plan_batched;
      data = (fun ~seed -> Mlp.batched_data ~n_slots:16384 ~seed ());
      exec_graph = (fun () -> Mlp.graph_batched ~n_slots:512 ~batch:8 ());
      exec_plan = Mlp.plan_batched;
      exec_data =
        (fun ~seed -> Mlp.batched_data ~n_slots:512 ~batch:8 ~seed ()) };
    { name = "Lenet-5";
      description = "LeNet-5 inference, MNIST shapes";
      graph = (fun () -> Lenet.graph Lenet.Mnist);
      plan = Lenet.plan;
      data = (fun ~seed -> Lenet.data ~seed Lenet.Mnist);
      exec_graph = (fun () -> Lenet.graph_small Lenet.Mnist);
      exec_plan = Lenet.exec_plan;
      exec_data = (fun ~seed -> Lenet.data_small ~seed Lenet.Mnist) };
    { name = "Lenet-C";
      description = "LeNet-5 inference, CIFAR-10 shapes";
      graph = (fun () -> Lenet.graph Lenet.Cifar);
      plan = Lenet.plan;
      data = (fun ~seed -> Lenet.data ~seed Lenet.Cifar);
      exec_graph = (fun () -> Lenet.graph_small Lenet.Cifar);
      exec_plan = Lenet.exec_plan;
      exec_data = (fun ~seed -> Lenet.data_small ~seed Lenet.Cifar) }
  ]

let find name =
  let lower = String.lowercase_ascii name in
  match
    List.find_opt (fun e -> String.lowercase_ascii e.name = lower) all
  with
  | Some e -> e
  | None -> raise Not_found
