open Fhe_ir
module Kernels = Fhe_tensor.Kernels

(* Homomorphic gradient descent.  [feats] are ciphertext feature
   vectors; weights/intercept start as the given public constants. *)
let gd_train b ~feats ~y ~epochs ~lr ~n =
  let rate = Builder.const b lr in
  let step acc grad = Builder.sub b acc (Builder.mul b grad rate) in
  let rec epoch k ws w0 =
    if k = 0 then (ws, w0)
    else begin
      let terms = List.map2 (fun x w -> Builder.mul b x w) feats ws in
      let pred = Builder.add b (Builder.add_many b terms) w0 in
      let err = Builder.sub b pred y in
      let gws =
        List.map (fun x -> Kernels.mean_slots b (Builder.mul b err x) ~n) feats
      in
      let g0 = Kernels.mean_slots b err ~n in
      epoch (k - 1) (List.map2 step ws gws) (step w0 g0)
    end
  in
  let nf = List.length feats in
  let init = List.init nf (fun i -> Builder.const b (0.1 +. (0.05 *. float_of_int i))) in
  let ws, w0 = epoch epochs init (Builder.const b 0.05) in
  ws @ [ w0 ]

let linear ?(n_slots = 16384) ?(epochs = 2) () =
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x0" in
  let y = Builder.input b "y" in
  let outs = gd_train b ~feats:[ x ] ~y ~epochs ~lr:0.1 ~n:n_slots in
  Builder.finish b ~outputs:outs

let multivariate ?(n_slots = 16384) ?(epochs = 2) ?(features = 8) () =
  let b = Builder.create ~n_slots () in
  let feats =
    List.init features (fun i -> Builder.input b (Printf.sprintf "x%d" i))
  in
  let y = Builder.input b "y" in
  let outs = gd_train b ~feats ~y ~epochs ~lr:0.1 ~n:n_slots in
  Builder.finish b ~outputs:outs

let polynomial ?(n_slots = 16384) ?(epochs = 2) ?(degree = 3) () =
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x0" in
  let y = Builder.input b "y" in
  let rec powers acc last k =
    if k = 0 then List.rev acc
    else begin
      let nxt = Builder.mul b last x in
      powers (nxt :: acc) nxt (k - 1)
    end
  in
  let feats = powers [ x ] x (degree - 1) in
  let outs = gd_train b ~feats ~y ~epochs ~lr:0.05 ~n:n_slots in
  Builder.finish b ~outputs:outs

let named_features ~seed ~n ~features ~coeffs =
  let xs, y = Data.linear_samples ~seed ~n ~coeffs ~noise:0.01 in
  List.init features (fun i -> (Printf.sprintf "x%d" i, xs.(i))) @ [ ("y", y) ]

let inputs_linear ~seed ?(n = 16384) () =
  named_features ~seed ~n ~features:1 ~coeffs:[| 0.7; -0.2 |]

let inputs_multivariate ~seed ?(n = 16384) ?(features = 8) () =
  let g = Fhe_util.Prng.create (seed + 1) in
  let coeffs =
    Array.init (features + 1) (fun _ -> Fhe_util.Prng.uniform g ~lo:(-0.8) ~hi:0.8)
  in
  named_features ~seed ~n ~features ~coeffs

let inputs_polynomial ~seed ?(n = 16384) () =
  (* targets follow a cubic in x0; the circuit derives the powers *)
  let x = Data.signal ~seed ~lo:(-1.0) ~hi:1.0 n in
  let y =
    Array.map (fun v -> (0.4 *. v) -. (0.3 *. v *. v) +. (0.2 *. v *. v *. v) +. 0.1) x
  in
  [ ("x0", x); ("y", y) ]
