open Fhe_ir
module Kernels = Fhe_tensor.Kernels

let width = 64

let box3 = Array.make_matrix 3 3 1.0

let build ?(n_slots = 16384) ?(width = width) () =
  let b = Builder.create ~n_slots () in
  let img = Builder.input b "img" in
  let conv w = Kernels.conv2d b img ~width ~height:width ~weights:w in
  let ix = conv Sobel.sobel_x in
  let iy = conv Sobel.sobel_y in
  let ixx = Builder.square b ix in
  let iyy = Builder.square b iy in
  let ixy = Builder.mul b ix iy in
  let sum v = Kernels.conv2d b v ~width ~height:width ~weights:box3 in
  let sxx = sum ixx and syy = sum iyy and sxy = sum ixy in
  let det = Builder.sub b (Builder.mul b sxx syy) (Builder.square b sxy) in
  let trace = Builder.add b sxx syy in
  let k = Builder.const b 0.04 in
  let resp = Builder.sub b det (Builder.mul b (Builder.square b trace) k) in
  Builder.finish b ~outputs:[ resp ]

let inputs ?(width = width) ~seed () =
  [ ("img", Data.image ~seed (width * width)) ]
