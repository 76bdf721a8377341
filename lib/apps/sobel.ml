open Fhe_ir
module Kernels = Fhe_tensor.Kernels

let image_width = 64

let sobel_x =
  [| [| -1.0; 0.0; 1.0 |]; [| -2.0; 0.0; 2.0 |]; [| -1.0; 0.0; 1.0 |] |]

let sobel_y =
  [| [| -1.0; -2.0; -1.0 |]; [| 0.0; 0.0; 0.0 |]; [| 1.0; 2.0; 1.0 |] |]

let build ?(n_slots = 16384) ?(width = image_width) () =
  let b = Builder.create ~n_slots () in
  let img = Builder.input b "img" in
  let gx = Kernels.conv2d b img ~width ~height:width ~weights:sobel_x in
  let gy = Kernels.conv2d b img ~width ~height:width ~weights:sobel_y in
  let out = Builder.add b (Builder.square b gx) (Builder.square b gy) in
  Builder.finish b ~outputs:[ out ]

let inputs ?(width = image_width) ~seed () =
  [ ("img", Data.image ~seed (width * width)) ]
