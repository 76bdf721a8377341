let pad n a =
  let len = Array.length a in
  if len > n then invalid_arg "Slots.pad: vector longer than slot count";
  let out = Array.make n 0.0 in
  Array.blit a 0 out 0 len;
  out

let rotl a k =
  let n = Array.length a in
  let k = Fhe_util.Bits.pos_rem k n in
  Array.init n (fun i -> a.((i + k) mod n))
