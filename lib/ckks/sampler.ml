type t = Fhe_util.Prng.t

let create ~seed = Fhe_util.Prng.create seed

let ternary g ~n = Array.init n (fun _ -> Fhe_util.Prng.int g 3 - 1)

let sigma = 3.2

let gaussian g ~n ?(sigma = sigma) () =
  let e = Array.make n 0 in
  Fhe_util.Prng.fill_gaussian g ~sigma e;
  e

let uniform_ntt g (ctx : Context.t) ~level ~special =
  let p = Poly.alloc ctx ~level ~special ~ntt:true in
  Array.iteri
    (fun r row ->
      Fhe_util.Prng.fill_int g row (Context.prime ctx (Poly.prime_index ctx p r)))
    p.Poly.data;
  p
