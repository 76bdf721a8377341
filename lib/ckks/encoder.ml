let encode (ctx : Context.t) ~level ~scale values =
  let nh = Context.slot_count ctx in
  if Array.length values > nh then invalid_arg "Encoder.encode: too many values";
  let vals =
    Array.init nh (fun i ->
        { Complex.re = (if i < Array.length values then values.(i) else 0.0);
          im = 0.0 })
  in
  Fftc.embed_inv ctx.Context.fft vals;
  (* coefficients as nearest-integer floats (exact for |x| < 2^53);
     of_float_coeffs reduces each one exactly, so every residue row sees
     the same integer *)
  let n = ctx.Context.n in
  let coeff = Array.make n 0.0 in
  for i = 0 to nh - 1 do
    coeff.(i) <- Float.round (vals.(i).Complex.re *. scale);
    coeff.(i + nh) <- Float.round (vals.(i).Complex.im *. scale)
  done;
  Poly.to_ntt_in_place ctx (Poly.of_float_coeffs ctx ~level coeff)

let decode (ctx : Context.t) ~scale p =
  let p = Poly.of_ntt ctx p in
  let level = p.Poly.level in
  let primes = Array.to_list (Array.sub ctx.Context.primes 0 level) in
  let q_total = Bigint.product primes in
  let half, _ = Bigint.divmod_small q_total 2 in
  (* Garner-free CRT: x = sum_i a_i * (Q/q_i) with a_i = x_i * (Q/q_i)^-1
     mod q_i, reduced mod Q, then centered. *)
  let q_hats =
    List.mapi
      (fun i q ->
        let hat, r = Bigint.divmod_small q_total q in
        assert (r = 0);
        (* (Q/q_i) mod q_i by folding limb-wise *)
        let _, hat_mod = Bigint.divmod_small hat q in
        let hat_inv = Modarith.inv hat_mod ~m:q in
        (i, q, hat, hat_inv))
      primes
  in
  let n = ctx.Context.n in
  let nh = Context.slot_count ctx in
  let vals = Array.make nh Complex.zero in
  let coeff = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let acc =
      List.fold_left
        (fun acc (i, q, hat, hat_inv) ->
          let a = Modarith.mul (Rvec.get p.Poly.data.(i) j) hat_inv ~m:q in
          Bigint.add acc (Bigint.mul_small hat a))
        Bigint.zero q_hats
    in
    (* reduce mod Q (acc < level * Q) then center *)
    let rec reduce acc =
      if Bigint.compare acc q_total >= 0 then reduce (Bigint.sub acc q_total)
      else acc
    in
    let acc = reduce acc in
    let centered =
      if Bigint.compare acc half > 0 then
        -.Bigint.to_float (Bigint.sub q_total acc)
      else Bigint.to_float acc
    in
    coeff.(j) <- centered /. scale
  done;
  for i = 0 to nh - 1 do
    vals.(i) <- { Complex.re = coeff.(i); im = coeff.(i + nh) }
  done;
  Fftc.embed ctx.Context.fft vals;
  Array.map (fun c -> c.Complex.re) vals
