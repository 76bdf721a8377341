(* The CKKS ring kernels as they were before the call-free rewrite of
   Poly, Evaluator, Sampler and the switch-key generator, kept verbatim as the bit-exact oracle the
   optimized kernels are tested against (test_exec.ml) — like
   Ntt.Reference.  A unit of its own, so only the binaries that test
   against it link it. *)

(* the call-free row kernels, which the switch-key generator below ran
   on before it was fused *)
module Row_kernels = Poly

module Poly = struct
  (* the current Poly with the old row kernels over it, so the old key
     switch below reads exactly as it did *)
  include Poly

  let of_coeff_array (ctx : Context.t) ~level ~special coeffs =
    assert (Array.length coeffs = ctx.Context.n);
    let t = zero ctx ~level ~special ~ntt:false in
    for r = 0 to rows t - 1 do
      let q = Context.prime ctx (prime_index ctx t r) in
      let row = t.data.(r) in
      for j = 0 to ctx.Context.n - 1 do
        Rvec.set row j (Fhe_util.Bits.pos_rem coeffs.(j) q)
      done
    done;
    t

  let of_float_coeffs (ctx : Context.t) ~level coeff =
    let n = ctx.Context.n in
    let out = zero ctx ~level ~special:false ~ntt:false in
    for r = 0 to level - 1 do
      let q = Context.prime ctx r in
      let qf = float_of_int q in
      let row = out.data.(r) in
      for j = 0 to n - 1 do
        let v = Float.rem coeff.(j) qf in
        let v = if v < 0.0 then v +. qf else v in
        Rvec.set row j (int_of_float v)
      done
    done;
    out

  let add (ctx : Context.t) a b =
    check_compat a b;
    let out = zero ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
    let n = ctx.Context.n in
    for r = 0 to rows a - 1 do
      let q = Context.prime ctx (prime_index ctx a r) in
      let ra = a.data.(r) and rb = b.data.(r) and ro = out.data.(r) in
      for j = 0 to n - 1 do
        let s = Rvec.get ra j + Rvec.get rb j in
        Rvec.set ro j (if s >= q then s - q else s)
      done
    done;
    out

  let sub (ctx : Context.t) a b =
    check_compat a b;
    let out = zero ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
    let n = ctx.Context.n in
    for r = 0 to rows a - 1 do
      let q = Context.prime ctx (prime_index ctx a r) in
      let ra = a.data.(r) and rb = b.data.(r) and ro = out.data.(r) in
      for j = 0 to n - 1 do
        let d = Rvec.get ra j - Rvec.get rb j in
        Rvec.set ro j (if d < 0 then d + q else d)
      done
    done;
    out

  let mul (ctx : Context.t) a b =
    if not (a.ntt && b.ntt) then invalid_arg "Poly.mul: operands must be NTT";
    check_compat a b;
    let out = zero ctx ~level:a.level ~special:a.special ~ntt:true in
    let n = ctx.Context.n in
    for r = 0 to rows a - 1 do
      let br = Ntt.barrett (Context.plan ctx (prime_index ctx a r)) in
      let ra = a.data.(r) and rb = b.data.(r) and ro = out.data.(r) in
      for j = 0 to n - 1 do
        Rvec.set ro j (Modarith.Barrett.mul br (Rvec.get ra j) (Rvec.get rb j))
      done
    done;
    out

  let neg (ctx : Context.t) a =
    let out = zero ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
    let n = ctx.Context.n in
    for r = 0 to rows a - 1 do
      let q = Context.prime ctx (prime_index ctx a r) in
      let ra = a.data.(r) and ro = out.data.(r) in
      for j = 0 to n - 1 do
        let x = Rvec.get ra j in
        Rvec.set ro j (if x = 0 then 0 else q - x)
      done
    done;
    out

  let mul_scalar_fn (ctx : Context.t) a scalar_of =
    let out = zero ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
    let n = ctx.Context.n in
    for r = 0 to rows a - 1 do
      let pi = prime_index ctx a r in
      let q = Context.prime ctx pi in
      let s = Fhe_util.Bits.pos_rem (scalar_of pi) q in
      let sp = Modarith.shoup s ~m:q in
      let ra = a.data.(r) and ro = out.data.(r) in
      for j = 0 to n - 1 do
        Rvec.set ro j (Modarith.mul_shoup (Rvec.get ra j) s sp ~m:q)
      done
    done;
    out

  let drop_last ?keep (ctx : Context.t) t =
    if not t.ntt then invalid_arg "Poly.drop_last: expected NTT form";
    let n = ctx.Context.n in
    let last_row = rows t - 1 in
    let last_pi = prime_index ctx t last_row in
    let q_last = Context.prime ctx last_pi in
    (* bring the dropped component to coefficient form *)
    let dropped = Rvec.copy t.data.(last_row) in
    Ntt.inverse (Context.plan ctx last_pi) dropped;
    let full_level = if t.special then t.level else t.level - 1 in
    let out_level =
      match keep with
      | None -> full_level
      | Some l ->
          if l < 1 || l > full_level then
            invalid_arg "Poly.drop_last: keep out of range";
          l
    in
    let out = zero ctx ~level:out_level ~special:false ~ntt:true in
    Context.par_rows ctx out_level (fun r ->
        let pi = prime_index ctx out r in
        let q = Context.prime ctx pi in
        let inv_last = Modarith.inv (q_last mod q) ~m:q in
        let il_sh = Modarith.shoup inv_last ~m:q in
        (* centered lift of the dropped component, reduced mod q, in NTT *)
        let lifted = Rvec.create n in
        for j = 0 to n - 1 do
          Rvec.set lifted j
            (Fhe_util.Bits.pos_rem (Modarith.center (Rvec.get dropped j) ~m:q_last) q)
        done;
        Ntt.forward (Context.plan ctx pi) lifted;
        let src = t.data.(r) and dst = out.data.(r) in
        for j = 0 to n - 1 do
          let d = Rvec.get src j - Rvec.get lifted j in
          let d = if d < 0 then d + q else d in
          Rvec.set dst j (Modarith.mul_shoup d inv_last il_sh ~m:q)
        done);
    out

  let automorphism (ctx : Context.t) t ~g =
    let n = ctx.Context.n in
    if g land 1 = 0 then invalid_arg "Poly.automorphism: g must be odd";
    let was_ntt = t.ntt in
    let t = of_ntt ctx t in
    let out = zero ctx ~level:t.level ~special:t.special ~ntt:false in
    for r = 0 to rows t - 1 do
      let q = Context.prime ctx (prime_index ctx t r) in
      let src = t.data.(r) and dst = out.data.(r) in
      for j = 0 to n - 1 do
        let k = j * g mod (2 * n) in
        let x = Rvec.get src j in
        if k < n then Rvec.set dst k x
        else Rvec.set dst (k - n) (if x = 0 then 0 else q - x)
      done
    done;
    if was_ntt then to_ntt ctx out else out
end

module Evaluator = struct
  let key_switch (k : Keys.t) x (sk : Keys.switch_key) =
    let ctx = k.Keys.ctx in
    let n = ctx.Context.n in
    let level = x.Poly.level in
    let digits = Array.init level (fun j -> Rvec.copy x.Poly.data.(j)) in
    Context.par_rows ctx level (fun j ->
        Ntt.inverse (Context.plan ctx j) digits.(j));
    let acc_b = Poly.zero ctx ~level ~special:true ~ntt:true in
    let acc_a = Poly.zero ctx ~level ~special:true ~ntt:true in
    let nrows = level + 1 in
    Context.par_rows ctx nrows (fun r ->
        let pi = if r < level then r else ctx.Context.levels in
        let q = Context.prime ctx pi in
        let plan = Context.plan ctx pi in
        let br = Ntt.barrett plan in
        let rb = acc_b.Poly.data.(r) and ra = acc_a.Poly.data.(r) in
        let tmp = Rvec.create n in
        for j = 0 to level - 1 do
          let qj = Context.prime ctx j in
          let dj = digits.(j) in
          if qj = q then Rvec.blit dj tmp
          else begin
            let half = qj / 2 in
            for i = 0 to n - 1 do
              let c = Rvec.get dj i in
              let c = if c > half then c - qj else c in
              Rvec.set tmp i (Fhe_util.Bits.pos_rem c q)
            done
          end;
          Ntt.forward plan tmp;
          (* key rows: keys live in the full (levels, special) basis, so
             chain row r aligns with key row r and the special row with
             the key's last row *)
          let kb_j = sk.Keys.kb.(j) and ka_j = sk.Keys.ka.(j) in
          let key_row p = p.Poly.data.(if r < level then r else Poly.rows p - 1) in
          let kb = key_row kb_j and ka = key_row ka_j in
          for i = 0 to n - 1 do
            let d = Rvec.get tmp i in
            let b' = Rvec.get rb i + Modarith.Barrett.mul br d (Rvec.get kb i) in
            Rvec.set rb i (if b' >= q then b' - q else b');
            let a' = Rvec.get ra i + Modarith.Barrett.mul br d (Rvec.get ka i) in
            Rvec.set ra i (if a' >= q then a' - q else a')
          done
        done);
    (Poly.drop_last ctx acc_b, Poly.drop_last ctx acc_a)
end

(* the per-draw samplers: one Prng call per cell *)
module Sampler = struct
  let gaussian g ~n ?(sigma = 3.2) () =
    Array.init n (fun _ ->
        int_of_float (Float.round (sigma *. Fhe_util.Prng.gaussian g)))

  let uniform_ntt g (ctx : Context.t) ~level ~special =
    let p = Poly.zero ctx ~level ~special ~ntt:true in
    Array.iteri
      (fun r row ->
        let q =
          Context.prime ctx (if r < level then r else ctx.Context.levels)
        in
        for j = 0 to ctx.Context.n - 1 do
          Rvec.set row j (Fhe_util.Prng.int g q)
        done)
      p.Poly.data;
    p
end

module Keys = struct
  module Poly = Row_kernels

  (* Key for switching [target·(something)] onto s: digit j encrypts
     e_j + P·target on residue row j. *)
  let make_switch_key (ctx : Context.t) sampler ~s ~target =
    let levels = ctx.Context.levels in
    let n = ctx.Context.n in
    let kb = Array.make levels s and ka = Array.make levels s in
    for j = 0 to levels - 1 do
      let a = Sampler.uniform_ntt sampler ctx ~level:levels ~special:true in
      let e =
        Poly.to_ntt ctx
          (Poly.of_coeff_array ctx ~level:levels ~special:true
             (Sampler.gaussian sampler ~n ()))
      in
      let gadget =
        Poly.mul_scalar_fn ctx target (fun pi ->
            if pi = j then ctx.Context.special else 0)
      in
      let b =
        Poly.add ctx (Poly.add ctx (Poly.neg ctx (Poly.mul ctx a s)) e) gadget
      in
      kb.(j) <- b;
      ka.(j) <- a
    done;
    { Keys.kb; ka }
end
