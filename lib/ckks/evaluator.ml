type ct = {
  c0 : Poly.t;
  c1 : Poly.t;
  level : int;
  scale : float;
}

let scale_mismatch_tolerance = 1e-3

let encode_at (k : Keys.t) ~level ~scale values =
  Encoder.encode k.Keys.ctx ~level ~scale values

(* fresh samples, transformed in place *)
let fresh_ntt ctx ~level coeffs =
  Poly.to_ntt_in_place ctx
    (Poly.of_coeff_array ctx ~level ~special:false coeffs)

let encrypt_with (k : Keys.t) fresh ~level ~scale values =
  let ctx = k.Keys.ctx in
  let n = ctx.Context.n in
  let m = encode_at k ~level ~scale values in
  let u = fresh_ntt ctx ~level (Sampler.ternary fresh ~n) in
  let e0 = fresh_ntt ctx ~level (Sampler.gaussian fresh ~n ()) in
  let e1 = fresh_ntt ctx ~level (Sampler.gaussian fresh ~n ()) in
  (* the public key's first [level] rows, shared, not copied: the
     kernels below only read their operands *)
  let rows (p : Poly.t) =
    { p with Poly.level; data = Array.sub p.Poly.data 0 level }
  in
  let pb = rows k.Keys.pb and pa = rows k.Keys.pa in
  let pbu = Poly.mul ctx pb u and pau = Poly.mul ctx pa u in
  let pbu_e0 = Poly.add ctx pbu e0 in
  let ct =
    { c0 = Poly.add ctx pbu_e0 m;
      c1 = Poly.add ctx pau e1;
      level;
      scale }
  in
  List.iter (Poly.release ctx) [ m; u; e0; e1; pbu; pau; pbu_e0 ];
  ct

let encrypt (k : Keys.t) ~level ~scale values =
  encrypt_with k k.Keys.enc_sampler ~level ~scale values

(* Deterministic encryption for scheduled execution: the randomness
   stream depends only on (keygen seed, tag), not on how many
   encryptions happened before — so inputs can be encrypted in any
   order, or re-encrypted after being freed, with byte-identical
   results. *)
let encrypt_det (k : Keys.t) ~tag ~level ~scale values =
  encrypt_with k
    (Sampler.create ~seed:(Keys.derived_enc_seed k tag))
    ~level ~scale values

let encrypt_sym (k : Keys.t) ~level ~scale values =
  let ctx = k.Keys.ctx in
  let n = ctx.Context.n in
  let fresh = k.Keys.enc_sampler in
  let m = encode_at k ~level ~scale values in
  let a = Sampler.uniform_ntt fresh ctx ~level ~special:false in
  let e = fresh_ntt ctx ~level (Sampler.gaussian fresh ~n ()) in
  let s = Poly.restrict ctx k.Keys.s ~level ~special:false in
  { c0 = Poly.add ctx (Poly.add ctx (Poly.neg ctx (Poly.mul ctx a s)) e) m;
    c1 = a;
    level;
    scale }

let decrypt (k : Keys.t) ct =
  let ctx = k.Keys.ctx in
  let s = Poly.restrict ctx k.Keys.s ~level:ct.level ~special:false in
  let m = Poly.add ctx ct.c0 (Poly.mul ctx ct.c1 s) in
  Encoder.decode ctx ~scale:ct.scale m

let check_binop a b =
  if a.level <> b.level then invalid_arg "Evaluator: level mismatch";
  let rel = Float.abs (a.scale -. b.scale) /. Float.max a.scale b.scale in
  if rel > scale_mismatch_tolerance then
    invalid_arg
      (Printf.sprintf "Evaluator: scale mismatch beyond tolerance (%g vs %g)"
         a.scale b.scale)

let add (k : Keys.t) a b =
  check_binop a b;
  let ctx = k.Keys.ctx in
  { a with
    c0 = Poly.add ctx a.c0 b.c0;
    c1 = Poly.add ctx a.c1 b.c1;
    scale = Float.max a.scale b.scale }

let sub (k : Keys.t) a b =
  check_binop a b;
  let ctx = k.Keys.ctx in
  { a with
    c0 = Poly.sub ctx a.c0 b.c0;
    c1 = Poly.sub ctx a.c1 b.c1;
    scale = Float.max a.scale b.scale }

let neg (k : Keys.t) a =
  let ctx = k.Keys.ctx in
  { a with c0 = Poly.neg ctx a.c0; c1 = Poly.neg ctx a.c1 }

(* Splat plaintexts.  When every slot holds the same float c (a short
   array counts after the encoder's +0.0 padding), the encoder's inverse
   embedding is exact: its first butterfly stage writes 2c into the
   first half and exact zeros into the second, each later stage does the
   same within the first block, so slot 0 ends as c·nh and every other
   slot as ±0, and the final 1/nh is a power of two.  The encoding is
   therefore the constant polynomial m0 = round (c·scale), whose NTT is
   [m0 mod q_r] in every cell of row r — a per-row scalar, with no
   transform.  The residue comes from the encoder's own float-to-residue
   rule, so the bits are those of the encoder path.  NaN, infinities
   and a c·nh or c·scale that overflows stay on the encoder path. *)
let splat_constant (ctx : Context.t) ~scale values =
  let nh = Context.slot_count ctx in
  let len = Array.length values in
  let c = if len = nh then values.(0) else 0.0 in
  let bits = Int64.bits_of_float c in
  let rec uniform i =
    i >= len
    || (Int64.equal (Int64.bits_of_float values.(i)) bits && uniform (i + 1))
  in
  let m0 = Float.round (c *. scale) in
  if
    len <= nh && uniform 0
    && Float.is_finite (c *. float_of_int nh)
    && Float.is_finite m0
  then Some m0
  else None

let add_plain (k : Keys.t) a values =
  let ctx = k.Keys.ctx in
  match splat_constant ctx ~scale:a.scale values with
  | Some m0 ->
      { a with c0 = Poly.add_scalar_fn ctx a.c0 (Poly.residue_of_float ctx m0) }
  | None ->
      let m = encode_at k ~level:a.level ~scale:a.scale values in
      { a with c0 = Poly.add ctx a.c0 m }

let sub_plain (k : Keys.t) a values =
  let ctx = k.Keys.ctx in
  match splat_constant ctx ~scale:a.scale values with
  | Some m0 ->
      let neg pi = - Poly.residue_of_float ctx m0 pi in
      { a with c0 = Poly.add_scalar_fn ctx a.c0 neg }
  | None ->
      let m = encode_at k ~level:a.level ~scale:a.scale values in
      { a with c0 = Poly.sub ctx a.c0 m }

module A1 = Bigarray.Array1

(* Key switching: Σ_j [x]_{q_j} · ksk_j, then divide by the special
   prime, giving the (b, a) pair that adds [x·target] under the secret
   key.  Two kernels, both fanned across the pool when one is attached.

   [decompose] makes the lifted digits: digit j of [x] in coefficient
   form (one inverse NTT each), raised by its centered lift into every
   row r of the extended basis and forward-transformed there.  Row j of
   digit j is a copy of row j of [x], already in NTT form, so L of the
   L·(L+1) forward transforms are skipped.  The lift has |c| <= q_j/2
   < q_r for primes of equal width: one conditional add of q_r, no
   divide, unless the chain is wider than the target prime.

   [accumulate] multiply-accumulates the digits against both key
   polynomials, one output row per task, then mods the special prime
   down.  It reads digit cell [perm.{i}] for output cell i: the
   identity for relinearization, the Galois gather for a rotation.  The
   centered lift commutes with negation for odd primes and the
   NTT-domain automorphism is an exact gather, so accumulating the
   permuted digits of [c1] is bit for bit the key switch of
   [automorphism c1] — which lets one decomposition serve every
   rotation of a ciphertext (hoisting).

   The multiply-accumulate is reduced lazily.  Digit and key cells are
   canonical, so a product is at most (q-1)^2, and an accumulator cell
   holding a canonical residue takes [room = (max_int - (q-1)) /
   (q-1)^2] more products without overflow: 64 on a 28-bit chain row,
   16 on the 29-bit special row.  So the inner loop is one multiply and
   one add per cell and key polynomial, and the row folds back to
   [0, q) only every [room] digits and once at the end — with the float
   quotient of [Poly.of_float_coeffs], not a divide.  The folded value
   is the exact sum mod q, whatever the grouping, so the result is the
   one modular adds would give, at any pool width.  The inner loops call
   nothing (see the note in poly.ml). *)

type hoisted = Poly.t array

let decompose (ctx : Context.t) (x : Poly.t) : hoisted =
  let n = ctx.Context.n in
  let level = x.Poly.level in
  let coeffs = Poly.alloc ctx ~level ~special:false ~ntt:false in
  Array.iteri (fun j row -> Rvec.blit x.Poly.data.(j) row) coeffs.Poly.data;
  let digits =
    Array.init level (fun _ -> Poly.alloc ctx ~level ~special:true ~ntt:true)
  in
  if Rvec.checked then
    Poly.guard ctx "Evaluator.decompose" (x :: coeffs :: Array.to_list digits);
  Context.par_rows ctx level (fun j ->
      Ntt.inverse (Context.plan ctx j) coeffs.Poly.data.(j));
  Context.par_rows ctx (level + 1) (fun r ->
      let pi = if r < level then r else ctx.Context.levels in
      let plan = Context.plan ctx pi in
      let q = Context.prime ctx pi in
      for j = 0 to level - 1 do
        let dst = digits.(j).Poly.data.(r) in
        if j = r then Rvec.blit x.Poly.data.(j) dst
        else begin
          let qj = Context.prime ctx j in
          let half = qj / 2 in
          (* a chain wider than the target prime takes the divide *)
          let wide = half >= q in
          let src = coeffs.Poly.data.(j) in
          for i = 0 to n - 1 do
            let c = A1.unsafe_get src i in
            let c = c - (qj land ((half - c) asr 62)) in
            let c = if wide then c mod q else c in
            A1.unsafe_set dst i (c + (q land (c asr 62)))
          done;
          Ntt.forward plan dst
        end
      done);
  Poly.release ctx coeffs;
  digits

let accumulate (k : Keys.t) ?perm (digits : hoisted) (sk : Keys.switch_key) =
  let ctx = k.Keys.ctx in
  let n = ctx.Context.n in
  let level = Array.length digits in
  if Keys.key_level sk < level then
    invalid_arg "Evaluator.accumulate: switch key shallower than the digits";
  let acc_b = Poly.zero ctx ~level ~special:true ~ntt:true in
  let acc_a = Poly.zero ctx ~level ~special:true ~ntt:true in
  (* without a permutation [perm] is any row: it is never read *)
  let gather, (perm : Rvec.t) =
    match perm with
    | Some p -> (true, p)
    | None -> (false, acc_b.Poly.data.(0))
  in
  if Rvec.checked then
    Poly.guard ctx "Evaluator.accumulate"
      (acc_b :: acc_a
       :: (Array.to_list digits @ Array.to_list sk.Keys.kb
          @ Array.to_list sk.Keys.ka));
  Context.par_rows ctx (level + 1) (fun r ->
      let pi = if r < level then r else ctx.Context.levels in
      let q = Context.prime ctx pi in
      let two_q = 2 * q in
      let qinv = 1.0 /. float_of_int q in
      (* products of canonical residues are at most (q-1)^2, and a row
         holding a canonical residue takes [room] more before max_int *)
      let room = (max_int - (q - 1)) / ((q - 1) * (q - 1)) in
      let rb = acc_b.Poly.data.(r) and ra = acc_a.Poly.data.(r) in
      (* back to [0, q) with the float quotient: below 2^62 it is off
         by far less than one, so x - k·q lies in [-q, 2q) *)
      let fold () =
        for i = 0 to n - 1 do
          let x = A1.unsafe_get rb i in
          let v = x - (int_of_float (float_of_int x *. qinv) * q) in
          let v = v + (two_q land (v asr 62)) - q in
          A1.unsafe_set rb i (v + (q land (v asr 62)));
          let x = A1.unsafe_get ra i in
          let v = x - (int_of_float (float_of_int x *. qinv) * q) in
          let v = v + (two_q land (v asr 62)) - q in
          A1.unsafe_set ra i (v + (q land (v asr 62)))
        done
      in
      for j = 0 to level - 1 do
        if j > 0 && j mod room = 0 then fold ();
        let dj = digits.(j).Poly.data.(r) in
        (* key rows: a key at any level >= [level] holds chain row r as
           its row r and the special row as its last row *)
        let kb_j = sk.Keys.kb.(j) and ka_j = sk.Keys.ka.(j) in
        let key_row p = p.Poly.data.(if r < level then r else Poly.rows p - 1) in
        let kb = key_row kb_j and ka = key_row ka_j in
        for i = 0 to n - 1 do
          let d =
            A1.unsafe_get dj (if gather then A1.unsafe_get perm i else i)
          in
          A1.unsafe_set rb i (A1.unsafe_get rb i + (d * A1.unsafe_get kb i));
          A1.unsafe_set ra i (A1.unsafe_get ra i + (d * A1.unsafe_get ka i))
        done
      done;
      fold ());
  let b = Poly.drop_last ctx acc_b and a = Poly.drop_last ctx acc_a in
  Poly.release ctx acc_b;
  Poly.release ctx acc_a;
  (b, a)

let release_hoisted (k : Keys.t) (h : hoisted) =
  Array.iter (Poly.release k.Keys.ctx) h

let key_switch (k : Keys.t) x (sk : Keys.switch_key) =
  let digits = decompose k.Keys.ctx x in
  let ba = accumulate k digits sk in
  release_hoisted k digits;
  ba

let mul (k : Keys.t) a b =
  if a.level <> b.level then invalid_arg "Evaluator.mul: level mismatch";
  let ctx = k.Keys.ctx in
  let e0 = Poly.mul ctx a.c0 b.c0 in
  let e1 = Poly.add ctx (Poly.mul ctx a.c0 b.c1) (Poly.mul ctx a.c1 b.c0) in
  let e2 = Poly.mul ctx a.c1 b.c1 in
  let rb, ra = key_switch k e2 (Keys.relin_key ~level:a.level k) in
  { c0 = Poly.add ctx e0 rb;
    c1 = Poly.add ctx e1 ra;
    level = a.level;
    scale = a.scale *. b.scale }

let mul_plain (k : Keys.t) a ?scale values =
  let ctx = k.Keys.ctx in
  let pscale =
    match scale with
    | Some s -> s
    | None -> Fhe_util.Bits.pow2f (ctx.Context.level_bits / 2)
  in
  let c0, c1 =
    match splat_constant ctx ~scale:pscale values with
    | Some m0 ->
        let s = Poly.residue_of_float ctx m0 in
        (Poly.mul_scalar_fn ctx a.c0 s, Poly.mul_scalar_fn ctx a.c1 s)
    | None ->
        let m = encode_at k ~level:a.level ~scale:pscale values in
        (Poly.mul ctx a.c0 m, Poly.mul ctx a.c1 m)
  in
  { a with c0; c1; scale = a.scale *. pscale }

let rescale (k : Keys.t) a =
  if a.level <= 1 then invalid_arg "Evaluator.rescale: bottom level";
  let ctx = k.Keys.ctx in
  let q = float_of_int ctx.Context.primes.(a.level - 1) in
  { c0 = Poly.drop_last ctx a.c0;
    c1 = Poly.drop_last ctx a.c1;
    level = a.level - 1;
    scale = a.scale /. q }

let modswitch (k : Keys.t) a =
  if a.level <= 1 then invalid_arg "Evaluator.modswitch: bottom level";
  let ctx = k.Keys.ctx in
  { a with
    c0 = Poly.restrict ctx a.c0 ~level:(a.level - 1) ~special:false;
    c1 = Poly.restrict ctx a.c1 ~level:(a.level - 1) ~special:false;
    level = a.level - 1 }

let rescale_modswitch (k : Keys.t) a =
  if a.level <= 2 then invalid_arg "Evaluator.rescale_modswitch: bottom level";
  let ctx = k.Keys.ctx in
  let keep = a.level - 2 in
  let q = float_of_int ctx.Context.primes.(a.level - 1) in
  { c0 = Poly.drop_last ~keep ctx a.c0;
    c1 = Poly.drop_last ~keep ctx a.c1;
    level = keep;
    scale = a.scale /. q }

let upscale (k : Keys.t) a bits =
  if bits <= 0 then invalid_arg "Evaluator.upscale: non-positive bits";
  let ctx = k.Keys.ctx in
  let factor pi =
    Modarith.pow 2 bits ~m:(Context.prime ctx pi)
  in
  { a with
    c0 = Poly.mul_scalar_fn ctx a.c0 factor;
    c1 = Poly.mul_scalar_fn ctx a.c1 factor;
    scale = a.scale *. Fhe_util.Bits.pow2f bits }

let hoist (k : Keys.t) a = decompose k.Keys.ctx a.c1

let rotate_hoisted (k : Keys.t) (h : hoisted) a steps =
  let ctx = k.Keys.ctx in
  let steps = Fhe_util.Bits.pos_rem steps (Context.slot_count ctx) in
  if steps = 0 then a
  else begin
    if Array.length h <> a.level then
      invalid_arg "Evaluator.rotate_hoisted: decomposition at another level";
    let g = Keys.galois_element ctx steps in
    let perm = Poly.galois_index ctx ~g in
    let kb, ka =
      accumulate k ~perm h (Keys.galois_key ~level:(Array.length h) k steps)
    in
    Context.release_row ctx perm;
    let c0g = Poly.automorphism ctx a.c0 ~g in
    let c0 = Poly.add ctx c0g kb in
    Poly.release ctx c0g;
    Poly.release ctx kb;
    { a with c0; c1 = ka }
  end

let rotate (k : Keys.t) a steps =
  if Fhe_util.Bits.pos_rem steps (Context.slot_count k.Keys.ctx) = 0 then a
  else begin
    let h = hoist k a in
    let r = rotate_hoisted k h a steps in
    release_hoisted k h;
    r
  end
