type switch_key = {
  kb : Poly.t array;
  ka : Poly.t array;
}

type mem = {
  resident_bytes : int;
  peak_bytes : int;
  gens : int;
  evictions : int;
}

type t = {
  ctx : Context.t;
  seed : int;
  s : Poly.t;
  pb : Poly.t;
  pa : Poly.t;
  mutable relin : switch_key option;
  galois : (int, switch_key) Hashtbl.t;
  last_use : (int, int) Hashtbl.t;
  mutable tick : int;
  mutable budget : int option;
  mutable resident_bytes : int;
  mutable peak_bytes : int;
  mutable gens : int;
  mutable evictions : int;
  enc_sampler : Sampler.t;
}

(* The relin key shares the eviction namespace with the Galois keys;
   Galois entries are keyed by their (nonzero) normalized step, so 0 is
   free for relin. *)
let relin_tag = 0

(* SplitMix-style scramble confined to OCaml's 63-bit ints: every
   switch key and every deterministic encryption draws from its own
   stream derived from (seed, salt), so the bytes of a key depend only
   on the keygen seed and its identity — never on generation order.
   That is what makes evict-then-regenerate byte-identical. *)
let mix seed salt =
  let m = 0x2545F4914F6CDD1D in
  let s = ref ((seed lxor (((2 * salt) + 1) * m)) land max_int) in
  s := !s lxor (!s lsr 29);
  s := !s * m land max_int;
  s := !s lxor (!s lsr 32);
  !s land max_int

let relin_seed t = mix t.seed 0x7E11

let galois_seed t k = mix t.seed (0x60A1 + k)

let derived_enc_seed t tag = mix (t.seed lxor 0x5EED5) (0xE4C0 + tag)

let switch_key_bytes ?level (ctx : Context.t) =
  let level = Option.value level ~default:ctx.Context.levels in
  (* kb + ka: [level] digits, each [level] chain rows plus the special
     row of [n] boxed-free 64-bit cells *)
  2 * level * (level + 1) * ctx.Context.n * 8

(* the chain rows (and digits) a key covers *)
let key_level sk = Array.length sk.kb

let galois_element (ctx : Context.t) k =
  let nh = Context.slot_count ctx in
  let k = Fhe_util.Bits.pos_rem k nh in
  (Fftc.rot_group ctx.Context.fft).(k)

module A1 = Bigarray.Array1
module Prng = Fhe_util.Prng

(* Key for switching [target·(something)] onto s, over chain rows
   0..level-1 and the special row: digit j encrypts e_j + P·target on
   residue row j.

   The key's private stream is the full-chain key's: per digit, a's
   chain rows 0..levels-1 and its special row (one [Prng.int] draw per
   cell), then e's Gaussians.  A key trimmed to [level] skips a's unused
   chain rows with [Prng.skip] and stops after digit [level-1] (nothing
   follows the last digit in its stream), so each of its rows equals
   the full key's bit for bit.

   Fused and call-free (see the note in poly.ml): a's rows are sampled
   straight into the key, e is drawn once per digit into one scratch
   array, lifted into each row of b and forward-transformed in place,
   and b = e − a·s (+ P·target on row j) runs in one pass with Barrett
   and Shoup inlined.  Only the key's own rows are allocated.  Every
   result is the canonical residue [Reference.Keys.make_switch_key]
   computes. *)
let make_switch_key (ctx : Context.t) g ~s ~target ~level =
  let levels = ctx.Context.levels in
  if level < 1 || level > levels then
    invalid_arg "Keys.make_switch_key: level out of range";
  let n = ctx.Context.n in
  let fresh _ = Poly.alloc ctx ~level ~special:true ~ntt:true in
  let kb = Array.init level fresh and ka = Array.init level fresh in
  if Rvec.checked then
    Poly.guard ctx "Keys.make_switch_key"
      (s :: target :: (Array.to_list kb @ Array.to_list ka));
  let special = ctx.Context.special in
  let e = Array.make n 0 in
  for j = 0 to level - 1 do
    let a = ka.(j).Poly.data and b = kb.(j).Poly.data in
    for r = 0 to level - 1 do
      Prng.fill_int g a.(r) (Context.prime ctx r)
    done;
    Prng.skip g ((levels - level) * n);
    Prng.fill_int g a.(level) special;
    Prng.fill_gaussian g ~sigma:Sampler.sigma e;
    Context.par_rows ctx (level + 1) (fun r ->
        (* basis-prime index: key row r is chain row r, the last is the
           special row, which s and target hold at index [levels] *)
        let pi = if r < level then r else levels in
        let plan = Context.plan ctx pi in
        let { Modarith.Barrett.p = q; mu; s1; s2 } = Ntt.barrett plan in
        let row = b.(r) in
        for i = 0 to n - 1 do
          let c = Array.unsafe_get e i in
          let c = if c < q && c > -q then c else c mod q in
          A1.unsafe_set row i (c + (q land (c asr 62)))
        done;
        Ntt.forward plan row;
        (* the gadget P·target sits on row j alone; elsewhere w = 0
           makes its Shoup product 0 *)
        let w = if r = j then special mod q else 0 in
        let wp = Modarith.shoup w ~m:q in
        let ar = a.(r) and sr = s.Poly.data.(pi) and tr = target.Poly.data.(pi) in
        for i = 0 to n - 1 do
          let x = A1.unsafe_get ar i * A1.unsafe_get sr i in
          let y = x - ((((x lsr s1) * mu) lsr s2) * q) - q in
          let y = y + (q land (y asr 62)) - q in
          let y = y + (q land (y asr 62)) in
          let d = A1.unsafe_get row i - y in
          let d = d + (q land (d asr 62)) in
          let t = A1.unsafe_get tr i in
          let p = (t * w) - (((t * wp) lsr 31) * q) - q in
          let d = d + p + (q land (p asr 62)) - q in
          A1.unsafe_set row i (d + (q land (d asr 62)))
        done)
  done;
  { kb; ka }

let touch t tag =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.last_use tag t.tick

let resident t tag =
  if tag = relin_tag then t.relin else Hashtbl.find_opt t.galois tag

let evict t tag =
  (match resident t tag with
  | Some sk ->
      Array.iter (Poly.release t.ctx) sk.kb;
      Array.iter (Poly.release t.ctx) sk.ka;
      t.resident_bytes <-
        t.resident_bytes - switch_key_bytes ~level:(key_level sk) t.ctx
  | None -> ());
  if tag = relin_tag then t.relin <- None else Hashtbl.remove t.galois tag;
  Hashtbl.remove t.last_use tag;
  t.evictions <- t.evictions + 1

(* Make room for [incoming] more switch-key bytes under the budget by
   evicting least-recently-used keys ([keep] is pinned).  If nothing
   evictable remains we overshoot rather than fail: a budget below one
   key's size still computes correct results, it just cannot be
   honored. *)
let ensure_room t ~keep ~incoming =
  match t.budget with
  | None -> ()
  | Some budget ->
      let exception Done in
      (try
         while t.resident_bytes + incoming > budget do
           let victim =
             Hashtbl.fold
               (fun tag tick acc ->
                 if tag = keep then acc
                 else
                   match acc with
                   | Some (_, best) when best <= tick -> acc
                   | _ -> Some (tag, tick))
               t.last_use None
           in
           match victim with
           | Some (tag, _) -> evict t tag
           | None -> raise Done
         done
       with Done -> ())

(* The key under [tag], good for ciphertexts at [level] (default: the
   whole chain).  A resident key at least that deep is a hit; a
   shallower one is replaced.  A miss makes the key full-chain without
   a budget — it then serves every level for good — and trimmed to
   [level] under one. *)
let fetch t tag ?level make =
  let levels = t.ctx.Context.levels in
  let need = Option.value level ~default:levels in
  if need < 1 || need > levels then invalid_arg "Keys: level out of range";
  match resident t tag with
  | Some sk when key_level sk >= need ->
      touch t tag;
      sk
  | stale ->
      (match stale with Some _ -> evict t tag | None -> ());
      let level = if t.budget = None then levels else need in
      let bytes = switch_key_bytes ~level t.ctx in
      ensure_room t ~keep:tag ~incoming:bytes;
      let sk = make level in
      if tag = relin_tag then t.relin <- Some sk
      else Hashtbl.replace t.galois tag sk;
      t.gens <- t.gens + 1;
      t.resident_bytes <- t.resident_bytes + bytes;
      if t.resident_bytes > t.peak_bytes then t.peak_bytes <- t.resident_bytes;
      touch t tag;
      sk

let relin_key ?level t =
  fetch t relin_tag ?level (fun level ->
      let s2 = Poly.mul t.ctx t.s t.s in
      let sk =
        make_switch_key t.ctx
          (Sampler.create ~seed:(relin_seed t))
          ~s:t.s ~target:s2 ~level
      in
      Poly.release t.ctx s2;
      sk)

let galois_key ?level t k =
  let nh = Context.slot_count t.ctx in
  let k = Fhe_util.Bits.pos_rem k nh in
  if k = 0 then invalid_arg "Keys.galois_key: rotation by zero needs no key";
  fetch t k ?level (fun level ->
      let s_g = Poly.automorphism t.ctx t.s ~g:(galois_element t.ctx k) in
      let sk =
        make_switch_key t.ctx
          (Sampler.create ~seed:(galois_seed t k))
          ~s:t.s ~target:s_g ~level
      in
      Poly.release t.ctx s_g;
      sk)

let add_rotation t k =
  let nh = Context.slot_count t.ctx in
  let k = Fhe_util.Bits.pos_rem k nh in
  if k <> 0 then ignore (galois_key t k)

let set_budget t budget = t.budget <- budget

let mem t =
  { resident_bytes = t.resident_bytes;
    peak_bytes = t.peak_bytes;
    gens = t.gens;
    evictions = t.evictions }

let keygen ?(seed = 0xC0FFEE) ?(rotations = []) ?key_budget ctx =
  (* budgeted keys come and go: their rows cycle through the context
     arena rather than through fresh Bigarrays and the GC *)
  (match key_budget, ctx.Context.arena with
  | Some _, None -> Context.set_arena ctx (Some (Arena.create ~n:ctx.Context.n))
  | _ -> ());
  let sampler = Sampler.create ~seed in
  let n = ctx.Context.n in
  let levels = ctx.Context.levels in
  let s_coeffs = Sampler.ternary sampler ~n in
  let s =
    Poly.to_ntt ctx (Poly.of_coeff_array ctx ~level:levels ~special:true s_coeffs)
  in
  let s_top = Poly.restrict ctx s ~level:levels ~special:false in
  let pa_full = Sampler.uniform_ntt sampler ctx ~level:levels ~special:false in
  let pe =
    Poly.to_ntt ctx
      (Poly.of_coeff_array ctx ~level:levels ~special:false
         (Sampler.gaussian sampler ~n ()))
  in
  let pb = Poly.add ctx (Poly.neg ctx (Poly.mul ctx pa_full s_top)) pe in
  let t =
    { ctx;
      seed;
      s;
      pb;
      pa = pa_full;
      relin = None;
      galois = Hashtbl.create 16;
      last_use = Hashtbl.create 16;
      tick = 0;
      budget = key_budget;
      resident_bytes = 0;
      peak_bytes = 0;
      gens = 0;
      evictions = 0;
      enc_sampler = Sampler.create ~seed:(seed lxor 0x5EED5) }
  in
  (* Without a budget every key is resident forever, so generate the
     relin key eagerly (keygen-time cost, like before laziness existed).
     Under a budget stay lazy: the first mul pays for it. *)
  if key_budget = None then ignore (relin_key t);
  List.iter (add_rotation t) rotations;
  t
