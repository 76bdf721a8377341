type t = {
  level : int;
  special : bool;
  ntt : bool;
  data : Rvec.t array;
}

let rows t = t.level + if t.special then 1 else 0

(* basis-prime index of row r: 0..level-1 are chain primes, the special
   row maps to Context index [levels] *)
let prime_index (ctx : Context.t) t r =
  if r < t.level then r
  else begin
    assert t.special;
    ctx.Context.levels
  end

let zero (ctx : Context.t) ~level ~special ~ntt =
  let nrows = level + if special then 1 else 0 in
  { level; special; ntt;
    data = Array.init nrows (fun _ -> Context.alloc_row ctx) }

(* Rows with unspecified contents, for kernels that write every cell. *)
let alloc (ctx : Context.t) ~level ~special ~ntt =
  let nrows = level + if special then 1 else 0 in
  { level; special; ntt;
    data = Array.init nrows (fun _ -> Context.alloc_row_raw ctx) }

let copy t = { t with data = Array.map Rvec.copy t.data }

(* Arena-aware copy: rows come from the context's freelist when one is
   attached.  Driver-domain only (like all Poly allocation). *)
let copy_into (ctx : Context.t) t =
  { t with
    data =
      Array.map
        (fun r ->
          let o = Context.alloc_row_raw ctx in
          Rvec.blit r o;
          o)
        t.data }

let release (ctx : Context.t) t =
  Array.iter (Context.release_row ctx) t.data

let to_ntt_in_place (ctx : Context.t) t =
  if t.ntt then t
  else begin
    Context.par_rows ctx (rows t) (fun r ->
        Ntt.forward (Context.plan ctx (prime_index ctx t r)) t.data.(r));
    { t with ntt = true }
  end

let to_ntt (ctx : Context.t) t =
  if t.ntt then t else to_ntt_in_place ctx (copy_into ctx t)

let of_ntt (ctx : Context.t) t =
  if not t.ntt then t
  else begin
    let t' = copy_into ctx t in
    Context.par_rows ctx (rows t) (fun r ->
        Ntt.inverse (Context.plan ctx (prime_index ctx t r)) t'.data.(r));
    { t' with ntt = false }
  end

let check_compat a b =
  if a.level <> b.level || a.special <> b.special || a.ntt <> b.ntt then
    invalid_arg "Poly: basis/form mismatch"

(* The row kernels.

   Under dune's default profile the compiler runs with [-opaque] and
   without flambda, so every cross-module function in an inner loop —
   [Rvec.get]/[set], [Modarith.Barrett.mul], [Modarith.mul_shoup],
   [Fhe_util.Bits.pos_rem] — is an out-of-line closure call
   ([caml_applyN]).  The loops below therefore call nothing: they apply
   [Bigarray.Array1.unsafe_get]/[unsafe_set] syntactically on
   concretely typed rows (one load/store each), inline the Barrett and
   Shoup arithmetic, and bring values into range with the branchless
   sign mask [x + (q land (x asr 62))] — [x asr 62] is -1 exactly when
   [x] is negative, so the conditional add costs an and+add.  Every
   result is the canonical residue the pre-rewrite kernels (kept as
   Reference.Poly) compute.  Indices are loop-derived and bounded by
   [n], so the debug mode's obligation is the one up-front length
   check in [guard]. *)

module A1 = Bigarray.Array1

let guard (ctx : Context.t) what polys =
  if Rvec.checked then
    List.iter
      (fun p ->
        Array.iter
          (fun (v : Rvec.t) ->
            if A1.dim v <> ctx.Context.n then
              invalid_arg
                (Printf.sprintf "%s: row length %d does not match n = %d" what
                   (A1.dim v) ctx.Context.n))
          p.data)
      polys

let of_coeff_array (ctx : Context.t) ~level ~special coeffs =
  let n = ctx.Context.n in
  assert (Array.length coeffs = n);
  let t = alloc ctx ~level ~special ~ntt:false in
  guard ctx "Poly.of_coeff_array" [ t ];
  for r = 0 to rows t - 1 do
    let q = Context.prime ctx (prime_index ctx t r) in
    let row = t.data.(r) in
    for j = 0 to n - 1 do
      let c = Array.unsafe_get coeffs j in
      (* sampled coefficients are far below q; only others divide *)
      let c = if c < q && c > -q then c else c mod q in
      A1.unsafe_set row j (c + (q land (c asr 62)))
    done
  done;
  t

(* [x mod q] in [0, q) for an integer-valued float [x], exactly, given
   [qinv] = 1/q: the one float-to-residue rule, for the encoder's
   coefficients and the splat constants alike.  Below 2^53 the float
   quotient x·(1/q) is off by far less than one, so its truncation is
   within one of trunc (x/q): x − k·q lies in (−2q, 2q), and two
   sign-mask steps give x mod q in [0, q).  Beyond that the exact
   Float.rem takes over. *)
let[@inline] float_residue ~q ~qinv x =
  if Float.abs x < 0x1p53 then begin
    let v = int_of_float x - (int_of_float (x *. qinv) * q) in
    let v = v + ((2 * q) land (v asr 62)) - q in
    v + (q land (v asr 62))
  end
  else begin
    let qf = float_of_int q in
    let v = Float.rem x qf in
    int_of_float (if v < 0.0 then v +. qf else v)
  end

let residue_of_float (ctx : Context.t) x pi =
  let q = Context.prime ctx pi in
  float_residue ~q ~qinv:(1.0 /. float_of_int q) x

let of_float_coeffs (ctx : Context.t) ~level coeffs =
  let n = ctx.Context.n in
  assert (Array.length coeffs = n);
  let t = alloc ctx ~level ~special:false ~ntt:false in
  guard ctx "Poly.of_float_coeffs" [ t ];
  for r = 0 to level - 1 do
    let q = Context.prime ctx r in
    let qinv = 1.0 /. float_of_int q in
    let row = t.data.(r) in
    for j = 0 to n - 1 do
      A1.unsafe_set row j (float_residue ~q ~qinv (Array.unsafe_get coeffs j))
    done
  done;
  t

let add (ctx : Context.t) a b =
  check_compat a b;
  let out = alloc ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
  guard ctx "Poly.add" [ a; b; out ];
  let n = ctx.Context.n in
  for r = 0 to rows a - 1 do
    let q = Context.prime ctx (prime_index ctx a r) in
    let ra = a.data.(r) and rb = b.data.(r) and ro = out.data.(r) in
    for j = 0 to n - 1 do
      let s = A1.unsafe_get ra j + A1.unsafe_get rb j - q in
      A1.unsafe_set ro j (s + (q land (s asr 62)))
    done
  done;
  out

let sub (ctx : Context.t) a b =
  check_compat a b;
  let out = alloc ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
  guard ctx "Poly.sub" [ a; b; out ];
  let n = ctx.Context.n in
  for r = 0 to rows a - 1 do
    let q = Context.prime ctx (prime_index ctx a r) in
    let ra = a.data.(r) and rb = b.data.(r) and ro = out.data.(r) in
    for j = 0 to n - 1 do
      let d = A1.unsafe_get ra j - A1.unsafe_get rb j in
      A1.unsafe_set ro j (d + (q land (d asr 62)))
    done
  done;
  out

let mul (ctx : Context.t) a b =
  if not (a.ntt && b.ntt) then invalid_arg "Poly.mul: operands must be NTT";
  check_compat a b;
  let out = alloc ctx ~level:a.level ~special:a.special ~ntt:true in
  guard ctx "Poly.mul" [ a; b; out ];
  let n = ctx.Context.n in
  for r = 0 to rows a - 1 do
    let { Modarith.Barrett.p = q; mu; s1; s2 } =
      Ntt.barrett (Context.plan ctx (prime_index ctx a r))
    in
    let ra = a.data.(r) and rb = b.data.(r) and ro = out.data.(r) in
    for j = 0 to n - 1 do
      (* Barrett: the quotient estimate is short by at most 2, so the
         remainder is in [0, 3q) and two subtractions canonicalize *)
      let x = A1.unsafe_get ra j * A1.unsafe_get rb j in
      let y = x - ((((x lsr s1) * mu) lsr s2) * q) - q in
      let y = y + (q land (y asr 62)) - q in
      A1.unsafe_set ro j (y + (q land (y asr 62)))
    done
  done;
  out

let neg (ctx : Context.t) a =
  let out = alloc ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
  guard ctx "Poly.neg" [ a; out ];
  let n = ctx.Context.n in
  for r = 0 to rows a - 1 do
    let q = Context.prime ctx (prime_index ctx a r) in
    let ra = a.data.(r) and ro = out.data.(r) in
    for j = 0 to n - 1 do
      let y = - A1.unsafe_get ra j in
      A1.unsafe_set ro j (y + (q land (y asr 62)))
    done
  done;
  out

let mul_scalar_fn (ctx : Context.t) a scalar_of =
  let out = alloc ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
  guard ctx "Poly.mul_scalar_fn" [ a; out ];
  let n = ctx.Context.n in
  for r = 0 to rows a - 1 do
    let pi = prime_index ctx a r in
    let q = Context.prime ctx pi in
    let s = Fhe_util.Bits.pos_rem (scalar_of pi) q in
    (* Shoup: [x·s − ((x·sp) >> 31)·q] is in [0, 2q) for [sp] as below *)
    let sp = Modarith.shoup s ~m:q in
    let ra = a.data.(r) and ro = out.data.(r) in
    for j = 0 to n - 1 do
      let x = A1.unsafe_get ra j in
      let y = (x * s) - (((x * sp) lsr 31) * q) - q in
      A1.unsafe_set ro j (y + (q land (y asr 62)))
    done
  done;
  out

let add_scalar_fn (ctx : Context.t) a scalar_of =
  let out = alloc ctx ~level:a.level ~special:a.special ~ntt:a.ntt in
  guard ctx "Poly.add_scalar_fn" [ a; out ];
  let n = ctx.Context.n in
  for r = 0 to rows a - 1 do
    let pi = prime_index ctx a r in
    let q = Context.prime ctx pi in
    let s = Fhe_util.Bits.pos_rem (scalar_of pi) q in
    let ra = a.data.(r) and ro = out.data.(r) in
    for j = 0 to n - 1 do
      let y = A1.unsafe_get ra j + s - q in
      A1.unsafe_set ro j (y + (q land (y asr 62)))
    done
  done;
  out

let drop_last ?keep (ctx : Context.t) t =
  if not t.ntt then invalid_arg "Poly.drop_last: expected NTT form";
  let n = ctx.Context.n in
  let last_row = rows t - 1 in
  let last_pi = prime_index ctx t last_row in
  let q_last = Context.prime ctx last_pi in
  let half = q_last / 2 in
  (* bring the dropped component to coefficient form, in a scratch row
     from the arena (like the lifted rows below, taken on the driving
     domain and returned after the fan-out) *)
  let dropped = Context.alloc_row_raw ctx in
  Rvec.blit t.data.(last_row) dropped;
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
  let out = alloc ctx ~level:out_level ~special:false ~ntt:true in
  let lifted = alloc ctx ~level:out_level ~special:false ~ntt:true in
  guard ctx "Poly.drop_last" [ t; out; lifted ];
  Context.par_rows ctx out_level (fun r ->
      let pi = prime_index ctx out r in
      let q = Context.prime ctx pi in
      let two_q = 2 * q in
      let inv_last = Modarith.inv (q_last mod q) ~m:q in
      let il_sh = Modarith.shoup inv_last ~m:q in
      (* the centered lift has |c| <= q_last/2, which is below 2q for
         every chain Context builds (the special prime is one bit wider
         than the chain primes); a wider gap takes the divide *)
      let wide = half >= two_q in
      (* centered lift of the dropped component, reduced mod q, in NTT *)
      let lifted = lifted.data.(r) in
      for j = 0 to n - 1 do
        let c = A1.unsafe_get dropped j in
        let c = c - (q_last land ((half - c) asr 62)) in
        let c = if wide then c mod q else c in
        let c = c + (two_q land (c asr 62)) - q in
        A1.unsafe_set lifted j (c + (q land (c asr 62)))
      done;
      Ntt.forward (Context.plan ctx pi) lifted;
      let src = t.data.(r) and dst = out.data.(r) in
      for j = 0 to n - 1 do
        let d = A1.unsafe_get src j - A1.unsafe_get lifted j in
        let d = d + (q land (d asr 62)) in
        let y = (d * inv_last) - (((d * il_sh) lsr 31) * q) - q in
        A1.unsafe_set dst j (y + (q land (y asr 62)))
      done);
  Context.release_row ctx dropped;
  release ctx lifted;
  out

(* Slot i of an NTT-form row holds the evaluation at ψ^(2·bitrev(i)+1),
   and X ↦ X^g moves the evaluation at ψ^e to ψ^(e·g): slot i of the
   image is the input slot at exponent (2·bitrev(i)+1)·g mod 2n.  The
   index lives in a context row, not an OCaml array: a fresh n-word
   array per rotation lands in the major heap and grows it. *)
let galois_index (ctx : Context.t) ~g =
  let n = ctx.Context.n in
  let mask = (2 * n) - 1 in
  let brv = ctx.Context.bitrev in
  let idx = Context.alloc_row_raw ctx in
  if Rvec.checked && A1.dim idx <> n then
    invalid_arg "Poly.galois_index: row length does not match n";
  for i = 0 to n - 1 do
    let e = (((2 * Array.unsafe_get brv i) + 1) * g) land mask in
    A1.unsafe_set idx i (Array.unsafe_get brv (e lsr 1))
  done;
  idx

let automorphism (ctx : Context.t) t ~g =
  let n = ctx.Context.n in
  if g land 1 = 0 then invalid_arg "Poly.automorphism: g must be odd";
  let mask = (2 * n) - 1 in
  let out = alloc ctx ~level:t.level ~special:t.special ~ntt:t.ntt in
  guard ctx "Poly.automorphism" [ t; out ];
  if t.ntt then begin
    (* a gather through [galois_index]: no transforms and no arithmetic
       on the residues *)
    let idx = galois_index ctx ~g in
    for r = 0 to rows t - 1 do
      let src = t.data.(r) and dst = out.data.(r) in
      for i = 0 to n - 1 do
        A1.unsafe_set dst i (A1.unsafe_get src (A1.unsafe_get idx i))
      done
    done;
    Context.release_row ctx idx
  end
  else
    (* coefficient j moves to j·g mod 2n, negated past n (X^n = -1);
       j ↦ j·g mod n is a bijection for odd g, so every cell is written *)
    for r = 0 to rows t - 1 do
      let q = Context.prime ctx (prime_index ctx t r) in
      let src = t.data.(r) and dst = out.data.(r) in
      for j = 0 to n - 1 do
        let k = (j * g) land mask in
        let x = A1.unsafe_get src j in
        if k < n then A1.unsafe_set dst k x
        else begin
          let y = -x in
          A1.unsafe_set dst (k - n) (y + (q land (y asr 62)))
        end
      done
    done;
  out

let equal_basis a b = a.level = b.level && a.special = b.special

let restrict (ctx : Context.t) t ~level ~special =
  if level > t.level || (special && not t.special) then
    invalid_arg "Poly.restrict: cannot grow a basis";
  let copy_row r =
    let o = Context.alloc_row_raw ctx in
    Rvec.blit r o;
    o
  in
  let keep =
    Array.init (level + if special then 1 else 0) (fun r ->
        if r < level then copy_row t.data.(r)
        else copy_row t.data.(rows t - 1))
  in
  { level; special; ntt = t.ntt; data = keep }
