(** Homomorphic evaluation: the RNS-CKKS operations of Table 2 on real
    ciphertexts.

    Ciphertexts are pairs [(c0, c1)] with [m ≈ c0 + c1·s (mod Q_l)],
    kept in NTT form, carrying their level and exact scale (a float:
    rescaling divides by the actual dropped prime, not exactly [2^R]).
    Scale drift between adds is tolerated up to a relative bound and
    contributes to the (approximate) result like any other noise. *)

type ct = {
  c0 : Poly.t;
  c1 : Poly.t;
  level : int;
  scale : float;
}

val encrypt :
  Keys.t -> level:int -> scale:float -> float array -> ct
(** Public-key encryption of up to [n/2] real slot values. *)

val encrypt_det :
  Keys.t -> tag:int -> level:int -> scale:float -> float array -> ct
(** Public-key encryption from a deterministic randomness stream
    derived from [(keygen seed, tag)].  Two calls with the same keys,
    tag, and arguments produce byte-identical ciphertexts regardless of
    what was encrypted in between — the scheduler relies on this to
    encrypt inputs in any order and to re-encrypt freed inputs. *)

val encrypt_sym :
  Keys.t -> level:int -> scale:float -> float array -> ct
(** Secret-key encryption (fresh randomness per call). *)

val decrypt : Keys.t -> ct -> float array
(** Decrypt and decode to [n/2] slot values. *)

val add : Keys.t -> ct -> ct -> ct

val sub : Keys.t -> ct -> ct -> ct

val neg : Keys.t -> ct -> ct

val add_plain : Keys.t -> ct -> float array -> ct
(** Add a plaintext vector, encoded at the ciphertext's scale/level.  A
    splat — the same float in every slot, or a short array of [+0.0]
    that the encoder pads with [+0.0] — encodes exactly to a constant
    polynomial, so it is added as one residue per row without the
    encoder, bit for bit what the encoder path gives (see DESIGN.md). *)

val sub_plain : Keys.t -> ct -> float array -> ct
(** Like {!add_plain}, subtracting. *)

val mul : Keys.t -> ct -> ct -> ct
(** Ciphertext multiplication including relinearization; scales
    multiply. *)

val mul_plain : Keys.t -> ct -> ?scale:float -> float array -> ct
(** Multiply by a plaintext encoded at [scale] (default [2^level_bits·½]
    — pass the compiler's waterline for managed programs).  A splat (as
    for {!add_plain}) multiplies each row by one residue, with no
    encoding and no transform, bit for bit the encoder path. *)

val rescale : Keys.t -> ct -> ct
(** Drop the top chain prime; scale divides by that prime. *)

val modswitch : Keys.t -> ct -> ct
(** Drop the top chain prime without touching the scale. *)

val rescale_modswitch : Keys.t -> ct -> ct
(** [rescale] followed by [modswitch], fused: one pass of the RNS
    division computes only the surviving [level - 2] rows, so the row
    that the modswitch would immediately drop is never materialized.
    Requires [level > 2]. *)

val upscale : Keys.t -> ct -> int -> ct
(** Multiply by the exact constant [2^bits] (noise-free). *)

val rotate : Keys.t -> ct -> int -> ct
(** Rotate slots left by [k] (Galois automorphism + key switch); the
    Galois key is generated on demand if missing.  Rotation by a
    multiple of the slot count returns the input.  [rotate keys a k]
    is [rotate_hoisted keys (hoist keys a) a k] with the decomposition
    released afterwards: the same kernels, for a group of one. *)

type hoisted
(** The key-switch decomposition of a ciphertext's [c1]: each digit
    [\[c1\]_{q_j}] lifted into every row of the extended basis, in NTT
    form — [L·(L+1)] rows at level [L].  It owns its rows (copies, not
    views of [c1]), which come from the context's arena. *)

val hoist : Keys.t -> ct -> hoisted
(** [hoist k a] decomposes [a.c1] once: [L] inverse and [L·L] forward
    NTTs, about two thirds of a rotation's cost. *)

val rotate_hoisted : Keys.t -> hoisted -> ct -> int -> ct
(** [rotate_hoisted k (hoist k a) a s] is bit for bit [rotate k a s],
    but costs only the multiply-accumulate against the Galois key
    (read through the NTT-domain Galois gather) and the special-prime
    mod-down: the lift commutes with the automorphism, so every
    rotation of [a] can share one decomposition.  The hoisted value
    must come from [a] itself (its level is checked, its contents
    cannot be).
    @raise Invalid_argument when [h] was made at another level. *)

val release_hoisted : Keys.t -> hoisted -> unit
(** Return a decomposition's rows to the context's arena (no-op without
    one).  It must not be used afterwards. *)

val scale_mismatch_tolerance : float
(** Maximum relative operand-scale mismatch [add] accepts (the RNS prime
    drift bound; see DESIGN.md). *)

val key_switch : Keys.t -> Poly.t -> Keys.switch_key -> Poly.t * Poly.t
(** [key_switch k x sk] is the pair [(b, a)], at [x]'s level in NTT
    form, with [b + a·s ≈ x·target] where [sk] switches [target] onto
    the secret [s]: decompose [x] by chain prime, multiply-accumulate
    the digits against [sk] in the extended basis, divide by the
    special prime.  The core of relinearization; rotation runs the same
    two kernels through {!hoist} and {!rotate_hoisted}. *)
