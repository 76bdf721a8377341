(** Key material: secret/public keys, relinearization and Galois
    (rotation) switch keys — generated lazily, evicted under a byte
    budget, regenerated deterministically.

    Switch keys use the RNS per-prime decomposition with a special
    modulus: the key for digit [j] encrypts [P·target] on residue row
    [j] only, so [Σ_j \[x\]_{q_j} · ksk_j ≡ P·x·target (mod Q_l·P)] at
    any level [l] the key covers.  A key at level [l] holds digits
    [0..l-1], each over chain rows [0..l-1] plus the special row:
    {!switch_key_bytes}[ ~level:l] = [2·l·(l+1)·n·8] bytes.  Without a
    budget every key is made full-chain and serves the whole chain;
    under a budget a key is trimmed to the level of the ciphertext that
    asked for it, and its rows are exactly the full key's rows.

    Every switch key draws its randomness from a private stream derived
    from [(keygen seed, key identity)] — never from a shared sampler —
    so the bytes of a key are independent of the order keys are
    requested in, and an evicted key regenerates byte-identically on
    the next miss. That is the determinism contract the `@mem` tier
    pins. *)

type switch_key = {
  kb : Poly.t array;  (** per digit: b_j = −a_j·s + e_j + P·target (row j) *)
  ka : Poly.t array;
}

type mem = {
  resident_bytes : int;  (** switch-key bytes currently resident *)
  peak_bytes : int;  (** high-water mark of [resident_bytes] *)
  gens : int;  (** switch-key generations (incl. regenerations) *)
  evictions : int;
}

type t = {
  ctx : Context.t;
  seed : int;  (** keygen seed: root of every derived stream *)
  s : Poly.t;  (** secret key, full basis, NTT *)
  pb : Poly.t;  (** public key b = −a·s + e (top level, no special) *)
  pa : Poly.t;
  mutable relin : switch_key option;
      (** switches s² → s; [None] when not yet generated or evicted —
          use {!relin_key}, not this field *)
  galois : (int, switch_key) Hashtbl.t;
      (** resident rotation keys per (normalized, nonzero) step — use
          {!galois_key} to read through the LRU/eviction machinery *)
  last_use : (int, int) Hashtbl.t;  (** LRU ticks; relin is tag 0 *)
  mutable tick : int;
  mutable budget : int option;  (** byte budget; [None] = unlimited *)
  mutable resident_bytes : int;
  mutable peak_bytes : int;
  mutable gens : int;
  mutable evictions : int;
  enc_sampler : Sampler.t;
      (** ad-hoc encryption randomness: its own stream, derived from the
          keygen seed, so whole runs are reproducible while successive
          encryptions still draw fresh randomness.  Order-dependent —
          the scheduler uses {!derived_enc_seed} streams instead. *)
}

val keygen : ?seed:int -> ?rotations:int list -> ?key_budget:int -> Context.t -> t
(** Generate the secret/public key pair; [rotations] lists slot-rotation
    amounts to pre-generate Galois keys for.  Without [key_budget] the
    relin key is generated eagerly and nothing is ever evicted; with it,
    all switch keys are lazy and the least-recently-used one is evicted
    whenever resident switch-key bytes would exceed the budget.  A
    budget smaller than one key overshoots rather than fails.  A budget
    attaches an {!Arena} to [ctx] when none is attached, so the rows of
    evicted keys are reused rather than left to the GC. *)

val relin_key : ?level:int -> t -> switch_key
(** The relinearization key for ciphertexts at [level] (default: the
    top of the chain).  A resident key at least that deep is returned;
    otherwise the key is generated (or regenerated) — full-chain
    without a budget, trimmed to [level] under one, replacing a
    shallower resident key.
    @raise Invalid_argument when [level] is outside [1..levels]. *)

val galois_key : ?level:int -> t -> int -> switch_key
(** [galois_key t k]: the rotation key for step [k] (normalized mod
    slot count), at [level] as for {!relin_key}.
    @raise Invalid_argument when the normalized step is 0. *)

val add_rotation : t -> int -> unit
(** Ensure the full-chain Galois key for one more rotation amount is
    resident (idempotent; no-op for step 0). *)

val set_budget : t -> int option -> unit
(** Install or clear the switch-key byte budget (takes effect at the
    next generation; resident keys are not evicted immediately). *)

val mem : t -> mem
(** Byte/eviction counters (cumulative over the lifetime of [t]). *)

val switch_key_bytes : ?level:int -> Context.t -> int
(** Size of one switch key at [level] (default: the whole chain) in
    this context: [2·level·(level+1)·n·8]. *)

val key_level : switch_key -> int
(** The chain rows (and digits) a key covers: the deepest ciphertext
    level it switches. *)

val make_switch_key :
  Context.t -> Sampler.t -> s:Poly.t -> target:Poly.t -> level:int -> switch_key
(** The one switch-key generator: the key switching [target] onto [s]
    (both full-basis, NTT form) at [level], drawing every random cell
    from the sampler's stream.  The rows of a key at [level < levels]
    equal the same rows of the full-chain key from an equally seeded
    sampler, bit for bit.  Fused and call-free; bit-exact against
    [Reference.Keys.make_switch_key].
    @raise Invalid_argument when [level] is outside [1..levels]. *)

val derived_enc_seed : t -> int -> int
(** Seed of the deterministic encryption stream for input tag [n]:
    depends only on [(keygen seed, n)], so encryptions commute. *)

val galois_element : Context.t -> int -> int
(** The ring automorphism exponent [5^k mod 2n] implementing a left
    rotation by [k] slots. *)
