(** RNS-CKKS context: the ring, the modulus chain, and all precomputed
    transform plans.

    The chain is [q_1 … q_L] (~[level_bits]-bit NTT primes, playing the
    paper's rescaling factors [R]) plus one {e special prime} [p] used
    only inside key switching (the noise of a switch is divided by [p],
    keeping relinearization/rotation noise at the fresh-noise scale). *)

type t = {
  n : int;  (** ring degree (power of two); slot count is [n/2] *)
  levels : int;  (** chain length [L] *)
  level_bits : int;  (** nominal log2 of each chain prime *)
  primes : int array;  (** [q_1 … q_L] *)
  special : int;  (** the key-switching prime [p] *)
  plans : Ntt.plan array;  (** NTT plans for [q_1 … q_L] *)
  special_plan : Ntt.plan;
  fft : Fftc.plan;
  bitrev : int array;
      (** [bitrev.(i)] is [i] with its [log2 n] bits reversed: the
          NTT output order (slot [i] holds the evaluation at
          [ψ^(2·bitrev.(i)+1)]) *)
  mutable pool : Fhe_par.Pool.t option;
      (** when set, per-prime limb work fans out across these domains *)
  mutable arena : Arena.t option;
      (** when set, polynomial rows are drawn from / released to this
          freelist (driver-domain only) *)
}

val make : n:int -> levels:int -> ?level_bits:int -> unit -> t
(** Build a context ([level_bits] defaults to 28; the special prime is
    the first [level_bits + 1]-bit NTT prime candidate that is not in
    the chain, so it is distinct from every chain prime and, except
    where a narrow chain at a large [n] spreads that wide, dominates
    them).
    @raise Invalid_argument for invalid sizes. *)

val plan : t -> int -> Ntt.plan
(** Plan for chain index [i] (0-based); index [levels] is the special
    prime's plan. *)

val prime : t -> int -> int
(** Prime for chain index [i]; index [levels] is the special prime. *)

val slot_count : t -> int

val set_pool : t -> Fhe_par.Pool.t option -> unit
(** Attach (or detach) a domain pool.  Subsequent RNS limb work —
    per-row NTTs, rescale rows, key-switch accumulation rows — runs on
    the pool.  Results are bit-identical to the sequential path: every
    task owns a distinct row index. *)

val set_arena : t -> Arena.t option -> unit
(** Attach (or detach) a row arena.  With an arena attached,
    [alloc_row]/[alloc_row_raw] reuse released rows instead of
    allocating, and [release_row] parks rows for reuse.  The arena is
    driver-domain-only; this is safe because all [Poly] allocation
    happens on the driving domain. *)

val alloc_row : t -> Rvec.t
(** A zero-filled length-[n] row (arena-reused when possible). *)

val alloc_row_raw : t -> Rvec.t
(** A length-[n] row with unspecified contents — overwrite fully. *)

val release_row : t -> Rvec.t -> unit
(** Return a row for reuse; no-op without an arena. *)

val par_rows : t -> int -> (int -> unit) -> unit
(** [par_rows t nrows f] runs [f 0 .. f (nrows-1)], on the attached
    pool when there is one (each call must write only row-private
    state).  Must not be nested inside another [par_rows] task. *)
