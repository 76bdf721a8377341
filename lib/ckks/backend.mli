open Fhe_ir

(** Execute a scale-managed IR program on the real RNS-CKKS scheme,
    under a liveness-driven schedule with explicit memory management.

    This is the end-to-end path: ciphertext inputs are encrypted at
    their assigned level and the waterline scale; every IR op maps to
    one homomorphic operation; outputs are decrypted and decoded.  The
    program must have been compiled with [rbits] equal to this context's
    [level_bits] (28-bit chains — see DESIGN.md on the 60→28-bit
    substitution) and with [n_slots = n/2].

    A [Rescale] whose only consumer is a [Modswitch] executes as the
    fused {!Evaluator.rescale_modswitch} (same results, one RNS
    division pass).  Rotations of one ciphertext share one key-switch
    decomposition: a root with at least two nonzero rotations is
    {!Evaluator.hoist}ed at its first rotation, every rotation of it
    runs {!Evaluator.rotate_hoisted}, and the decomposition returns to
    the arena after the last (same bits as per-op
    {!Evaluator.rotate}).  Passing [?pool] fans per-prime limb work
    across the domains; outputs are bit-identical at every width.

    {2 Memory-scalable execution (DESIGN.md §11)}

    With [?sched] (the default), ops execute in a liveness-minimizing
    order computed by {!Fhe_sched.Schedule} (never worse than program
    order), dead ciphertexts are freed at their last use into the
    context's row arena, and — under [?mem_budget] — cold ciphertexts
    spill to disk through the checksummed {!Fhe_cache.Disk} format,
    reloading (or deterministically recomputing, if the entry is lost
    or poisoned) on demand.  [?mem_budget] also bounds resident
    switch-key bytes ({!Keys.set_budget}), with [?key_budget] taking
    precedence for keys when both are given.

    Decrypted outputs are byte-identical with scheduling on or off, at
    any pool width, under any budget: inputs encrypt from per-input
    derived randomness streams ({!Evaluator.encrypt_det}), switch keys
    regenerate from per-key derived streams, every homomorphic op is
    deterministic, and reordering respects all data dependences. *)

type mem_stats = {
  peak_ct_bytes : int;
      (** measured peak of live ciphertext bytes (physical polynomials,
          shared storage counted once) *)
  sched_ct_bytes : int;
      (** analytic peak of the executed order (2 polys/ct weights) *)
  order_ct_bytes : int;
      (** analytic peak of program order with the same free plan — the
          "before" of the scheduler's reordering win *)
  resident_ct_bytes : int;
      (** analytic total with no freeing at all: what a naive executor
          holds at the end of the program *)
  peak_key_bytes : int;  (** high-water resident switch-key bytes *)
  key_gens : int;  (** switch-key (re)generations during this run *)
  key_evictions : int;
  ct_spills : int;
  ct_reloads : int;
  ct_recomputes : int;  (** demand recomputations (lost/poisoned spills) *)
  arena_reuses : int;  (** row allocations served by the freelist *)
  hoisted_rotations : int;
      (** rotations served from a decomposition shared with other
          rotations of the same ciphertext (see [exec]'s peephole) *)
  reordered : bool;  (** false = the schedule is program order *)
}

type stats = {
  keygen_ms : float;
  encrypt_ms : float;
  eval_ms : float;  (** homomorphic ops only (excludes encrypt/decrypt) *)
  decrypt_ms : float;
  output_levels : int array;
      (** ciphertext level of each program output; [-1] for plaintext
          outputs *)
  mem : mem_stats;
}

val run :
  ?seed:int ->
  ?pool:Fhe_par.Pool.t ->
  ?sched:bool ->
  ?mem_budget:int ->
  ?key_budget:int ->
  ?spill_dir:string ->
  ?spill_fault:(int -> bool) ->
  Managed.t ->
  inputs:(string * float array) list ->
  float array array
(** Build a context/keys sized for the program, run it, and return one
    decrypted slot vector per program output.  [?sched] (default
    [true]) enables reordering + freeing + arena reuse; [?mem_budget]
    (bytes) enables ciphertext spilling and bounds switch-key
    residency; [?key_budget] overrides the key bound separately;
    [?spill_dir] overrides the private temp directory; [?spill_fault]
    is a test seam — ids for which it returns [true] lose their spilled
    entry and must recompute.
    @raise Invalid_argument if [rbits] exceeds the backend's 28-bit
    prime budget, the slot count is no power of two ≥ 2, or an input is
    missing. *)

val run_timed :
  ?seed:int ->
  ?pool:Fhe_par.Pool.t ->
  ?sched:bool ->
  ?mem_budget:int ->
  ?key_budget:int ->
  ?spill_dir:string ->
  ?spill_fault:(int -> bool) ->
  Managed.t ->
  inputs:(string * float array) list ->
  float array array * stats
(** [run] plus wall-clock phase timings, output levels, and memory
    accounting. *)

val run_with_keys :
  ?sched:bool ->
  ?mem_budget:int ->
  ?key_budget:int ->
  ?spill_dir:string ->
  ?spill_fault:(int -> bool) ->
  Keys.t ->
  Managed.t ->
  inputs:(string * float array) list ->
  float array array
(** Same, reusing existing key material (context sizes must fit).
    Budgets install onto the shared [Keys.t] and persist after the
    call. *)
