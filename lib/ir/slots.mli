(** Plaintext slot vectors: the reference meaning of the slot-level
    operations, shared by every executor ({!Fhe_sim.Interp} and the
    CKKS backend's plaintext path) so they cannot drift apart. *)

val pad : int -> float array -> float array
(** [pad n a] is a fresh length-[n] copy of [a], zero-extended.
    @raise Invalid_argument if [a] is longer than [n]. *)

val rotl : float array -> int -> float array
(** [rotl a k] rotates left by [k] slots: slot [i] of the result is
    [a.((i + k) mod n)], for any [k], negative or beyond [n]. *)
