(** Randomness for key generation and encryption. *)

type t = Fhe_util.Prng.t
(** Every draw below comes from this stream in a fixed order, so a
    sampler seeded alike produces alike. *)

val create : seed:int -> t

val ternary : t -> n:int -> int array
(** Uniform coefficients in [{-1, 0, 1}] (secret keys, encryption
    randomness). *)

val sigma : float
(** The error width, σ = 3.2: the standard R-LWE choice. *)

val gaussian : t -> n:int -> ?sigma:float -> unit -> int array
(** Rounded Gaussian error coefficients (default {!sigma}): the
    per-draw stream of
    {!Fhe_util.Prng.gaussian}, filled without a call per cell. *)

val uniform_ntt : t -> Context.t -> level:int -> special:bool -> Poly.t
(** A uniformly random ring element, sampled directly in NTT form
    (valid because the NTT is a bijection per prime): row by row, chain
    rows then the special row, each cell one {!Fhe_util.Prng.int}
    draw. *)
