(** Arithmetic modulo word-sized primes.

    All moduli in this backend are NTT-friendly primes below [2^30], so
    products of two residues fit comfortably in OCaml's 63-bit native
    integers — no 128-bit emulation needed (this is why the backend uses
    ~28-bit prime chains instead of SEAL's 60-bit ones; see DESIGN.md). *)

val max_modulus_bits : int
(** 30: moduli must be below [2^30]. *)

val add : int -> int -> m:int -> int

val sub : int -> int -> m:int -> int

val mul : int -> int -> m:int -> int

val neg : int -> m:int -> int

val pow : int -> int -> m:int -> int
(** [pow b e ~m] with [e >= 0], by square-and-multiply. *)

val inv : int -> m:int -> int
(** Inverse modulo a prime [m] (Fermat). @raise Invalid_argument on 0. *)

val center : int -> m:int -> int
(** Map a residue to its centered representative in
    [(-m/2, m/2\]]. *)

(** {1 Division-free reductions}

    The NTT and keyswitch inner loops cannot afford a hardware divide
    per butterfly.  Shoup multiplication handles constants known ahead
    of the loop (twiddles, scalars); Barrett reduction handles products
    of two variable residues. *)

val shoup_shift : int
(** 31: the fixed-point shift used by the Shoup precomputation. *)

val shoup : int -> m:int -> int
(** [shoup w ~m] precomputes [floor (w * 2^31 / m)] for use with
    {!mul_shoup} / {!mul_shoup_lazy}. Requires [w < m < 2^30]. *)

val mul_shoup_lazy : int -> int -> int -> m:int -> int
(** [mul_shoup_lazy a w wp ~m] = a value congruent to [a*w mod m] in
    [[0, 2m)], for any [a < 2^31] and [wp = shoup w ~m].  One
    high-multiply, no division; used inside the lazy NTT butterflies. *)

val mul_shoup : int -> int -> int -> m:int -> int
(** Like {!mul_shoup_lazy} but canonical: result in [[0, m)]. *)

module Barrett : sig
  type t = private { p : int; mu : int; s1 : int; s2 : int }
  (** Precomputed constants for one modulus: [mu = floor (2^2k / p)],
      [s1 = k - 1], [s2 = k + 1] for [k] the bit length of [p].  The
      fields are readable so hot loops can inline {!reduce} at the use
      site (without flambda, a cross-module call never inlines). *)

  val make : int -> t
  (** @raise Invalid_argument if the modulus is not in [[2, 2^30)]. *)

  val modulus : t -> int

  val reduce : t -> int -> int
  (** [reduce t x] = [x mod p] for any [x < p^2], canonical. *)

  val mul : t -> int -> int -> int
  (** [mul t a b] = [a * b mod p] for residues [a, b < p]. *)
end
