(** The CKKS ring kernels before the call-free rewrite ([Rvec]
    accessors, [Modarith] and [Fhe_util.Bits] calls in the inner loops,
    automorphism through the coefficient domain, every digit lifted on
    every key-switch row, one [Prng] call per sampled cell, six
    temporary polynomials per switch-key digit) — the bit-exact oracle
    for {!Poly}, {!Evaluator.key_switch}, {!Sampler} and
    {!Keys.make_switch_key}, as {!Ntt.Reference} is for {!Ntt}.  Only
    the test tier links this module. *)

module Poly : sig
  type t = Poly.t

  val of_coeff_array : Context.t -> level:int -> special:bool -> int array -> t

  val of_float_coeffs : Context.t -> level:int -> float array -> t

  val add : Context.t -> t -> t -> t

  val sub : Context.t -> t -> t -> t

  val mul : Context.t -> t -> t -> t

  val neg : Context.t -> t -> t

  val mul_scalar_fn : Context.t -> t -> (int -> int) -> t

  val drop_last : ?keep:int -> Context.t -> t -> t

  val automorphism : Context.t -> t -> g:int -> t
end

module Evaluator : sig
  val key_switch : Keys.t -> Poly.t -> Keys.switch_key -> Poly.t * Poly.t
end

module Sampler : sig
  val gaussian : Sampler.t -> n:int -> ?sigma:float -> unit -> int array

  val uniform_ntt :
    Sampler.t -> Context.t -> level:int -> special:bool -> Poly.t
end

module Keys : sig
  val make_switch_key :
    Context.t -> Fhe_util.Prng.t -> s:Poly.t -> target:Poly.t -> Keys.switch_key
  (** The full-chain key, every digit over the whole basis. *)
end
