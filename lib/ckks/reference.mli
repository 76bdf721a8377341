(** The CKKS ring kernels before the call-free rewrite ([Rvec]
    accessors, [Modarith] and [Fhe_util.Bits] calls in the inner loops,
    automorphism through the coefficient domain, every digit lifted on
    every key-switch row) — the bit-exact oracle for {!Poly} and
    {!Evaluator.key_switch}, as {!Ntt.Reference} is for {!Ntt}.  Only
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
