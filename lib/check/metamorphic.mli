open Fhe_ir

(** Metamorphic relations over the rewrite passes.

    Every program transformation the toolchain applies — constant
    folding, CSE, DCE before scale management, and managed CSE/DCE
    after — must preserve two things: the function computed (checked by
    interpretation) and well-typedness (checked by
    {!Fhe_ir.Validator} plus the {!Invariants} reserve lemmas).  This
    harness states those relations once and applies all of them to any
    arithmetic program, so the property suite and [fhec check] exercise
    identical judgments. *)

type failure = {
  relation : string;
      (** e.g. ["constfold"], ["managed-cse"], ["optimize-then-compile"] *)
  detail : string;
}

val relations : string list
(** The relation names, in application order. *)

val check :
  ?rbits:int ->
  ?wbits:int ->
  ?xmax_bits:int ->
  Program.t ->
  inputs:(string * float array) list ->
  failure list
(** Apply every relation to an arithmetic program ([rbits] defaults to
    60, [wbits] to 25, [xmax_bits] to 0):
    - [identity], [constfold], [cse], [dce], [optimize] (all three
      composed): transformed program computes the same reference
      outputs;
    - [optimize-then-compile]: the optimized program compiled by the
      reserve pipeline still agrees with the {e original} source under
      the oracle and satisfies validator + reserve lemmas;
    - [managed-cse], [managed-dce], [managed-cse-dce]: the managed
      rewrites preserve legality, the reserve lemmas, and oracle
      agreement with the source.
    Never raises: internal exceptions become failures of their
    relation. *)

val pp_failure : Format.formatter -> failure -> unit
