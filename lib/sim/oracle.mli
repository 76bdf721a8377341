open Fhe_ir

(** The semantic-equivalence oracle: the one place that judges computed
    outputs against the plaintext reference.

    A scale-management compiler may only change {e bookkeeping}: the
    managed program must compute the same function as its arithmetic
    source, up to the worst-case noise bound the simulator propagates
    ({!Interp}).  This module packages that check as a reusable
    judgment: interpret both programs on deterministic plaintext
    vectors and compare slot by slot against the per-output bound from
    {!Noise}, plus a small relative slack for floating-point
    re-association.  The resilient driver's self-check
    ([Fhe_strategy.Registry.compile_safe]), the conformance harness,
    [fhec run] and every decrypted-error report go through it. *)

type mismatch = {
  output : int;  (** output index *)
  slot : int;
  got : float;  (** managed-program value *)
  expected : float;  (** reference value *)
  bound : float;  (** tolerance that was exceeded *)
}

type report = {
  mismatches : mismatch list;  (** in (output, slot) order; [] = agree *)
  outputs : int;  (** outputs compared *)
  slots : int;  (** slots per output *)
  max_abs_error : float;  (** worst observed |got - expected| *)
  worst_bound : float;  (** largest tolerance granted to any slot *)
}

val ok : report -> bool
(** No mismatches. *)

val synth_inputs : Program.t -> (string * float array) list
(** Deterministic vectors in [[-1, 1)], one per distinct input name
    (cipher and plain), in op order, drawn from one fixed seed.  Each
    is [min n_slots 64] long; the interpreter zero-pads the rest.  Use
    when a program has no natural dataset (generated programs, parsed
    files, the driver's self-check). *)

val check :
  Program.t -> Managed.t -> inputs:(string * float array) list -> report
(** [check src m ~inputs] interprets [src] exactly and [m] under the
    default noise model and compares: [judge ~refs:(reference of src)
    (run of m)].
    @raise Invalid_argument if the programs disagree on output count or
    an input vector is missing/too long (caller bugs, not compiler
    bugs). *)

val judge : refs:float array array -> Interp.value array -> report
(** Compare already-computed outputs against the reference.  A slot
    passes when [|got - expected| <= err + 1e-9 * (1 + |expected|)],
    [err] being its output's propagated noise bound ([0] gives an
    exact comparison up to the slack).
    @raise Invalid_argument on an output count mismatch. *)

val output_errors : float array array -> float array array -> float array
(** [output_errors refs got]: the max [|got - expected|] of each output
    of [got] (e.g. a decryption), over its slots; [0] for an empty
    output. *)

val pp_mismatch : Format.formatter -> mismatch -> unit

val pp : Format.formatter -> report -> unit
