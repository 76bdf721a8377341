(** RNS polynomials over [Z_Q\[X\]/(X^n + 1)].

    A polynomial lives in a basis of [level] chain primes (rows
    [0..level-1]) optionally extended by the special prime (last row).
    Ciphertext polynomials are kept in NTT (evaluation) form; the few
    operations that need coefficients (rescale, key-switch
    decomposition, automorphism, decoding) convert transiently.

    Rows are {!Rvec.t} bigarray vectors (unboxed 64-bit cells).  The
    row loops call no function: they access rows with syntactic
    [Bigarray.Array1.unsafe_get]/[unsafe_set] and inline the plan's
    Shoup/Barrett constants and a branchless range fix-up, so no
    residue kernel divides — except the rare lift of a value at least
    as wide as the target prime ([of_coeff_array] on large inputs,
    [drop_last] across primes more than one bit apart), which takes
    one hardware divide per element.  When the context has a pool
    attached ({!Context.set_pool}), row work fans out across it with
    results identical to the sequential path. *)

type t = {
  level : int;
  special : bool;
  ntt : bool;
  data : Rvec.t array;  (** one row of [n] residues per basis prime *)
}

val rows : t -> int
(** [level], plus one for the special row when present. *)

val prime_index : Context.t -> t -> int -> int
(** Context prime index of row [r]: [r] itself for chain rows,
    [ctx.levels] for the special row. *)

val zero : Context.t -> level:int -> special:bool -> ntt:bool -> t

val alloc : Context.t -> level:int -> special:bool -> ntt:bool -> t
(** Like {!zero}, but the rows' contents are unspecified: for kernels
    that write every cell.  Driver-domain only, like all allocation. *)

val copy : t -> t

val release : Context.t -> t -> unit
(** Return every row to the context's arena (no-op without one).  The
    caller promises no live value still references this polynomial's
    storage — including via ciphertexts that share the record. *)

val of_coeff_array : Context.t -> level:int -> special:bool -> int array -> t
(** Lift small signed coefficients into every basis row (coeff form). *)

val of_float_coeffs : Context.t -> level:int -> float array -> t
(** Residues of integer-valued float coefficients (rounded, scaled
    embeddings) in chain rows [0..level-1], coefficient form: row [i]
    holds [x mod q_i] in [\[0, q_i)], exactly (by {!residue_of_float}'s
    rule). *)

val residue_of_float : Context.t -> float -> int -> int
(** [residue_of_float ctx x pi] is [x mod q] in [\[0, q)] for the
    integer-valued float [x] and [q] the prime at context index [pi],
    exactly: the float-to-residue rule of {!of_float_coeffs}, for one
    value. *)

val to_ntt : Context.t -> t -> t
(** No-op if already in NTT form. *)

val to_ntt_in_place : Context.t -> t -> t
(** {!to_ntt} without the copy, for a fresh polynomial nobody else
    reads: its rows are transformed in place and shared with the
    result. *)

val of_ntt : Context.t -> t -> t
(** Inverse transform; no-op if already in coefficient form. *)

val check_compat : t -> t -> unit
(** @raise Invalid_argument unless both have the same basis and form. *)

val add : Context.t -> t -> t -> t

val sub : Context.t -> t -> t -> t

val neg : Context.t -> t -> t

val mul : Context.t -> t -> t -> t
(** Pointwise product; both operands must be in NTT form with equal
    bases. *)

val mul_scalar_fn : Context.t -> t -> (int -> int) -> t
(** Multiply row [i] by [scalar_of_prime_index i] (mod that prime);
    index [levels] means the special row. *)

val add_scalar_fn : Context.t -> t -> (int -> int) -> t
(** Add [scalar_of_prime_index i] (mod that prime) to every cell of row
    [i]: a constant polynomial's contribution in NTT form, where the
    constant sits in every cell.  Index [levels] means the special
    row. *)

val drop_last : ?keep:int -> Context.t -> t -> t
(** Exact RNS division by the last basis prime with centered rounding —
    the arithmetic core of [rescale] (drops the top chain prime) and of
    the key-switch mod-down (drops the special prime).  Input in NTT
    form; output in NTT form.  [?keep] restricts the output to its
    first [keep] chain rows, fusing a following modswitch into the same
    pass (rows that would be dropped anyway are never computed). *)

val automorphism : Context.t -> t -> g:int -> t
(** Apply the Galois map [X ↦ X^g] ([g] odd, mod [2n]); any form, result
    in the same form as the input.  In NTT form this is a pure index
    permutation of each row (no transforms): {!galois_index}. *)

val galois_index : Context.t -> g:int -> Rvec.t
(** The NTT-domain gather of [X ↦ X^g]: cell [i] of the image of an
    NTT-form row is cell [idx.{i}] of the input, where [idx] is the
    result, that is [bitrev (((2·bitrev i + 1)·g mod 2n) / 2)].  The row
    comes from the context's arena (driver domain only); give it back
    with {!Context.release_row}. *)

val equal_basis : t -> t -> bool

val restrict : Context.t -> t -> level:int -> special:bool -> t
(** Keep only the first [level] chain rows (and the special row if
    requested): reduction mod a smaller modulus, which in RNS is just
    dropping rows.  @raise Invalid_argument when growing the basis. *)

val guard : Context.t -> string -> t list -> unit
(** [guard ctx what polys] checks, in the bounds-checked debug mode
    ({!Rvec.checked}) only, that every row of [polys] has [n] cells —
    the one condition the unchecked row loops rely on.  Raises
    [Invalid_argument] naming [what] otherwise. *)
