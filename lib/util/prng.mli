(** Deterministic pseudo-random number generation (SplitMix64).

    The evaluation needs reproducible synthetic datasets and reproducible
    exploration (the Hecate baseline), independent of the OCaml stdlib
    [Random] state.  SplitMix64 is small, fast, and has well-understood
    statistical quality for this purpose. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** Derive an independent generator (for parallel-feeling streams). *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators up front, one per
    work item.  Because every stream is split from the root generator
    before any work is scheduled, stream [i] depends only on the seed
    and on [i] — not on which worker domain eventually consumes it —
    which is what keeps parallel generation byte-identical to
    sequential.  Advances [t] by [n] draws. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0 .. bound-1]; [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [\[lo, hi)]. *)

val gaussian : t -> float
(** Standard normal draw (Box–Muller). *)

val fill_int :
  t -> (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t -> int -> unit
(** [fill_int t row bound] sets cell [i] of [row] to the [i]-th of
    [Array1.dim row] successive [int t bound] draws, in order, and
    leaves [t] where those draws would: exactly the per-draw stream,
    without a call per cell. *)

val fill_gaussian : t -> sigma:float -> int array -> unit
(** [fill_gaussian t ~sigma a] sets [a.(i)] to
    [int_of_float (Float.round (sigma *. gaussian t))] for successive
    draws, in order, leaving [t] in the same state the per-draw loop
    would. *)

val skip : t -> int -> unit
(** [skip t k] advances [t] past [k] raw draws ([k] calls of
    {!next_int64}, {!int} or {!float}) in constant time. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
