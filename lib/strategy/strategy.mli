open Fhe_ir

(** The [Scale_strategy] pass interface (HEIR direction, ROADMAP item 5).

    Every scale-management compiler in the repo — the EVA forward
    waterline, the Hecate explorer, and the three reserve variants —
    is one instance of the same three-phase shape:

    {v analyze : what order / structure to work in
       annotate : per-value scale decisions (reserves, drop plans, …)
       place    : insert the scale-management ops and produce Managed.t v}

    A strategy packages those phases behind a first-class module along
    with its canonical name, accepted aliases, capability flags, and the
    cache-key recipe that makes its results addressable in
    {!Fhe_cache.Store}.  Drivers (differential, serve, bench, fhec)
    never match on compiler identity; they look strategies up in
    {!Registry} and call the uniform entry points here. *)

type caps = {
  redistributes : bool;  (** reserve redistribution (§6.3) *)
  hoists : bool;         (** rescale hoisting (§7) *)
  explores : bool;       (** stochastic plan exploration (Hecate) *)
  fallback_chain : bool;
      (** {!Registry.compile_safe} walks the fallback chain from this
          strategy; [false] compiles it plainly *)
}

type config = {
  rbits : int;            (** rescale prime bits *)
  wbits : int;            (** waterline bits *)
  xmax_bits : int;        (** output-magnitude headroom (Table 1 x_max) *)
  iterations : int option;
      (** exploration budget for strategies that explore; [None] lets
          the strategy pick its own default *)
}

val config :
  ?xmax_bits:int -> ?iterations:int -> rbits:int -> wbits:int -> unit ->
  config
(** [xmax_bits] defaults to 0, [iterations] to [None]. *)

type phases = {
  analyze_ms : float;
  annotate_ms : float;
  place_ms : float;
  total_ms : float;
}

module type SCALE_STRATEGY = sig
  val name : string
  (** Canonical name, e.g. ["reserve-full"].  The single naming scheme:
      what [fhec --compiler] accepts, what the serve protocol carries,
      what Benchjson records, what cache keys embed. *)

  val aliases : string list
  (** Accepted spellings kept for compatibility (e.g. ["reserve"] for
      the full variant). *)

  val caps : caps

  val cache_key_tag : string
  (** The [~compiler] component of {!Fhe_cache.Key.make}.  Byte-stable:
      existing on-disk stores keep hitting across the refactor. *)

  val cache_extra : config -> Program.t -> string list
  (** The [~extra] component — every knob beyond (rbits, wbits,
      xmax_bits) that can change this strategy's output. *)

  type analysis
  type annotation

  val analyze : config -> Program.t -> analysis
  val annotate : config -> Program.t -> analysis -> annotation
  val place : config -> Program.t -> annotation -> Managed.t
  (** The three passes.  [place]'s result is legal
      ({!Fhe_ir.Validator.check} passes) for strategies that validate;
      see each instance's doc.  Any phase may raise — a phase that
      collects diagnostics raises {!Reserve.Diag.Failed}; callers that
      need totality go through {!Registry.compile_safe} or catch. *)
end

type t = (module SCALE_STRATEGY)
(** A registered strategy.  First-class modules contain closures, so
    never compare strategies with polymorphic equality — compare
    {!name}s. *)

val name : t -> string
val aliases : t -> string list
val caps : t -> caps

val caps_string : caps -> string
(** Comma-joined flag names, ["-"] when none — for [--list-strategies]
    and the strategies reply. *)

val cache_key : t -> config -> Program.t -> string
(** The {!Fhe_cache.Key.make} key for compiling [p] under this strategy
    and config.  Byte-stable: the [@strategy] tier pins literal keys, so
    existing on-disk stores keep hitting. *)

val compile_uncached : t -> config -> Program.t -> Managed.t
(** Run the three phases; no {!Fhe_cache.Store} interaction. *)

val compile_with_phases : t -> config -> Program.t -> Managed.t * phases
(** Like {!compile_uncached} with per-phase wall times. *)
