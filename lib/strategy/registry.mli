open Fhe_ir

(** The strategy registry: the one place that knows which scale
    strategies exist, and the only way to compile.

    The five built-ins are registered at load time, in the canonical
    driver order ([eva; hecate; reserve-ba; reserve-ra; reserve-full])
    that pins the differential report and Benchjson entry ordering.
    Adding strategy number six is {!register} — every driver (fhec,
    serve, bench, differential, portfolio) picks it up from here. *)

val all : unit -> Strategy.t list
(** Registration order; the five built-ins first. *)

val names : unit -> string list

val of_name : string -> Strategy.t option
(** Case-insensitive lookup by canonical name or alias.  ["portfolio"]
    is a compilation {e mode}, not a strategy, and is not found here. *)

val get_exn : string -> Strategy.t
(** @raise Invalid_argument on unknown name. *)

val register : Strategy.t -> unit
(** Append a strategy.  @raise Invalid_argument if its name or any
    alias collides with an already-registered spelling. *)

val compile_uncached : Strategy.t -> Strategy.config -> Program.t -> Managed.t
(** The raw three-phase compile; no cache interaction. *)

val compile_hit : Strategy.t -> Strategy.config -> Program.t -> Managed.t * bool
(** Compile through {!Fhe_cache.Store} when it is active: hits return
    the stored plan, misses compile under [Store.bypass] (so nested
    lookups see a genuinely cold store) and persist the result.  The
    flag is [true] on a cache hit.  With the store inactive this is
    {!compile_uncached}. *)

val compile : Strategy.t -> Strategy.config -> Program.t -> Managed.t
(** [compile s cfg p = fst (compile_hit s cfg p)]. *)

(** {1 Resilient driver}

    {!compile} raises on the first internal failure — right for a
    compiler bug hunt, wrong for a service compiling untrusted programs.
    {!compile_safe} instead validates every result, self-checks it
    against the reference execution ({!Fhe_sim.Oracle.check}), and on
    any failure walks one fallback chain of strategy names:
    [reserve-full → reserve-ra → reserve-ba → eva], starting at the
    requested strategy, then EVA at the waterline lowered by 5 and by
    10 bits.  Every link is cached under its {!Strategy.cache_key}, and
    every failure is kept as structured {!Reserve.Diag.t}
    diagnostics. *)

type attempt = {
  strategy : string;  (** canonical name of the strategy tried *)
  wbits : int;  (** waterline this attempt ran at *)
  diags : Reserve.Diag.t list;  (** why it failed *)
}

type outcome = {
  managed : Managed.t;  (** the compiled, validated program *)
  strategy : string;  (** canonical name of the strategy that produced it *)
  wbits : int;  (** the waterline it was compiled at *)
  fallbacks : attempt list;
      (** failed attempts preceding success, in chain order; empty when
          the requested configuration succeeded *)
  warnings : Reserve.Diag.t list;  (** degradation notices *)
}

val chain : string list
(** [["reserve-full"; "reserve-ra"; "reserve-ba"; "eva"]]. *)

val attempt_diags : attempt list -> Reserve.Diag.t list
(** All diagnostics of a (failed) chain, flattened in chain order. *)

val compile_safe :
  Strategy.t -> Strategy.config -> strict:bool -> oracle:bool ->
  ?oracle_inputs:(string * float array) list -> Program.t ->
  (outcome, attempt list) result
(** For a strategy whose [caps.fallback_chain] is set (the reserve
    variants), never raises.  [strict] attempts only the requested
    configuration; otherwise the chain runs from [s] (a registered
    strategy off the built-in chain degrades straight to EVA), at most
    [3 + 1 + 2] attempts.  [oracle] runs the self-check on
    [oracle_inputs] ({!Fhe_sim.Oracle.synth_inputs} when omitted); its
    first mismatch becomes the link's one [Oracle] diagnostic.
    [Error attempts] means every link failed.

    Any other strategy is compiled plainly by {!compile}: no
    validation, no oracle, and its exceptions propagate. *)
