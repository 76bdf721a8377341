open Fhe_ir

(** The differential driver: one program, every compiler.

    Compiles a source program under EVA, Hecate, and the three reserve
    pipeline variants, then holds each result to the same conformance
    bar — {!Fhe_ir.Validator} legality, the {!Invariants} reserve
    lemmas, and {!Fhe_sim.Oracle} agreement with the interpreted source.
    Because every compiler is compared against the one reference
    execution, agreement is transitive: all five managed programs
    compute the same function.  Per-compiler measurements (compile
    time, input level, consumed modulus bits, estimated latency) ride
    along for regression pinning and the perf baseline. *)

type compiler = Fhe_strategy.Strategy.t
(** A compiler is a registered scale strategy; the driver holds no
    compiler knowledge of its own.  First-class modules — compare by
    {!compiler_name}, never with polymorphic equality. *)

val all_compilers : compiler list
(** {!Fhe_strategy.Registry.all} at load time — EVA, Hecate, Ba, Ra,
    Full, the paper's five columns, in that order. *)

val compiler_name : compiler -> string
(** Canonical {!Fhe_strategy.Strategy.name}: ["eva"], ["hecate"],
    ["reserve-ba"], ["reserve-ra"], ["reserve-full"]. *)

val of_name : string -> compiler option
(** {!Fhe_strategy.Registry.of_name}: canonical names or aliases. *)

type entry = {
  compiler : compiler;
  managed : Managed.t option;  (** [None] when compilation failed *)
  compile_ms : float;
  input_level : int;  (** encryption parameter [L]; 0 on failure *)
  modulus_bits : int;  (** consumed modulus: [L * rbits] *)
  est_latency_us : float;  (** Table 3 cost-model estimate *)
  validator_errors : string list;
  lemma_violations : Invariants.violation list;
  oracle : Fhe_sim.Oracle.report option;
  crash : string option;  (** escaped exception, if any *)
}

val entry_ok : entry -> bool
(** Compiled, legal, lemma-clean, and oracle-agreeing. *)

type report = { label : string; entries : entry list }

val ok : report -> bool

val failures : report -> (string * string) list
(** [(compiler, what)] for every failed entry, in compiler order. *)

val run :
  ?pool:Fhe_par.Pool.t ->
  ?rbits:int ->
  ?wbits:int ->
  ?xmax_bits:int ->
  ?hecate_iterations:int ->
  ?compilers:compiler list ->
  ?verify_cache:bool ->
  label:string ->
  Program.t ->
  inputs:(string * float array) list ->
  report
(** Compile under each compiler (default {!all_compilers}) and check.
    Every compiler is consulted through {!Fhe_cache.Store} (when the
    cache is active); on a hit, [verify_cache] (default true) recompiles
    cold and runs {!Invariants.check_cache_consistency} — any
    disagreement surfaces as a [cache-consistency] lemma violation, so
    [fhec check] exercises cache soundness for free.
    With [pool] the compilers run in parallel; entries always come
    back in compiler order, so the report is identical at any pool
    width (modulo the measured [compile_ms]).  Don't pass a pool that
    is already running this call's caller — nested pool use is
    rejected; {!Conformance.run} parallelizes per program instead.
    [rbits] defaults to 60, [wbits] to 30, [xmax_bits] to 0.
    [hecate_iterations] (default 60) bounds the exploration so
    differential sweeps stay cheap; it does not change correctness,
    only plan quality.  Never raises: per-compiler exceptions are
    recorded in the entry. *)

val pp : Format.formatter -> report -> unit
