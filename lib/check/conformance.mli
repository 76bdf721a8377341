(** The conformance subsystem's front door ([fhec check]).

    Pushes a set of programs — the eight registry applications and/or a
    coverage-guided generated batch — through the {!Differential}
    driver and the {!Metamorphic} harness, and aggregates violations by
    kind.  A clean run is the executable form of the paper's
    correctness claim: every compiler's output type-checks under both
    judgments and computes the source function on every program we can
    construct. *)

type kind = Semantic | Typing | Metamorphic_ | Crash

type failure = {
  subject : string;  (** app name or generated-program tag *)
  compiler : string;  (** compiler label, or ["-"] for source rewrites *)
  kind : kind;
  detail : string;
}

type summary = {
  programs : int;  (** programs checked *)
  compilations : int;  (** (program, compiler) pairs compiled *)
  failures : failure list;
  coverage : int;  (** feature-coverage cardinality of the batch *)
  corpus : int;  (** generated candidates that added coverage *)
}

val ok : summary -> bool

val kind_name : kind -> string

val run :
  ?pool:Fhe_par.Pool.t ->
  ?rbits:int ->
  ?wbits:int ->
  ?hecate_iterations:int ->
  ?apps:bool ->
  ?gen:int ->
  ?seed:int ->
  ?progress:(string -> unit) ->
  unit ->
  summary
(** [run ()] checks the registry apps when [apps] (default true) and
    [gen] (default 0) coverage-guided generated programs seeded by
    [seed] (default 1).  [wbits] defaults to 30, [rbits] to 60;
    [hecate_iterations] (default 60) bounds exploration per program.
    Apps use their registry datasets and measured [x_max] headroom;
    generated programs use their synthetic inputs.  [progress] (e.g.
    [print_endline]) is called once per program with a one-line
    status.  Never raises.

    With [pool] the per-program checks run in parallel.  Generation
    stays sequential (the coverage bandit is stateful) and results are
    folded in submission order, so the summary, the failure list, and
    the progress lines are byte-identical at every pool width. *)

val pp_failure : Format.formatter -> failure -> unit

val pp : Format.formatter -> summary -> unit
(** Multi-line human summary, failures first. *)
