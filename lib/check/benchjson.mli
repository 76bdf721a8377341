(** The machine-readable perf baseline ([BENCH_compile.json]).

    One flat record per (app, compiler): compile time, consumed modulus
    (the encryption parameter [L] and [L·rbits] bits), and the Table 3
    latency estimate.  The emitter, a dependency-free JSON parser, and
    the gate comparator live together so the schema has exactly one
    owner: `bench json` writes the file, `bench gate` re-measures and
    diffs against it, and future PRs inherit a mechanical regression
    check instead of eyeballing tables. *)

(** {1 A minimal JSON tree} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact, valid JSON; strings are escaped. *)

val parse : string -> (json, string) result
(** Strict little parser (objects, arrays, strings with the common
    escapes, numbers, [true]/[false]/[null]); [Error] carries the
    offending position. *)

val member : string -> json -> json option
(** Field lookup on an [Obj]. *)

(** {1 The bench-compile schema} *)

val schema : string
(** ["fhe-bench-compile/v7"]. *)

val schema_v6 : string
(** ["fhe-bench-compile/v6"]: the pre-memory-accounting schema, still
    accepted by {!run_of_json}. *)

val schema_v5 : string
(** ["fhe-bench-compile/v5"]: the pre-portfolio schema, still accepted
    by {!run_of_json}. *)

val schema_v4 : string
(** ["fhe-bench-compile/v4"]: the pre-exec schema, still accepted by
    {!run_of_json}. *)

val schema_v3 : string
(** ["fhe-bench-compile/v3"]: the pre-serve schema, still accepted by
    {!run_of_json}. *)

val schema_v2 : string
(** ["fhe-bench-compile/v2"]: the pre-cache schema, still accepted by
    {!run_of_json}. *)

val schema_v1 : string
(** ["fhe-bench-compile/v1"]: the pre-multicore schema, still
    accepted by {!run_of_json}. *)

type exec_stats = {
  exec_ms : float;
      (** measured encrypt + eval + decrypt wall time on the real CKKS
          backend (keygen excluded: it is per-context, not per-run) *)
  encrypt_ms : float;
  eval_ms : float;
  decrypt_ms : float;
  keygen_ms : float;
  max_err : float;
      (** max |decrypted - reference| over all output slots, against
          the plaintext interpreter on the same seeded inputs *)
  peak_ct_bytes : int;
      (** measured peak live ciphertext bytes under the scheduler (v7;
          0 = not measured).  Deterministic: a byte count, not a wall
          clock. *)
  order_ct_bytes : int;
      (** analytic peak of program-order execution with freeing — the
          scheduler's "before" number (v7) *)
  resident_ct_bytes : int;
      (** analytic no-freeing total ciphertext bytes (v7) *)
  peak_key_bytes : int;
      (** high-water resident switch-key bytes (v7) *)
}
(** The [bench exec] measured-runtime snapshot (v5, memory accounting
    since v7), taken on the exec-scale variant of each app. *)

type measurement = {
  app : string;
  compiler : string;  (** {!Differential.compiler_name} label *)
  compile_ms : float;  (** cold: measured under a bypassed cache *)
  warm_compile_ms : float;
      (** the same compile served from the content-addressed cache,
          including digest/key cost (v3; 0 = not measured) *)
  input_level : int;
  modulus_bits : int;
  est_latency_us : float;
  exec : exec_stats option;  (** v5; [None] in compile-only runs *)
}

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
  cache_poisoned : int;
}
(** {!Fhe_cache.Store} counters over the measurement batch (v3). *)

val no_cache_stats : cache_stats

type serve_stats = {
  serve_requests : int;  (** requests issued by the load generator *)
  serve_qps : float;  (** completed (ok + degraded) per second *)
  serve_p50_ms : float;  (** warm-cache served-compile latency *)
  serve_p99_ms : float;
  serve_shed : int;  (** admission-control refusals during the run *)
  serve_timeouts : int;  (** deadline-budget expiries *)
  serve_degraded : int;  (** fallback-chain replies *)
}
(** The [bench serve] load-test snapshot (v4). *)

type portfolio_entry = {
  p_app : string;
  p_winner : string;  (** canonical strategy name of the best leg *)
  p_win_est_latency_us : float;
  p_legs : (string * float) list;
      (** every successful leg's est latency, in registry order *)
}

type portfolio_stats = {
  p_strategies : string list;  (** names raced, in registry order *)
  p_wins : (string * int) list;  (** per-strategy win counts *)
  p_entries : portfolio_entry list;
}
(** The [bench portfolio] snapshot (v6): deterministic cost-model
    numbers only, so the file byte-compares across pool widths. *)

type run = {
  rbits : int;
  wbits : int;
  domains : int;  (** pool width the run was measured at (v2; v1 = 1) *)
  wall_time_par : float;
      (** wall time (ms) of the whole measurement batch at that width
          (v2; v1 = 0) *)
  cache : cache_stats;  (** v3; zeros for v1/v2 files *)
  serve : serve_stats option;  (** v4; [None] in older files and in
                                   runs measured without a daemon *)
  portfolio : portfolio_stats option;
      (** v6; [None] in older files and in runs that never raced the
          strategies *)
  entries : measurement list;
}

val run_to_json : run -> json
(** Emits the {!schema} (v7) format; an absent block is [null]. *)

val run_of_json : json -> (run, string) result
(** Accepts v7 through v1 files (v1 defaults [domains] to 1 and
    [wall_time_par] to 0; pre-v3 files get zeroed cache stats and
    [warm_compile_ms]; pre-v4 files get [serve = None]; pre-v5 files
    get [exec = None] on every entry; pre-v6 files get
    [portfolio = None]; pre-v7 files read every memory byte count as
    0, "not measured"); rejects malformed entries, and unknown schemas
    with a message naming {!schema} and asking for a re-run of
    [bench json]. *)

val compare_runs :
  ?time_slack:float ->
  ?latency_slack:float ->
  ?exec_slack:float ->
  ?err_slack:float ->
  ?mem_slack:float ->
  baseline:run ->
  current:run ->
  unit ->
  string list
(** The perf gate: one message per regression, [] = gate passes.
    Checked per (app, compiler) pair of the baseline:
    - the pair must still exist;
    - [modulus_bits] must not grow at all (consumed modulus is exact);
    - [est_latency_us] must stay within [1 + latency_slack]
      (default 0.10) of the baseline;
    - [compile_ms] must stay within [time_slack] (default 3.0, wall
      clocks are noisy) times the baseline;
    - a measured [warm_compile_ms] (> 0) must not exceed the cold
      baseline [compile_ms] (with 0.05 ms of grace for timer jitter):
      the cache must never make a compile slower than compiling;
    - when the baseline entry carries [exec] stats, the current entry
      must too, its [exec_ms] must stay within [exec_slack] (default
      1.75) times the baseline, and its [max_err] within [err_slack]
      (default 4.0) times the baseline (floored at 1e-9 absolute so
      exact baselines don't gate on noise);
    - baseline [peak_ct_bytes] / [peak_key_bytes] > 0 demand the
      current values stay within [mem_slack] (default 1.10, tight
      because byte counts are deterministic) times the baseline. *)
