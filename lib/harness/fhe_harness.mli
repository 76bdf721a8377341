open Fhe_ir

(** The app harness: the recipe of the paper's evaluation (§8) that
    [fhec], the bench driver and the tests share.  Prepare an app at a
    scale (program, inputs, the x_max measured on them), configure,
    compile and validate, run on the CKKS backend, and judge the
    decrypts against the plaintext reference.  Callers keep what really
    differs between them: exploration budgets, cold timing under
    {!Fhe_cache.Store.bypass}, output formats. *)

type scale =
  | Paper  (** [app.build] on [app.inputs]: the Table 4 programs *)
  | Exec
      (** [app.exec_build] on [app.exec_inputs]: the exec-scale variant,
          compiled at {!exec_config}'s geometry *)

type prepared = {
  prog : Program.t;
  inputs : (string * float array) list;
  xmax_bits : int;  (** x_max of [prog] measured on [inputs] *)
}

val find_app : string -> (Fhe_apps.Registry.app, string) result
(** {!Fhe_apps.Registry.find}, or a one-line error naming every app. *)

val of_program : Program.t -> inputs:(string * float array) list -> prepared

val prepare : ?seed:int -> scale -> Fhe_apps.Registry.app -> prepared
(** The app's program at [scale] on its inputs at [seed] (default 42). *)

val config :
  ?iterations:int -> rbits:int -> wbits:int -> prepared ->
  Fhe_strategy.Strategy.config

val exec_config : ?iterations:int -> prepared -> Fhe_strategy.Strategy.config
(** {!config} at [Registry.exec_rbits] / [Registry.exec_wbits]. *)

val strategy : string -> (Fhe_strategy.Strategy.t, string) result
(** {!Fhe_strategy.Registry.of_name}, or ["unknown compiler NAME"]. *)

val validated : Managed.t -> (Managed.t, string) result
(** [Ok m] when {!Validator.check} passes, else the errors, one a line. *)

val compile :
  Fhe_strategy.Strategy.t -> Fhe_strategy.Strategy.config -> Program.t ->
  (Managed.t * float, string) result
(** {!Fhe_strategy.Registry.compile} (through the store when it is
    active), then {!validated}; with the compile's wall time in ms,
    validation excluded.  Compiler exceptions propagate. *)

val compile_exn : ?iterations:int -> string -> prepared -> Managed.t
(** {!compile} of [prepared.prog] by the strategy named (as
    {!Fhe_strategy.Registry.get_exn}) at {!exec_config}.
    @raise Invalid_argument on an unknown name
    @raise Failure on an illegal plan *)

type run = {
  outputs : float array array;  (** one decrypted slot vector per output *)
  stats : Ckks.Backend.stats;
  errors : float array;  (** per output, max |decrypted - reference| *)
}

val run :
  ?pool:Fhe_par.Pool.t -> ?sched:bool -> ?mem_budget:int ->
  ?refs:float array array -> prepared -> Managed.t -> run
(** One {!Ckks.Backend.run_timed} of [m] on [prepared.inputs], judged
    against [refs] (default: the plaintext reference of
    [prepared.prog]). *)

val max_error : run -> float
(** The worst of [errors]; 0 for no outputs. *)

val with_pool : int -> (Fhe_par.Pool.t option -> 'a) -> 'a
(** [-j N]: [None] (sequential) at width 1, else a pool of [N] domains;
    [N <= 0] means the runtime's recommended domain count. *)
