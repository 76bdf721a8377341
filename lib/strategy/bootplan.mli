open Fhe_ir

(** Bootstrap-insertion planning: the optimization the paper's
    conclusion says fast scale management makes practical ("many
    homomorphic optimizations repeatedly require scale management").

    Deep circuits can exceed the level budget an encryption parameter
    affords.  This planner splits a program at multiplicative-depth
    boundaries into segments that each fit the budget; every ciphertext
    crossing a cut is refreshed by a (modelled) bootstrap that restores
    it to a fresh waterline-scale ciphertext.  Cuts are chosen greedily:
    a segment grows one depth layer at a time and is compiled by
    [reserve-full] through {!Registry.compile} after every extension —
    dozens of scale-management invocations per plan, which is exactly
    why the paper's exploration-free analysis matters. *)

type plan = {
  cuts : int list;  (** multiplicative depths (from the inputs) cut after *)
  segments : Managed.t list;  (** each segment, scale-managed *)
  bootstraps : int;  (** ciphertext refreshes across all cuts *)
  total_latency_us : float;
      (** Σ segment latency + [bootstraps × bootstrap_cost_us] *)
  max_segment_level : int;
  sm_invocations : int;  (** scale-management runs the search performed *)
  sm_time_ms : float;  (** total time spent in scale management *)
}

val plan :
  ?bootstrap_cost_us:float ->
  max_level:int ->
  rbits:int ->
  wbits:int ->
  Program.t ->
  (plan, string) result
(** Plan bootstrap insertion so every segment needs at most [max_level]
    levels.  [bootstrap_cost_us] defaults to [1e6] (a CKKS bootstrap is
    on the order of seconds).  Fails if a single depth layer already
    exceeds the budget, or on scale-managed input. *)
