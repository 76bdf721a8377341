open Fhe_ir

(** The process-wide content-addressed compilation cache.

    Maps a {!Key.make} key to a compiled {!Managed.t} through an
    in-memory {!Lru} and, when a cache directory is configured, the
    {!Disk} store.  The strategy registry, the differential driver, the
    fuzz harness and the bench emitters all consult one shared instance,
    so a program compiled once under a configuration is never compiled
    again — the memoization is sound because every compiler here is a
    pure function of (program, configuration), which the [@cache] test
    tier and {!Fhe_check.Invariants.check_cache_consistency} verify.

    {b Parallel safety.}  The store is shared, not sharded: the LRU is
    mutex-guarded and the counters are atomics, so domains of a
    {!Fhe_par.Pool} may hit it concurrently.  A shared store was chosen
    over per-domain shards because hits from one domain must serve every
    other (the whole point of caching a batch sweep), and the critical
    section is a hash lookup — contention is negligible next to a
    compilation.

    {b Integrity.}  Disk entries are checksummed ({!Disk}); a corrupt
    entry counts as [poisoned], is deleted, and the value is recomputed
    — never trusted.  Unmarshalled programs are additionally re-checked
    with {!Validator.check} before being served. *)

type stats = {
  hits : int;  (** served from memory or disk *)
  misses : int;
  disk_hits : int;  (** subset of [hits] that came from disk *)
  stores : int;
  poisoned : int;  (** corrupt disk entries detected (and recomputed) *)
  swept : int;
      (** orphaned temp files removed by crash recovery on store open *)
}

(** {1 Configuration} *)

val set_enabled : bool -> unit
(** Default [true] (in-memory only). *)

val enabled : unit -> bool

val set_dir : string option -> unit
(** [Some dir] also persists entries under [dir] (created on first
    write).  Default [None].  Opening a directory runs crash recovery:
    temp files orphaned by a writer killed mid-store are swept
    ({!Disk.sweep}, counted in [stats.swept]) before any lookup can
    race new writes into the directory. *)

val dir : unit -> string option

val set_capacity : int -> unit
(** Per-generation LRU capacity (entries, default 256); resets the
    in-memory cache. *)

val bypass : (unit -> 'a) -> 'a
(** Run [f] with the store invisible on the calling domain: finds miss
    without counting, adds are dropped.  Used to force a cold
    compilation (bench baselines, cache-consistency recomputation)
    without disturbing other domains. *)

val active : unit -> bool
(** [enabled] and not bypassed on this domain — whether [find]/[add]
    will actually do anything.  Callers can test this before paying for
    a digest. *)

val with_namespace : string -> (unit -> 'a) -> 'a
(** Run [f] with every [find]/[add] on the calling domain re-keyed
    into the given tenant namespace ([""] = the anonymous namespace,
    i.e. no re-keying).  The serve daemon wraps each request's compile
    in this, so keys minted deep inside the pipeline are isolated per
    tenant without threading a tenant parameter through every pass.
    Nests and restores like {!bypass}. *)

val namespace : unit -> string option
(** The calling domain's current namespace, if any. *)

val reset : unit -> unit
(** Drop every in-memory entry and zero the counters; configuration and
    disk entries are untouched. *)

(** {1 The cache} *)

val find : string -> Managed.t option

val add : string -> Managed.t -> unit

val with_managed : key:string -> (unit -> Managed.t) -> Managed.t
(** [find], or compute-and-[add]. *)

val with_managed_hit : key:string -> (unit -> Managed.t) -> Managed.t * bool
(** Same, flagging whether the value was served from the cache — the
    differential driver uses the flag to trigger the cache-consistency
    recheck. *)

val stats : unit -> stats

val pp_stats : Format.formatter -> stats -> unit
