open Fhe_ir

(** Structured compiler diagnostics.

    The pass stack historically enforced its invariants by aborting
    ([failwith]/[invalid_arg]/[assert]); a production service compiling
    untrusted programs must instead degrade gracefully.  Every pass entry
    point that can fail has a [_safe] variant returning
    [('a, Diag.t list) result] (the {!pass_result} convention); the
    original exception-raising entry points remain as thin wrappers for
    callers that prefer to crash. *)

type severity = Error | Warning | Info

type pass =
  | Parse
  | Ordering
  | Allocation
  | Placement
  | Validation
  | Oracle  (** the differential-execution self check *)
  | Driver  (** the fallback-chain driver itself *)
  | Serve  (** the compile daemon: admission, deadlines, transport *)

type t = {
  severity : severity;
  pass : pass;  (** originating pass *)
  op : Op.id option;  (** offending op, when one can be named *)
  msg : string;
  hint : string option;  (** actionable suggestion, when one exists *)
}

type 'a pass_result = ('a, t list) result
(** The pass-result convention: [Ok x], or every problem found. *)

exception Failed of t list
(** A failed pass's diagnostics, raised where a {!pass_result} must
    become an exception (the reserve strategy phases); the fallback
    driver catches it and keeps the diagnostics. *)

val ok_exn : 'a pass_result -> 'a
(** [Ok x] is [x]; [Error ds] raises [Failed ds]. *)

val make : ?severity:severity -> ?op:Op.id -> ?hint:string -> pass -> string -> t
(** [make pass msg] builds a diagnostic; [severity] defaults to [Error]. *)

val errorf :
  ?op:Op.id -> ?hint:string -> pass -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [errorf pass fmt ...] — an [Error] diagnostic with a formatted message. *)

val warnf :
  ?op:Op.id -> ?hint:string -> pass -> ('a, Format.formatter, unit, t) format4 -> 'a

val of_validator_error : ?severity:severity -> Validator.error -> t
(** Lift a legality-checker error ([pass = Validation], op preserved). *)

val of_parse_error : Parser.error -> t
(** Lift a typed parse error ([pass = Parse]; the line number lands in
    the message since parse errors precede op ids). *)

val of_exn : pass -> exn -> t
(** Demote an escaped exception ([Failure], [Invalid_argument],
    [Assert_failure], ...) to an [Error] diagnostic, with a hint that an
    internal invariant was violated. *)

val is_error : t -> bool

val errors : t list -> t list
(** The [Error]-severity subset, in order. *)

val pass_name : pass -> string

val severity_name : severity -> string

val pp : Format.formatter -> t -> unit
(** Renders ["error\[allocation\] op %12: message (hint: ...)"]. *)

val pp_list : Format.formatter -> t list -> unit
(** One diagnostic per line. *)

val to_string : t -> string
