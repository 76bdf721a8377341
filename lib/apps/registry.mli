open Fhe_ir

(** The benchmark registry: the eight applications of the paper's
    evaluation (§8), by their Table 4 short names. *)

type app = {
  name : string;  (** short name: SF, HCD, LR, MR, PR, MLP, Lenet-5, Lenet-C *)
  description : string;
  build : unit -> Program.t;
  inputs : seed:int -> (string * float array) list;
  exec_build : unit -> Program.t;
      (** the exec-scale variant: same circuit structure, shrunk data
          (16×16 images, 256 regression samples, miniature LeNet) so a
          real encrypted run on {!Ckks.Backend} stays in CI budget *)
  exec_inputs : seed:int -> (string * float array) list;
  exec_tol : float;
      (** pinned max|err| bound for the exec variant compiled at
          {!exec_rbits} / {!exec_wbits} (measured error with ~8×
          headroom) *)
}

val exec_rbits : int
(** 28: the rescaling factor, in bits, the exec tier compiles at. *)

val exec_wbits : int
(** 22: the waterline, in bits, the exec tier compiles at. *)

val all : app list
(** In the paper's order: SF, HCD, LR, MR, PR, MLP, Lenet-5, Lenet-C. *)

val small : app list
(** The six non-LeNet apps (used where LeNet-scale runs are too slow). *)

val tensor : app list
(** Apps the tensor frontend adds beyond the paper's eight (MLP-W,
    MLP-B).  Kept separate from {!all} so tiers pinned to the paper's
    app set are untouched. *)

val find : string -> app
(** Case-insensitive lookup over {!all} and {!tensor}. @raise Not_found. *)
