open Fhe_ir

(** LeNet-5 inference (Lenet-5 on MNIST shapes, Lenet-C on CIFAR-10
    shapes): Conv(5×5,6) → x² → AvgPool → Conv(5×5,16) → x² → AvgPool →
    FC120 → x² → FC84 → x² → FC10.

    Packing: one ciphertext per input channel; convolutions use shared
    shifted-window rotations with scalar weights; pooling is strided
    (no repacking — later layers use dilated rotations); a one-hot
    masked flatten compacts the strided feature maps into one packed
    vector for the packed dense layers.  Roughly 10k ops at depth ~13,
    the scale the paper's Lenet rows exercise.

    Both the full network and the exec miniature are described once as
    an {!Fhe_tensor.Graph}.  Each is lowered under the packing the
    layout search picks at its own slot count: the full network under
    {!plan} ([bsgs], digest-identical to the historical hand-built
    emission), the miniature under {!exec_plan} ([diag]). *)

type variant = Mnist | Cifar

val plan : Fhe_tensor.Layout.plan
(** The compile-scale pin, used by {!build}: [bsgs]. *)

val exec_plan : Fhe_tensor.Layout.plan
(** The exec-scale pin, used by {!build_small}: [diag] (mult depth 11
    against [bsgs]'s 13 at 512 slots). *)

val graph : ?n_slots:int -> ?seed:int -> variant -> Fhe_tensor.Graph.t
(** The full network as a tensor graph. *)

val build : ?n_slots:int -> ?seed:int -> variant -> Program.t
(** Inputs: ["ch0"] (and ["ch1"], ["ch2"] for [Cifar]). *)

val inputs : seed:int -> variant -> (string * float array) list

val data : seed:int -> variant -> (string * float array array) list
(** The same pixels as {!inputs}, keyed by the image-input prefix for
    {!Fhe_tensor.Lower.pack_inputs}/[reference]. *)

val small_width : int
(** Image width of the exec-tier miniature (8). *)

val graph_small : ?n_slots:int -> ?seed:int -> variant -> Fhe_tensor.Graph.t

val build_small : ?n_slots:int -> ?seed:int -> variant -> Program.t
(** Exec-tier miniature: the same conv → x² → pool → conv → x² → pool →
    flatten → dense structure on an 8×8 image with 2 channels per conv
    stage, sized so a real encrypted run (Ckks.Backend) completes in
    milliseconds, lowered under {!exec_plan}.  Inputs as {!build}. *)

val inputs_small : seed:int -> variant -> (string * float array) list

val data_small : seed:int -> variant -> (string * float array array) list
