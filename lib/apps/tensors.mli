module T = Fhe_tensor

(** The tensor-frontend catalog: registry apps whose circuits are
    generated from a {!Fhe_tensor.Graph}, with one pinned packing plan
    per scale and the logical tensor data that feeds layout search,
    {!T.Lower.reference} and {!T.Lower.pack_inputs}.  Drives
    [fhec tensor], the bench tensor section and the @tensor tier. *)

type entry = {
  name : string;
  description : string;
  graph : unit -> T.Graph.t;  (** compile-tier graph (16384 slots) *)
  plan : T.Layout.plan;
      (** the compile-scale packing pin: what the compile-tier build
          lowers under, the layout search's winner on [graph] — except
          MLP's, pinned to [diag] for its historical digest *)
  data : seed:int -> (string * float array array) list;
      (** logical tensor data (per input: batch × dim user rows, or
          channels × width² planes) at compile-tier geometry *)
  exec_graph : unit -> T.Graph.t;  (** exec-scale graph (shrunk data) *)
  exec_plan : T.Layout.plan;
      (** the exec-scale packing pin: what the exec-tier build lowers
          under, the search's winner on [exec_graph] at
          {!Registry.exec_rbits} / {!Registry.exec_wbits} — except
          MLP's, pinned to [diag] for its depth (6 against [bsgs]'s 9) *)
  exec_data : seed:int -> (string * float array array) list;
}

val all : entry list
(** MLP, MLP-W, MLP-B, Lenet-5, Lenet-C. *)

val find : string -> entry
(** Case-insensitive lookup. @raise Not_found. *)
