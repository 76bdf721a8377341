(* Spans and counters of one benchmark run, kept in memory and written
   at exit as Chrome trace-event JSON (opens in Perfetto or
   chrome://tracing).  Spans are recorded by the benchmark around its
   calls into each layer's public functions; the per-layer metrics are
   aggregates over them.  A trace created with [~on:false] runs the
   same code and records nothing. *)

module J = Fhe_check.Benchjson

type span = {
  id : int;
  name : string;  (** layer call, e.g. "evaluator.rotate" *)
  req : int;  (** request index; -1 during set-up *)
  parent : int;  (** id of the enclosing span; -1 for none *)
  kind : string;  (** app or op detail *)
  level : int;  (** ciphertext level the call ran at; 0 when none *)
  t0 : int64;
  t1 : int64;
}

type counter = { c_name : string; c_req : int; value : float; at : int64 }

type t = {
  on : bool;
  origin : int64;
  mutable next : int;
  mutable spans : span list;
  mutable counters : counter list;
}

let create ~on =
  { on; origin = Fhe_util.Timer.now_ns (); next = 0; spans = []; counters = [] }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(* a span timed by the caller *)
let add t ?(req = -1) ?(parent = -1) ?(kind = "") ?(level = 0) name ~t0 ~t1 =
  let id = fresh_id t in
  if t.on then
    t.spans <- { id; name; req; parent; kind; level; t0; t1 } :: t.spans

(* [span t name f] runs [f id]; [id] is this span's id, the parent of
   spans recorded inside it. *)
let span t ?(req = -1) ?(parent = -1) ?(kind = "") ?(level = 0) name f =
  let id = fresh_id t in
  let t0 = Fhe_util.Timer.now_ns () in
  let r = f id in
  let t1 = Fhe_util.Timer.now_ns () in
  if t.on then
    t.spans <- { id; name; req; parent; kind; level; t0; t1 } :: t.spans;
  r

let count t ~req name value =
  if t.on then
    t.counters <-
      { c_name = name; c_req = req; value; at = Fhe_util.Timer.now_ns () }
      :: t.counters

let ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6

let spans t = List.rev t.spans

let counters t = List.rev t.counters

(* Whole microseconds since the trace began: Benchjson prints integers
   exactly, where fractional values would lose digits. *)
let to_json t =
  let us x = Float.round (Int64.to_float (Int64.sub x t.origin) /. 1e3) in
  let num i = J.Num (float_of_int i) in
  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let span_event s =
    J.Obj
      [ ("name", J.Str s.name); ("cat", J.Str (layer s.name));
        ("ph", J.Str "X"); ("ts", J.Num (us s.t0));
        ("dur", J.Num (us s.t1 -. us s.t0)); ("pid", num 1); ("tid", num 1);
        ( "args",
          J.Obj
            [ ("id", num s.id); ("req", num s.req); ("parent", num s.parent);
              ("kind", J.Str s.kind); ("level", num s.level) ] ) ]
  in
  let counter_event c =
    J.Obj
      [ ("name", J.Str c.c_name); ("cat", J.Str (layer c.c_name));
        ("ph", J.Str "C"); ("ts", J.Num (us c.at)); ("pid", num 1);
        ("args", J.Obj [ ("value", J.Num c.value); ("req", num c.c_req) ]) ]
  in
  J.Obj
    [ ( "traceEvents",
        J.Arr
          (List.map span_event (spans t) @ List.map counter_event (counters t))
      );
      ("displayTimeUnit", J.Str "ms") ]

let write t path =
  let oc = open_out_bin path in
  output_string oc (J.to_string (to_json t));
  output_char oc '\n';
  close_out oc
