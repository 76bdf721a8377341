module T = Fhe_tensor

type variant = Mnist | Cifar

let geometry = function
  | Mnist -> (28, 1) (* width/height, input channels *)
  | Cifar -> (32, 3)

let next_pow2 n =
  let rec go k = if k >= n then k else go (2 * k) in
  go 1

let dense_matrix ~seed ~dim ~rows =
  let fan = float_of_int dim in
  let m = Data.matrix ~seed ~rows:dim ~cols:dim in
  Array.mapi
    (fun r row ->
      if r < rows then Array.map (fun w -> 2.0 *. w /. sqrt fan) row
      else Array.map (fun _ -> 0.0) row)
    m

(* Per-conv-layer weights, drawn lazily in emission order and memoized
   so every lowering of the same graph sees identical values. *)
let conv_weights ~seed layer =
  let g = Fhe_util.Prng.create (seed + layer) in
  let tbl = Hashtbl.create 64 in
  fun oc ic dy dx ->
    let key = (oc, ic, dy, dx) in
    match Hashtbl.find_opt tbl key with
    | Some w -> w
    | None ->
        let w = Fhe_util.Prng.uniform g ~lo:(-1.0) ~hi:1.0 /. 25.0 in
        Hashtbl.replace tbl key w;
        w

(* The full network and the exec-tier miniature share everything but
   their geometry: conv → x² → pool twice, masked flatten, then a dense
   head with square activations between (not after) the layers.  [head]
   gives the row count of each dense layer; each layer's matrix dim is
   the padded width of what feeds it (the flatten for the first, the
   previous layer's padded rows after).  One graph emitter keeps the
   two variants' op streams structurally in lockstep — the compile-tier
   digests pin the full network, the exec tier runs the miniature. *)
let graph_of ~n_slots ~width ~in_channels ~seed ~out_channels:(oc1, oc2) ~head
    () =
  let g = T.Graph.create ~n_slots () in
  let x = T.Graph.input_img g ~prefix:"ch" ~channels:in_channels ~width () in
  (* Conv1 -> x^2 -> AvgPool *)
  let c1 =
    T.Graph.conv2d g ~out_channels:oc1 ~ksize:5
      ~weights:(conv_weights ~seed 1) x
  in
  let p1 = T.Graph.pool_avg g (T.Graph.square g c1) in
  (* Conv2 -> x^2 -> AvgPool (stride doubled by pool1) *)
  let c2 =
    T.Graph.conv2d g ~out_channels:oc2 ~ksize:5
      ~weights:(conv_weights ~seed 2) p1
  in
  let p2 = T.Graph.pool_avg g (T.Graph.square g c2) in
  (* Flatten (stride now 4) and dense head *)
  let flat = T.Graph.flatten g p2 in
  let feat = T.Graph.dim g flat in
  let rec dense x ~dim ~layer = function
    | [] -> x
    | rows :: rest -> (
        let fc =
          T.Graph.dense g ~rows
            ~mat:(dense_matrix ~seed:(seed + 10 + layer) ~dim ~rows)
            x
        in
        match rest with
        | [] -> fc
        | _ ->
            dense (T.Graph.square g fc) ~dim:(next_pow2 rows)
              ~layer:(layer + 1) rest)
  in
  T.Graph.output g (dense flat ~dim:(next_pow2 feat) ~layer:0 (head ~feat));
  g

(* One packing pin per scale, each the layout search's winner at that
   scale.  The full network's dense head runs BSGS: O(√dim) input
   rotations win at the 1024-wide flatten (16384 slots).  The miniature
   runs diag: at 512 slots its dense head is narrow enough that diag's
   fewer levels (mult depth 11 against 13) outweigh its extra
   rotations. *)
let plan = { T.Layout.dense = T.Layout.Bsgs }

let exec_plan = { T.Layout.dense = T.Layout.Diag }

let graph ?(n_slots = 16384) ?(seed = 11) variant =
  let width, in_channels = geometry variant in
  graph_of ~n_slots ~width ~in_channels ~seed ~out_channels:(6, 16)
    ~head:(fun ~feat:_ -> [ 120; 84; 10 ])
    ()

let build ?n_slots ?seed variant = T.Lower.lower ~plan (graph ?n_slots ?seed variant)

let data ~seed variant =
  let width, in_channels = geometry variant in
  [ ( "ch",
      Array.init in_channels (fun c ->
          Data.image ~seed:(seed + c) (width * width)) ) ]

let inputs ~seed variant =
  let width, in_channels = geometry variant in
  List.init in_channels (fun c ->
      (Printf.sprintf "ch%d" c, Data.image ~seed:(seed + c) (width * width)))

(* The exec-tier miniature: identical layer structure (conv → x² → pool,
   twice, then flatten and a square-activated dense head) on an 8×8
   image with 2 channels per conv stage, so a real encrypted run
   finishes in milliseconds while still exercising every op kind the
   full network uses (strided rotations, masked flatten, a packed dense
   head — diagonal here, BSGS in the full network). *)
let small_width = 8

let graph_small ?(n_slots = 512) ?(seed = 11) variant =
  let _, in_channels = geometry variant in
  graph_of ~n_slots ~width:small_width ~in_channels ~seed ~out_channels:(2, 2)
    ~head:(fun ~feat -> [ next_pow2 feat; 4 ])
    ()

let build_small ?n_slots ?seed variant =
  T.Lower.lower ~plan:exec_plan (graph_small ?n_slots ?seed variant)

let data_small ~seed variant =
  let _, in_channels = geometry variant in
  [ ( "ch",
      Array.init in_channels (fun c ->
          Data.image ~seed:(seed + c) (small_width * small_width)) ) ]

let inputs_small ~seed variant =
  let _, in_channels = geometry variant in
  List.init in_channels (fun c ->
      (Printf.sprintf "ch%d" c,
       Data.image ~seed:(seed + c) (small_width * small_width)))
