open Fhe_ir

type value = { data : float array; err : float }

let find_input inputs name =
  match List.assoc_opt name inputs with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Interp: missing input %S" name)

let max_abs a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 a

let map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let run ?(noise = Noise.default) (m : Managed.t) ~inputs =
  let p = m.Managed.prog in
  let n_slots = Program.n_slots p in
  let n = Program.n_ops p in
  let data = Array.make n [||] in
  let err = Array.make n 0.0 in
  (* free intermediates once their last use has executed: large managed
     programs would otherwise hold every 16384-slot vector live *)
  let uses_left = Analysis.n_uses p in
  let contrib bits i = Noise.contribution ~bits ~scale:m.Managed.scale.(i) in
  Program.iteri
    (fun i k ->
      (match k with
      | Op.Input { name; vt } ->
          data.(i) <- Slots.pad n_slots (find_input inputs name);
          err.(i) <-
            (match vt with
            | Op.Cipher -> contrib noise.Noise.fresh_bits i
            | Op.Plain -> contrib noise.Noise.fresh_bits i)
      | Op.Const c ->
          data.(i) <- Array.make n_slots c;
          err.(i) <- contrib noise.Noise.fresh_bits i
      | Op.Vconst { values; _ } ->
          data.(i) <- Slots.pad n_slots values;
          err.(i) <- contrib noise.Noise.fresh_bits i
      | Op.Add (a, b) ->
          data.(i) <- map2 ( +. ) data.(a) data.(b);
          err.(i) <- err.(a) +. err.(b)
      | Op.Sub (a, b) ->
          data.(i) <- map2 ( -. ) data.(a) data.(b);
          err.(i) <- err.(a) +. err.(b)
      | Op.Mul (a, b) ->
          data.(i) <- map2 ( *. ) data.(a) data.(b);
          let cc =
            Program.vtype p a = Op.Cipher && Program.vtype p b = Op.Cipher
          in
          err.(i) <-
            (err.(a) *. max_abs data.(b))
            +. (err.(b) *. max_abs data.(a))
            +. (err.(a) *. err.(b))
            +. (if cc then contrib noise.Noise.mul_bits i else 0.0)
      | Op.Neg a ->
          data.(i) <- Array.map (fun x -> -.x) data.(a);
          err.(i) <- err.(a)
      | Op.Rotate (a, k) ->
          data.(i) <- Slots.rotl data.(a) k;
          err.(i) <-
            err.(a)
            +.
            if Program.vtype p i = Op.Cipher then
              contrib noise.Noise.rotate_bits i
            else 0.0
      | Op.Rescale a ->
          data.(i) <- Array.copy data.(a);
          err.(i) <-
            err.(a)
            +.
            if Program.vtype p i = Op.Cipher then
              contrib noise.Noise.rescale_bits i
            else 0.0
      | Op.Modswitch a ->
          data.(i) <- Array.copy data.(a);
          err.(i) <-
            err.(a)
            +.
            if Program.vtype p i = Op.Cipher then
              contrib noise.Noise.modswitch_bits i
            else 0.0
      | Op.Upscale (a, _) ->
          data.(i) <- Array.copy data.(a);
          err.(i) <- err.(a));
      List.iter
        (fun o ->
          uses_left.(o) <- uses_left.(o) - 1;
          if uses_left.(o) = 0 then data.(o) <- [||])
        (Op.operands k))
    p;
  Array.map
    (fun o -> { data = data.(o); err = err.(o) })
    (Program.outputs p)

let run_reference p ~inputs =
  let n_slots = Program.n_slots p in
  let n = Program.n_ops p in
  let data = Array.make n [||] in
  let uses_left = Analysis.n_uses p in
  Program.iteri
    (fun i k ->
      (match k with
      | Op.Input { name; _ } ->
          data.(i) <- Slots.pad n_slots (find_input inputs name)
      | Op.Const c -> data.(i) <- Array.make n_slots c
      | Op.Vconst { values; _ } -> data.(i) <- Slots.pad n_slots values
      | Op.Add (a, b) -> data.(i) <- map2 ( +. ) data.(a) data.(b)
      | Op.Sub (a, b) -> data.(i) <- map2 ( -. ) data.(a) data.(b)
      | Op.Mul (a, b) -> data.(i) <- map2 ( *. ) data.(a) data.(b)
      | Op.Neg a -> data.(i) <- Array.map (fun x -> -.x) data.(a)
      | Op.Rotate (a, k) -> data.(i) <- Slots.rotl data.(a) k
      | Op.Rescale a | Op.Modswitch a | Op.Upscale (a, _) ->
          data.(i) <- Array.copy data.(a));
      List.iter
        (fun o ->
          uses_left.(o) <- uses_left.(o) - 1;
          if uses_left.(o) = 0 then data.(o) <- [||])
        (Op.operands k))
    p;
  Array.map (fun o -> data.(o)) (Program.outputs p)

let max_log2_error ?noise m ~inputs =
  let outs = run ?noise m ~inputs in
  let worst = Array.fold_left (fun acc v -> Float.max acc v.err) 0.0 outs in
  Fhe_util.Bits.log2f worst

let max_magnitude_bits p ~inputs =
  let n_slots = Program.n_slots p in
  let n = Program.n_ops p in
  let data = Array.make n [||] in
  let uses_left = Analysis.n_uses p in
  let worst = ref 1.0 in
  Program.iteri
    (fun i k ->
      (match k with
      | Op.Input { name; _ } ->
          data.(i) <- Slots.pad n_slots (find_input inputs name)
      | Op.Const c -> data.(i) <- Array.make n_slots c
      | Op.Vconst { values; _ } -> data.(i) <- Slots.pad n_slots values
      | Op.Add (a, b) -> data.(i) <- map2 ( +. ) data.(a) data.(b)
      | Op.Sub (a, b) -> data.(i) <- map2 ( -. ) data.(a) data.(b)
      | Op.Mul (a, b) -> data.(i) <- map2 ( *. ) data.(a) data.(b)
      | Op.Neg a -> data.(i) <- Array.map (fun x -> -.x) data.(a)
      | Op.Rotate (a, k) -> data.(i) <- Slots.rotl data.(a) k
      | Op.Rescale a | Op.Modswitch a | Op.Upscale (a, _) ->
          data.(i) <- data.(a));
      worst := Float.max !worst (max_abs data.(i));
      List.iter
        (fun o ->
          uses_left.(o) <- uses_left.(o) - 1;
          if uses_left.(o) = 0 then data.(o) <- [||])
        (Op.operands k))
    p;
  int_of_float (Float.ceil (Fhe_util.Bits.log2f !worst))
