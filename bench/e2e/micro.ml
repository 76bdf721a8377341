(* Loops over single layer calls at one ring degree and top level: the
   kernels below the evaluator, one switch-key generation, and the
   evaluator ops a workload's requests never call — so every per-layer
   time is a measurement on every workload.  Used by the traced run
   only. *)

module C = Ckks
module E = Ckks.Evaluator

(* µs per call: calls until at least 3 have run and 20 ms have passed;
   the median, so a cold first call does not count. *)
let time_us f =
  let samples = ref [] and spent = ref 0.0 and k = ref 0 in
  while !k < 3 || !spent < 20.0 do
    let _, ms = Fhe_util.Timer.time f in
    samples := (ms *. 1e3) :: !samples;
    spent := !spent +. ms;
    incr k
  done;
  Stats.median !samples

let slot_values ctx =
  Array.init (C.Context.slot_count ctx) (fun i -> sin (float_of_int i))

let kernels (ctx : C.Context.t) ~level ~scale =
  let g = Fhe_util.Prng.create 7 in
  let small () = Array.init ctx.C.Context.n (fun _ -> Fhe_util.Prng.int g 17 - 8) in
  let a = C.Poly.of_coeff_array ctx ~level ~special:false (small ()) in
  let an = C.Poly.to_ntt ctx a in
  let bn = C.Poly.to_ntt ctx (C.Poly.of_coeff_array ctx ~level ~special:false (small ())) in
  (* in place over the rows of one top-level polynomial: canonical
     residues in, canonical residues out, so repeating is sound *)
  let rows = Array.map C.Rvec.copy a.C.Poly.data in
  let each_row f () = Array.iteri (fun r v -> f (C.Context.plan ctx r) v) rows in
  let v = slot_values ctx in
  let pt = C.Encoder.encode ctx ~level ~scale v in
  let g1 = C.Keys.galois_element ctx 1 in
  [ ("ntt.forward_us", time_us (each_row C.Ntt.forward));
    ("ntt.inverse_us", time_us (each_row C.Ntt.inverse));
    ("encoder.encode_us", time_us (fun () -> C.Encoder.encode ctx ~level ~scale v));
    ("encoder.decode_us", time_us (fun () -> C.Encoder.decode ctx ~scale pt));
    ("poly.automorphism_us", time_us (fun () -> C.Poly.automorphism ctx an ~g:g1));
    ("poly.mul_us", time_us (fun () -> C.Poly.mul ctx an bn)) ]

(* One switch-key generation, in ms (mean over two rotation steps),
   and µs per call of each evaluator op in [ops], on fresh keys so the
   workload's own key cache and counters are untouched. *)
let evaluator (ctx : C.Context.t) ~level ~scale ops =
  let keys = C.Keys.keygen ~rotations:[ 1 ] ctx in
  let gen_ms =
    Stats.mean
      (List.map
         (fun k -> snd (Fhe_util.Timer.time (fun () -> C.Keys.add_rotation keys k)))
         [ 2; 3 ])
  in
  let v = slot_values ctx in
  let x = E.encrypt keys ~level ~scale v in
  let op name =
    match name with
    | "encrypt" -> fun () -> ignore (E.encrypt keys ~level ~scale v)
    | "decrypt" -> fun () -> ignore (E.decrypt keys x)
    | "add" -> fun () -> ignore (E.add keys x x)
    | "add_plain" -> fun () -> ignore (E.add_plain keys x v)
    | "mul" -> fun () -> ignore (E.mul keys x x)
    | "mul_plain" -> fun () -> ignore (E.mul_plain keys x ~scale v)
    | "rotate" -> fun () -> ignore (E.rotate keys x 1)
    | "rescale" -> fun () -> ignore (E.rescale keys x)
    | "modswitch" -> fun () -> ignore (E.modswitch keys x)
    | "rescale_modswitch" -> fun () -> ignore (E.rescale_modswitch keys x)
    | "upscale" -> fun () -> ignore (E.upscale keys x 8)
    | "neg" -> fun () -> ignore (E.neg keys x)
    | _ -> invalid_arg ("Micro.evaluator: unknown op " ^ name)
  in
  (gen_ms, List.map (fun name -> (name, time_us (op name))) ops)
