(* A bench-side replay of a managed program on real ciphertexts, in
   program order, calling the Ckks.Evaluator function each op names and
   timing every call.  It computes what Backend.run_with_keys computes,
   mirroring the backend's documented op mapping (including the fused
   Modswitch∘Rescale), so its decrypts must be bit-identical to the
   backend's: inputs encrypt from per-tag streams and every op and key
   is deterministic, so neither order nor scheduling may change a bit. *)

open Fhe_ir
module E = Ckks.Evaluator

type call = {
  op : string;  (** evaluator function, e.g. "rotate"; "plain" for
                    plaintext arithmetic done in floats *)
  level : int;  (** level of the ciphertext the call ran on *)
  t0 : int64;
  t1 : int64;
  model_us : float;  (** Fhe_cost.Model.op_cost of the IR op(s) executed;
                         0 where the model has no entry *)
}

(* A Rescale consumed exactly once, by a Modswitch, and not an output,
   runs fused with that Modswitch (Backend's peephole). *)
let fused_rescales p =
  let n = Program.n_ops p in
  let uses = Array.make n 0 in
  Program.iteri
    (fun _ k -> List.iter (fun o -> uses.(o) <- uses.(o) + 1) (Op.operands k))
    p;
  Array.iter (fun o -> uses.(o) <- uses.(o) + 1) (Program.outputs p);
  let fused = Array.make n false in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Modswitch a -> (
          match Program.kind p a with
          | Op.Rescale _ when uses.(a) = 1 -> fused.(a) <- true
          | _ -> ())
      | _ -> ())
    p;
  fused

let pad nh v =
  let out = Array.make nh 0.0 in
  Array.blit v 0 out 0 (min nh (Array.length v));
  out

let run (keys : Ckks.Keys.t) (m : Managed.t) ~inputs =
  let p = m.Managed.prog in
  let nh = Ckks.Context.slot_count keys.Ckks.Keys.ctx in
  let n = Program.n_ops p in
  let fused = fused_rescales p in
  let is_c o = Program.vtype p o = Op.Cipher in
  let cts : E.ct option array = Array.make n None in
  let pls : float array array = Array.make n [||] in
  let c o = Option.get cts.(o) in
  let calls = ref [] in
  let call ?(model_us = 0.0) op level f =
    let t0 = Fhe_util.Timer.now_ns () in
    let r = f () in
    let t1 = Fhe_util.Timer.now_ns () in
    calls := { op; level; t0; t1; model_us } :: !calls;
    r
  in
  (* drop each value after its last use so the replay's memory stays
     near the backend's *)
  let last = Array.make n (-1) in
  Program.iteri
    (fun i k -> List.iter (fun o -> last.(o) <- i) (Op.operands k))
    p;
  Array.iter (fun o -> last.(o) <- n) (Program.outputs p);
  let pow2 = Fhe_util.Bits.pow2f in
  Program.iteri
    (fun i k ->
      let cost = Fhe_cost.Model.op_cost m i in
      (if not (is_c i) then
         let v o = pls.(o) in
         pls.(i) <-
           call "plain" 0 (fun () ->
               match k with
               | Op.Input { name; _ } -> pad nh (List.assoc name inputs)
               | Op.Const c -> Array.make nh c
               | Op.Vconst { values; _ } -> pad nh values
               | Op.Add (a, b) -> Array.map2 ( +. ) (v a) (v b)
               | Op.Sub (a, b) -> Array.map2 ( -. ) (v a) (v b)
               | Op.Mul (a, b) -> Array.map2 ( *. ) (v a) (v b)
               | Op.Neg a -> Array.map Float.neg (v a)
               | Op.Rotate (a, s) ->
                   let x = v a in
                   Array.init nh (fun j -> x.((j + s) mod nh))
               | Op.Rescale a | Op.Modswitch a | Op.Upscale (a, _) -> v a)
       else
         let pl o = pls.(o) in
         let lv o = (c o).E.level in
         let r =
           match k with
           | Op.Input { name; _ } ->
               call "encrypt" m.Managed.level.(i) (fun () ->
                   E.encrypt_det keys ~tag:i ~level:m.Managed.level.(i)
                     ~scale:(pow2 m.Managed.scale.(i))
                     (pad nh (List.assoc name inputs)))
           | Op.Add (a, b) | Op.Sub (a, b) -> (
               let sub = match k with Op.Sub _ -> true | _ -> false in
               match (is_c a, is_c b) with
               | true, true ->
                   call ~model_us:cost "add" (lv a) (fun () ->
                       (if sub then E.sub else E.add) keys (c a) (c b))
               | true, false ->
                   call ~model_us:cost "add_plain" (lv a) (fun () ->
                       (if sub then E.sub_plain else E.add_plain)
                         keys (c a) (pl b))
               | false, _ when not sub ->
                   call ~model_us:cost "add_plain" (lv b) (fun () ->
                       E.add_plain keys (c b) (pl a))
               | false, _ ->
                   let d =
                     call "add_plain" (lv b) (fun () ->
                         E.sub_plain keys (c b) (pl a))
                   in
                   call "neg" (lv b) (fun () -> E.neg keys d))
           | Op.Mul (a, b) -> (
               match (is_c a, is_c b) with
               | true, true ->
                   call ~model_us:cost "mul" (lv a) (fun () ->
                       E.mul keys (c a) (c b))
               | true, false ->
                   call ~model_us:cost "mul_plain" (lv a) (fun () ->
                       E.mul_plain keys (c a)
                         ~scale:(pow2 m.Managed.scale.(b))
                         (pl b))
               | false, _ ->
                   call ~model_us:cost "mul_plain" (lv b) (fun () ->
                       E.mul_plain keys (c b)
                         ~scale:(pow2 m.Managed.scale.(a))
                         (pl a)))
           | Op.Neg a ->
               call ~model_us:cost "neg" (lv a) (fun () -> E.neg keys (c a))
           | Op.Rotate (a, s) ->
               if Fhe_util.Bits.pos_rem s nh = 0 then c a
               else
                 call ~model_us:cost "rotate" (lv a) (fun () ->
                     E.rotate keys (c a) s)
           | Op.Rescale a ->
               (* a fused rescale holds its operand until the Modswitch *)
               if fused.(i) then c a
               else
                 call ~model_us:cost "rescale" (lv a) (fun () ->
                     E.rescale keys (c a))
           | Op.Modswitch a when fused.(a) ->
               let x = c a in
               if x.E.level > 2 then
                 call
                   ~model_us:(cost +. Fhe_cost.Model.op_cost m a)
                   "rescale_modswitch" x.E.level (fun () ->
                     E.rescale_modswitch keys x)
               else
                 let y =
                   call ~model_us:(Fhe_cost.Model.op_cost m a) "rescale"
                     x.E.level (fun () -> E.rescale keys x)
                 in
                 call ~model_us:cost "modswitch" y.E.level (fun () ->
                     E.modswitch keys y)
           | Op.Modswitch a ->
               call ~model_us:cost "modswitch" (lv a) (fun () ->
                   E.modswitch keys (c a))
           | Op.Upscale (a, bits) ->
               call ~model_us:cost "upscale" (lv a) (fun () ->
                   E.upscale keys (c a) bits)
           | Op.Const _ | Op.Vconst _ ->
               invalid_arg "Replay: plaintext leaf typed as cipher"
         in
         cts.(i) <- Some r);
      List.iter
        (fun o ->
          if last.(o) = i then begin
            cts.(o) <- None;
            pls.(o) <- [||]
          end)
        (Op.operands k))
    p;
  let outs =
    Array.map
      (fun o ->
        if is_c o then
          let x = c o in
          call "decrypt" x.E.level (fun () -> E.decrypt keys x)
        else pls.(o))
      (Program.outputs p)
  in
  (outs, List.rev !calls)
