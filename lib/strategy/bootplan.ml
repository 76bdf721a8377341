open Fhe_ir

type plan = {
  cuts : int list;
  segments : Managed.t list;
  bootstraps : int;
  total_latency_us : float;
  max_segment_level : int;
  sm_invocations : int;
  sm_time_ms : float;
}

(* forward multiplicative depth: levels a value has consumed since the
   inputs (0 at the leaves, +1 at every cipher multiplication) *)
let forward_depth p =
  let n = Program.n_ops p in
  let d = Array.make n 0 in
  Program.iteri
    (fun i k ->
      let base =
        List.fold_left (fun acc o -> max acc d.(o)) 0 (Op.operands k)
      in
      let inc =
        match k with
        | Op.Mul _ when Program.vtype p i = Op.Cipher -> 1
        | _ -> 0
      in
      d.(i) <- base + inc)
    p;
  d

(* Extract the sub-program of ops with depth in (lo, hi]: earlier cipher
   values become boundary inputs (bootstrapped arrivals), plaintext
   subgraphs are duplicated.  Returns the program and the number of
   boundary inputs, or None when the range holds nothing to compile. *)
let extract p depth users ~lo ~hi =
  let n = Program.n_ops p in
  let in_range v = depth.(v) > lo && depth.(v) <= hi in
  let is_c v = Program.vtype p v = Op.Cipher in
  let b = Builder.create ~dedup:true ~n_slots:(Program.n_slots p) () in
  let map = Array.make n (-1) in
  let boundaries = ref 0 in
  let rec resolve v =
    if map.(v) >= 0 then map.(v)
    else begin
      let k = Program.kind p v in
      let fresh_input = match k with Op.Input _ -> true | _ -> false in
      let id =
        if is_c v && (not (in_range v)) && not fresh_input then begin
          (* a ciphertext computed before this segment: refreshed input *)
          incr boundaries;
          Builder.input b (Printf.sprintf "boundary%d" v)
        end
        else
          match k with
          | Op.Input { name; vt } -> Builder.input b ~vt name
          | Op.Const c -> Builder.const b c
          | Op.Vconst { tag; values } -> Builder.vconst b ~tag values
          | Op.Add (x, y) -> Builder.add b (resolve x) (resolve y)
          | Op.Sub (x, y) -> Builder.sub b (resolve x) (resolve y)
          | Op.Mul (x, y) -> Builder.mul b (resolve x) (resolve y)
          | Op.Neg x -> Builder.neg b (resolve x)
          | Op.Rotate (x, amt) -> Builder.rotate b (resolve x) amt
          | Op.Rescale _ | Op.Modswitch _ | Op.Upscale _ ->
              invalid_arg "Bootplan: program already scale-managed"
      in
      map.(v) <- id;
      id
    end
  in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (Program.outputs p);
  let outputs = ref [] in
  for v = 0 to n - 1 do
    if in_range v then begin
      let crosses_out =
        List.exists (fun u -> depth.(u) > hi) users.(v)
        || (is_output.(v) && is_c v)
      in
      if crosses_out then outputs := resolve v :: !outputs
    end
  done;
  match List.rev !outputs with
  | [] -> None
  | outs -> Some (Builder.finish b ~outputs:outs, !boundaries)

let plan ?(bootstrap_cost_us = 1e6) ~max_level ~rbits ~wbits p =
  let depth = forward_depth p in
  let users = Analysis.users p in
  let maxd = Array.fold_left max 0 depth in
  let sm_invocations = ref 0 in
  let sm_time_ms = ref 0.0 in
  let reserve = Registry.get_exn "reserve-full" in
  let cfg = Strategy.config ~rbits ~wbits () in
  let compile_segment ~lo ~hi =
    match extract p depth users ~lo ~hi with
    | None -> Ok None
    | Some (seg, boundaries) ->
        let m, ms =
          Fhe_util.Timer.time (fun () -> Registry.compile reserve cfg seg)
        in
        incr sm_invocations;
        sm_time_ms := !sm_time_ms +. ms;
        if Managed.input_level m <= max_level then Ok (Some (m, boundaries))
        else Error ()
  in
  let rec build lo acc =
    if lo >= maxd then Ok (List.rev acc)
    else begin
      (* grow the segment while it still fits the level budget *)
      let rec grow hi best =
        if hi > maxd then best
        else
          match compile_segment ~lo ~hi with
          | Ok None -> grow (hi + 1) best (* nothing yet: keep growing *)
          | Ok (Some r) -> grow (hi + 1) (Some (hi, r))
          | Error () -> best
      in
      match grow (lo + 1) None with
      | None ->
          Result.Error
            (Printf.sprintf
               "segment after depth %d does not fit %d levels even alone" lo
               max_level)
      | Some (hi, (m, boundaries)) -> build hi ((hi, m, boundaries) :: acc)
    end
  in
  match build 0 [] with
  | Error _ as e -> e
  | Ok segs ->
      let cuts =
        match List.rev (List.map (fun (hi, _, _) -> hi) segs) with
        | [] -> []
        | last :: rest when last = maxd -> List.rev rest
        | all -> List.rev all
      in
      let segments = List.map (fun (_, m, _) -> m) segs in
      (* every boundary input is a ciphertext refresh (original inputs
         re-enter fresh and are not counted) *)
      let bootstraps =
        List.fold_left (fun acc (_, _, b) -> acc + b) 0 segs
      in
      let total_latency_us =
        List.fold_left
          (fun acc m -> acc +. Fhe_cost.Model.estimate m)
          (float_of_int bootstraps *. bootstrap_cost_us)
          segments
      in
      Ok
        { cuts;
          segments;
          bootstraps;
          total_latency_us;
          max_segment_level =
            List.fold_left (fun acc m -> max acc (Managed.input_level m)) 0
              segments;
          sm_invocations = !sm_invocations;
          sm_time_ms = !sm_time_ms }
