open Fhe_ir

type mismatch = {
  output : int;
  slot : int;
  got : float;
  expected : float;
  bound : float;
}

type report = {
  mismatches : mismatch list;
  outputs : int;
  slots : int;
  max_abs_error : float;
  worst_bound : float;
}

let ok r = r.mismatches = []

(* relative slack for floating-point re-association *)
let slack = 1e-9

(* Shorter than the slot count (the interpreter zero-pads) to keep the
   check cheap on wide programs; an input named twice gets one vector. *)
let synth_inputs p =
  let rng = Fhe_util.Prng.create 0x5eed in
  let n = min (Program.n_slots p) 64 in
  let acc = ref [] in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Input { name; _ } when not (List.mem_assoc name !acc) ->
          acc :=
            ( name,
              Array.init n (fun _ ->
                  Fhe_util.Prng.uniform rng ~lo:(-1.0) ~hi:1.0) )
            :: !acc
      | _ -> ())
    p;
  List.rev !acc

(* The one slot-by-slot comparison against the plaintext reference:
   [f output slot got expected |got - expected|] for every slot of
   [got], in (output, slot) order. *)
let iter_errors refs got f =
  Array.iteri
    (fun o g ->
      let r = refs.(o) in
      Array.iteri (fun j x -> f o j x r.(j) (Float.abs (x -. r.(j)))) g)
    got

let output_errors refs got =
  let worst = Array.make (Array.length got) 0.0 in
  iter_errors refs got (fun o _ _ _ d -> if d > worst.(o) then worst.(o) <- d);
  worst

let judge ~refs (outs : Interp.value array) =
  if Array.length refs <> Array.length outs then
    invalid_arg "Oracle.judge: output count mismatch";
  let mismatches = ref [] in
  let max_abs_error = ref 0.0 and worst_bound = ref 0.0 in
  iter_errors refs
    (Array.map (fun (v : Interp.value) -> v.Interp.data) outs)
    (fun output slot got expected err ->
      let bound =
        outs.(output).Interp.err +. (slack *. (1.0 +. Float.abs expected))
      in
      max_abs_error := Float.max !max_abs_error err;
      worst_bound := Float.max !worst_bound bound;
      if err > bound then
        mismatches := { output; slot; got; expected; bound } :: !mismatches);
  {
    mismatches = List.rev !mismatches;
    outputs = Array.length outs;
    slots =
      Array.fold_left
        (fun s (v : Interp.value) -> max s (Array.length v.Interp.data))
        0 outs;
    max_abs_error = !max_abs_error;
    worst_bound = !worst_bound;
  }

let check src m ~inputs =
  let refs = Interp.run_reference src ~inputs in
  judge ~refs (Interp.run m ~inputs)

let pp_mismatch ppf m =
  Format.fprintf ppf "output %d slot %d: got %g, expected %g (bound %g)"
    m.output m.slot m.got m.expected m.bound

let pp ppf r =
  if ok r then
    Format.fprintf ppf "oracle: %d output(s) agree (max err %g <= bound %g)"
      r.outputs r.max_abs_error r.worst_bound
  else
    Format.fprintf ppf "oracle: %d mismatch(es)@\n%a"
      (List.length r.mismatches)
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_mismatch)
      r.mismatches
