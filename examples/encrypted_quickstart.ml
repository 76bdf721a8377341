(* The full stack on real encryption: compile the paper's example with
   the reserve analysis, then encode, encrypt, evaluate homomorphically
   on the from-scratch RNS-CKKS backend (NTT polynomials, RLWE,
   relinearization — no mock anywhere), decrypt and compare.

   The backend uses 28-bit prime chains (residue products must fit
   OCaml's 63-bit ints), so the program is compiled with rbits = 28.

     dune exec examples/encrypted_quickstart.exe *)

open Fhe_ir

let () =
  let n_slots = 1024 in
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let q =
    Builder.mul b
      (Builder.mul b x (Builder.mul b x x))
      (Builder.add b (Builder.mul b y y) y)
  in
  let program = Builder.finish b ~outputs:[ q ] in

  let rbits = 28 and wbits = 24 in
  let m =
    Fhe_strategy.Registry.(
      compile (get_exn "reserve-full")
        (Fhe_strategy.Strategy.config ~rbits ~wbits ()) program)
  in
  Printf.printf "compiled: L = %d (coefficient modulus ~ 2^%d), %d ops\n"
    (Managed.input_level m)
    (Managed.input_level m * rbits)
    (Program.n_ops m.Managed.prog);

  let g = Fhe_util.Prng.create 2024 in
  let vec () =
    Array.init n_slots (fun _ -> Fhe_util.Prng.uniform g ~lo:(-0.9) ~hi:0.9)
  in
  let xd = vec () and yd = vec () in
  let inputs = [ ("x", xd); ("y", yd) ] in

  Printf.printf "ring degree n = %d (%d slots), keygen + encrypt + evaluate...\n%!"
    (2 * n_slots) n_slots;
  let outs, ms = Fhe_util.Timer.time (fun () -> Ckks.Backend.run m ~inputs) in
  let out = outs.(0) in

  let worst = ref 0.0 in
  Array.iteri
    (fun i v ->
      let expect = (xd.(i) ** 3.0) *. ((yd.(i) ** 2.0) +. yd.(i)) in
      worst := Float.max !worst (Float.abs (v -. expect)))
    out;
  Printf.printf "homomorphic evaluation done in %.0f ms\n" ms;
  Printf.printf "slot 0: got %.6f, expected %.6f\n" out.(0)
    ((xd.(0) ** 3.0) *. ((yd.(0) ** 2.0) +. yd.(0)));
  Printf.printf "max error across %d slots: %.2e\n" n_slots !worst;
  if !worst < 2e-2 then print_endline "PASS: encrypted result matches"
  else begin
    print_endline "FAIL: error too large";
    exit 1
  end
