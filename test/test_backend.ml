(* End-to-end: DSL programs -> scale-management compilers -> real
   RNS-CKKS execution -> decrypted results match the reference. *)

open Fhe_ir

let n_slots = 256

let rbits = 28

let wbits = 22

let inputs2 =
  let g = Fhe_util.Prng.create 77 in
  [ ("x", Array.init n_slots (fun _ -> Fhe_util.Prng.uniform g ~lo:(-0.8) ~hi:0.8));
    ("y", Array.init n_slots (fun _ -> Fhe_util.Prng.uniform g ~lo:(-0.8) ~hi:0.8)) ]

let check_backend ?(tol = 2e-2) p m =
  Helpers.check_valid m;
  let expect = Fhe_sim.Interp.run_reference p ~inputs:inputs2 in
  let got = Ckks.Backend.run m ~inputs:inputs2 in
  Array.iteri
    (fun o e ->
      Array.iteri
        (fun j x ->
          if Float.abs (x -. got.(o).(j)) > tol then
            Alcotest.failf "output %d slot %d: encrypted %g vs expected %g" o j
              got.(o).(j) x)
        e)
    expect

let paper_program () =
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let x3 = Builder.mul b x (Builder.mul b x x) in
  let q = Builder.mul b x3 (Builder.add b (Builder.mul b y y) y) in
  Builder.finish b ~outputs:[ q ]

let test_eva_backend () =
  let p = paper_program () in
  check_backend p (Fhe_eva.Eva.compile ~rbits ~wbits p)

let test_reserve_backend () =
  let p = paper_program () in
  check_backend p (Helpers.compile ~rbits ~wbits p)

let test_hecate_backend () =
  let p = paper_program () in
  let r = Fhe_hecate.Hecate.compile ~iterations:100 ~rbits ~wbits p in
  check_backend p r.Fhe_hecate.Hecate.managed

let test_rotation_program () =
  (* rotations + plaintext masks through the whole stack *)
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x" in
  let sum4 =
    Builder.add b
      (Builder.add b x (Builder.rotate b x 1))
      (Builder.add b (Builder.rotate b x 2) (Builder.rotate b x 3))
  in
  let masked = Builder.mul b sum4 (Builder.vconst b (Array.make 8 0.25)) in
  let p = Builder.finish b ~outputs:[ masked ] in
  check_backend p (Helpers.compile ~rbits ~wbits p)

let test_sub_neg_program () =
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let e = Builder.sub b (Builder.neg b x) (Builder.mul b y (Builder.const b 0.5)) in
  let p = Builder.finish b ~outputs:[ e ] in
  check_backend p (Fhe_eva.Eva.compile ~rbits ~wbits p)

let test_plain_input_program () =
  let b = Builder.create ~n_slots () in
  let x = Builder.input b "x" in
  let w = Builder.input b ~vt:Op.Plain "y" in
  let e = Builder.add b (Builder.mul b x w) x in
  let p = Builder.finish b ~outputs:[ e ] in
  check_backend p (Helpers.compile ~rbits ~wbits p)

let test_rejects_wrong_rbits () =
  let p = paper_program () in
  let m = Fhe_eva.Eva.compile ~rbits:60 ~wbits:30 p in
  try
    ignore (Ckks.Backend.run m ~inputs:inputs2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_small_sobel_encrypted () =
  (* a 16x16 Sobel through the reserve compiler, fully encrypted *)
  let width = 16 in
  let b = Builder.create ~n_slots () in
  let img = Builder.input b "x" in
  let gx =
    Fhe_tensor.Kernels.conv2d b img ~width ~height:width
      ~weights:Fhe_apps.Sobel.sobel_x
  in
  let gy =
    Fhe_tensor.Kernels.conv2d b img ~width ~height:width
      ~weights:Fhe_apps.Sobel.sobel_y
  in
  let out = Builder.add b (Builder.square b gx) (Builder.square b gy) in
  let p = Builder.finish b ~outputs:[ out ] in
  (* sobel outputs reach ~100: reserve x_max headroom for them and
     loosen the tolerance accordingly *)
  let xmax_bits =
    Fhe_sim.Interp.max_magnitude_bits p ~inputs:inputs2
  in
  check_backend ~tol:0.5 p
    (Helpers.compile ~xmax_bits ~rbits ~wbits p)

(* All eight registry applications (exec-scale variants) end to end
   through the reserve compiler: decrypt within the pinned per-app
   tolerance, and every ciphertext output at exactly the level the
   compiler placed for it — the backend must consume levels as planned,
   not merely produce close numbers. *)
let test_all_apps_encrypted () =
  List.iter
    (fun (a : Fhe_apps.Registry.app) ->
      let module Reg = Fhe_apps.Registry in
      let module H = Fhe_harness in
      let pr = H.prepare H.Exec a in
      let m = H.compile_exn "reserve-full" pr in
      let expect = Fhe_sim.Interp.run_reference pr.H.prog ~inputs:pr.H.inputs in
      let { H.outputs = got; stats = st; _ } = H.run ~refs:expect pr m in
      Array.iteri
        (fun o e ->
          Array.iteri
            (fun j x ->
              if Float.abs (x -. got.(o).(j)) > a.Reg.exec_tol then
                Alcotest.failf
                  "%s output %d slot %d: encrypted %g vs expected %g (tol %g)"
                  a.Reg.name o j got.(o).(j) x a.Reg.exec_tol)
            e)
        expect;
      let outs = Program.outputs m.Managed.prog in
      Array.iteri
        (fun o op ->
          if Program.vtype m.Managed.prog op = Op.Cipher then
            Alcotest.(check int)
              (Printf.sprintf "%s output %d level" a.Reg.name o)
              m.Managed.level.(op)
              st.Ckks.Backend.output_levels.(o))
        outs)
    Fhe_apps.Registry.all

let suite =
  [ Alcotest.test_case "paper program via EVA" `Slow test_eva_backend;
    Alcotest.test_case "paper program via reserve" `Slow test_reserve_backend;
    Alcotest.test_case "paper program via hecate" `Slow test_hecate_backend;
    Alcotest.test_case "rotations + masks" `Slow test_rotation_program;
    Alcotest.test_case "sub/neg/plain" `Slow test_sub_neg_program;
    Alcotest.test_case "plaintext input" `Slow test_plain_input_program;
    Alcotest.test_case "rejects mismatched rbits" `Quick
      test_rejects_wrong_rbits;
    Alcotest.test_case "encrypted Sobel 16x16" `Slow
      test_small_sobel_encrypted;
    Alcotest.test_case "all 8 apps encrypted + level pins" `Slow
      test_all_apps_encrypted ]
