(* Edge cases that the main suites don't pin down: the Emit helper,
   modswitch/rescale equivalences on the real scheme, single-op
   programs, and determinism guarantees. *)

open Fhe_ir

(* ------------------------------------------------------------------ *)
(* Emit *)

let test_emit_basics () =
  let e = Emit.create () in
  let a = Emit.push e (Op.Input { name = "x"; vt = Op.Cipher }) ~scale:20 ~aux:2 in
  let b = Emit.push e (Op.Mul (a, a)) ~scale:40 ~aux:2 in
  Alcotest.(check int) "scale recorded" 40 (Emit.scale e b);
  Alcotest.(check int) "aux recorded" 2 (Emit.aux e b);
  Alcotest.(check int) "count" 2 (Emit.n_ops e);
  let m =
    Emit.finish e ~outputs:[| b |] ~n_slots:4 ~rbits:60 ~wbits:20
      ~level:(Emit.aux e)
  in
  Alcotest.(check int) "levels from aux" 2 m.Managed.level.(b)

let test_emit_plain_leaf_cache () =
  let e = Emit.create () in
  let c1 = Emit.plain_leaf e (Op.Const 1.5) ~scale:20 ~aux:1 in
  let c2 = Emit.plain_leaf e (Op.Const 1.5) ~scale:20 ~aux:1 in
  let c3 = Emit.plain_leaf e (Op.Const 1.5) ~scale:25 ~aux:1 in
  Alcotest.(check int) "same annotation shares" c1 c2;
  Alcotest.(check bool) "different scale distinct" true (c1 <> c3);
  try
    ignore (Emit.plain_leaf e (Op.Neg 0) ~scale:20 ~aux:1);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* single-op and degenerate programs through the compilers *)

let single_input_program () =
  let b = Builder.create ~n_slots:4 () in
  let x = Builder.input b "x" in
  Builder.finish b ~outputs:[ x ]

let test_identity_program () =
  let p = single_input_program () in
  List.iter
    (fun m ->
      Helpers.check_valid m;
      Alcotest.(check int) "one level suffices" 1 (Managed.input_level m))
    [ Fhe_eva.Eva.compile ~rbits:60 ~wbits:20 p;
      Helpers.compile ~rbits:60 ~wbits:20 p ]

let test_plain_only_program () =
  let b = Builder.create ~n_slots:4 () in
  let c = Builder.add b (Builder.const b 1.0) (Builder.const b 2.0) in
  let p = Builder.finish b ~outputs:[ c ] in
  let m = Helpers.compile ~rbits:60 ~wbits:20 p in
  Helpers.check_valid m;
  let out = (Fhe_sim.Interp.run m ~inputs:[]).(0) in
  Alcotest.(check (float 1e-9)) "3.0" 3.0 out.Fhe_sim.Interp.data.(0)

let test_same_output_twice () =
  let b = Builder.create ~n_slots:4 () in
  let x = Builder.input b "x" in
  let s = Builder.square b x in
  let p = Builder.finish b ~outputs:[ s; s ] in
  let m = Helpers.compile ~rbits:60 ~wbits:20 p in
  Helpers.check_valid m;
  let outs = Fhe_sim.Interp.run m ~inputs:[ ("x", [| 2.0 |]) ] in
  Alcotest.(check int) "two outputs" 2 (Array.length outs);
  Alcotest.(check (float 1e-9)) "equal" outs.(0).Fhe_sim.Interp.data.(0)
    outs.(1).Fhe_sim.Interp.data.(0)

let test_deep_square_tower () =
  (* x^(2^6): the hardest shape for redistribution (pure squaring) *)
  let b = Builder.create ~n_slots:4 () in
  let x = Builder.input b "x" in
  let rec tower e k = if k = 0 then e else tower (Builder.square b e) (k - 1) in
  let p = Builder.finish b ~outputs:[ tower x 6 ] in
  List.iter
    (fun w ->
      let m = Helpers.compile ~rbits:60 ~wbits:w p in
      Helpers.check_valid m;
      Helpers.check_equivalent p m [ ("x", [| 0.9; 1.0; -0.95; 0.1 |]) ])
    [ 15; 30; 45 ]

(* ------------------------------------------------------------------ *)
(* determinism *)

let test_compilers_deterministic () =
  let g = Gen.make 123 in
  let fingerprint m =
    Pp.program_to_string m.Managed.prog
    ^ String.concat ","
        (List.map string_of_int (Array.to_list m.Managed.scale))
  in
  let twice f = (fingerprint (f ()), fingerprint (f ())) in
  let a, b = twice (fun () -> Fhe_eva.Eva.compile ~rbits:60 ~wbits:25 g.Gen.prog) in
  Alcotest.(check string) "eva deterministic" a b;
  let a, b =
    twice (fun () -> Helpers.compile ~rbits:60 ~wbits:25 g.Gen.prog)
  in
  Alcotest.(check string) "reserve deterministic" a b

(* ------------------------------------------------------------------ *)
(* scheme equivalences on real ciphertexts *)

let ctx = lazy (Ckks.Context.make ~n:128 ~levels:3 ())

let keys = lazy (Ckks.Keys.keygen (Lazy.force ctx))

let test_modswitch_equals_upscale_rescale () =
  (* modswitch = upscale by R then rescale, up to noise *)
  let keys = Lazy.force keys in
  let v = Array.init 64 (fun i -> sin (float_of_int i) /. 2.0) in
  let ct = Ckks.Evaluator.encrypt keys ~level:3 ~scale:(2.0 ** 24.0) v in
  let a = Ckks.Evaluator.modswitch keys ct in
  let b =
    Ckks.Evaluator.rescale keys (Ckks.Evaluator.upscale keys ct 28)
  in
  Alcotest.(check int) "same level" a.Ckks.Evaluator.level b.Ckks.Evaluator.level;
  let da = Ckks.Evaluator.decrypt keys a and db = Ckks.Evaluator.decrypt keys b in
  Array.iteri
    (fun i x ->
      if Float.abs (x -. db.(i)) > 0.01 then
        Alcotest.failf "slot %d: %g vs %g" i x db.(i))
    (Array.sub da 0 64)

let test_add_commutes_with_rotate () =
  (* rot(x) + rot(y) = rot(x + y) *)
  let keys = Lazy.force keys in
  let g = Fhe_util.Prng.create 5 in
  let vec () = Array.init 64 (fun _ -> Fhe_util.Prng.uniform g ~lo:(-1.0) ~hi:1.0) in
  let x = vec () and y = vec () in
  let cx = Ckks.Evaluator.encrypt keys ~level:2 ~scale:(2.0 ** 24.0) x in
  let cy = Ckks.Evaluator.encrypt keys ~level:2 ~scale:(2.0 ** 24.0) y in
  let lhs =
    Ckks.Evaluator.add keys
      (Ckks.Evaluator.rotate keys cx 3)
      (Ckks.Evaluator.rotate keys cy 3)
  in
  let rhs = Ckks.Evaluator.rotate keys (Ckks.Evaluator.add keys cx cy) 3 in
  let dl = Ckks.Evaluator.decrypt keys lhs and dr = Ckks.Evaluator.decrypt keys rhs in
  Array.iteri
    (fun i v ->
      if i < 64 && Float.abs (v -. dr.(i)) > 0.05 then
        Alcotest.failf "slot %d: %g vs %g" i v dr.(i))
    dl

let test_bigint_of_int_roundtrip () =
  List.iter
    (fun x ->
      Alcotest.(check (float 0.0))
        (string_of_int x)
        (float_of_int x)
        (Ckks.Bigint.to_float (Ckks.Bigint.of_int x)))
    [ 0; 1; 67108863; 67108864; max_int / 2 ]

let suite =
  [ Alcotest.test_case "emit: annotations" `Quick test_emit_basics;
    Alcotest.test_case "emit: plain leaf cache" `Quick
      test_emit_plain_leaf_cache;
    Alcotest.test_case "identity program" `Quick test_identity_program;
    Alcotest.test_case "plain-only program" `Quick test_plain_only_program;
    Alcotest.test_case "duplicated outputs" `Quick test_same_output_twice;
    Alcotest.test_case "deep squaring tower" `Quick test_deep_square_tower;
    Alcotest.test_case "compilers deterministic" `Quick
      test_compilers_deterministic;
    Alcotest.test_case "ckks: modswitch = upscale;rescale" `Quick
      test_modswitch_equals_upscale_rescale;
    Alcotest.test_case "ckks: rotate distributes over add" `Quick
      test_add_commutes_with_rotate;
    Alcotest.test_case "bigint: of_int boundaries" `Quick
      test_bigint_of_int_roundtrip ]
