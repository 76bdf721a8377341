(* Parser, DOT export, security tables, serialization, waterline tuner
   and bootstrap planning. *)

open Fhe_ir

(* ------------------------------------------------------------------ *)
(* parser *)

let test_parse_basic () =
  let p =
    Parser.parse_exn
      {|
      # the paper's example
      %0 = input x : cipher
      %1 = input y : cipher
      %2 = mul %0 %0
      %3 = mul %0 %2
      %4 = mul %1 %1
      %5 = add %4 %1
      %6 = mul %3 %5
      ret %6
      |}
  in
  Alcotest.(check int) "ops" 7 (Program.n_ops p);
  Alcotest.(check int) "outputs" 1 (Array.length (Program.outputs p));
  Alcotest.(check int) "depth" 4 (Analysis.max_mult_depth p)

let test_parse_all_ops () =
  let p =
    Parser.parse_exn ~n_slots:8
      {|
      %0 = input x : cipher
      %1 = input w : plain
      %2 = const 0.5
      %3 = vconst [0.1, 0.2, 0.3]
      %4 = add %0 %2
      %5 = sub %4 %3
      %6 = neg %5
      %7 = rotate %6 3
      %8 = mul %7 %1
      %9 = rescale %8
      %10 = modswitch %9
      %11 = upscale %10 20
      ret %11, %7
      |}
  in
  Alcotest.(check int) "ops" 12 (Program.n_ops p);
  Alcotest.(check bool) "plain input" true (Program.vtype p 1 = Op.Plain)

let test_parse_roundtrip () =
  let b = Builder.create ~n_slots:8 () in
  let x = Builder.input b "x" in
  let v = Builder.vconst b [| 0.25; 0.5 |] in
  let e = Builder.rotate b (Builder.mul b (Builder.add b x v) x) 5 in
  let p = Builder.finish b ~outputs:[ e ] in
  let p' = Parser.parse_exn ~n_slots:8 (Pp.program_to_string p) in
  Alcotest.(check string) "printed forms equal" (Pp.program_to_string p)
    (Pp.program_to_string p');
  let inputs = [ ("x", [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |]) ] in
  let a = Fhe_sim.Interp.run_reference p ~inputs in
  let c = Fhe_sim.Interp.run_reference p' ~inputs in
  Alcotest.(check (array (float 1e-9))) "same function" a.(0) c.(0)

let expect_parse_error frag text =
  match Parser.parse text with
  | Ok _ -> Alcotest.failf "expected parse error mentioning %S" frag
  | Error e ->
      let msg = Format.asprintf "%a" Parser.pp_error e in
      if not (Helpers.contains msg frag) then
        Alcotest.failf "error %S does not mention %S" msg frag

let test_parse_errors () =
  expect_parse_error "missing ret" "%0 = const 1.0\n";
  expect_parse_error "dense" "%1 = const 1.0\nret %1\n";
  expect_parse_error "unknown operation" "%0 = frobnicate %1\nret %0\n";
  expect_parse_error "cipher or plain" "%0 = input x : weird\nret %0\n";
  expect_parse_error "duplicate ret" "%0 = const 1.0\nret %0\nret %0\n";
  expect_parse_error "expected a number" "%0 = const banana\nret %0\n";
  expect_parse_error "value id" "%0 = neg x\nret %0\n"

let test_parse_managed_annotations_ignored () =
  (* the managed printer's annotations parse as comments of the op *)
  let p =
    Parser.parse_exn
      "%0 = input x : cipher  : m=30 l=2\n%1 = mul %0 %0  : m=60 l=2\nret %1\n"
  in
  Alcotest.(check int) "ops" 2 (Program.n_ops p)

(* ------------------------------------------------------------------ *)
(* dot *)

let test_dot_export () =
  let p, _ = Helpers.paper_example () in
  let dot = Pp.to_dot p in
  Alcotest.(check bool) "digraph" true (Helpers.contains dot "digraph");
  Alcotest.(check bool) "edge" true (Helpers.contains dot "n0 -> n2");
  Alcotest.(check bool) "output marked" true (Helpers.contains dot "peripheries=2");
  let m = Fhe_eva.Eva.compile ~rbits:60 ~wbits:20 p in
  let dotm = Pp.to_dot ~managed:m m.Managed.prog in
  Alcotest.(check bool) "annotations" true (Helpers.contains dotm "m=");
  Alcotest.(check bool) "rescale boxed" true (Helpers.contains dotm "shape=box")

(* ------------------------------------------------------------------ *)
(* security *)

let test_security_table () =
  Alcotest.(check int) "n=8192 @128" 218
    (Ckks.Security.max_total_modulus_bits ~n:8192 Ckks.Security.B128);
  Alcotest.(check int) "n=32768 @256" 476
    (Ckks.Security.max_total_modulus_bits ~n:32768 Ckks.Security.B256);
  try
    ignore (Ckks.Security.max_total_modulus_bits ~n:512 Ckks.Security.B128);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_security_check () =
  (* 4 chain primes of 28 bits + a 29-bit special: ~141 bits *)
  let small = Ckks.Context.make ~n:8192 ~levels:4 () in
  Alcotest.(check bool) "fits 128-bit" true
    (Result.is_ok (Ckks.Security.check small Ckks.Security.B128));
  Alcotest.(check bool) "classified" true
    (Ckks.Security.classify small <> None);
  let big = Ckks.Context.make ~n:2048 ~levels:3 () in
  Alcotest.(check bool) "3x28+29 bits too much for n=2048" true
    (Result.is_error (Ckks.Security.check big Ckks.Security.B128))

let test_security_total_bits () =
  let ctx = Ckks.Context.make ~n:1024 ~levels:2 ~level_bits:20 () in
  let bits = Ckks.Security.total_modulus_bits ctx in
  (* 2 x ~20-bit primes + ~21-bit special *)
  Alcotest.(check bool) "within a couple of bits" true
    (bits >= 59 && bits <= 63)

(* ------------------------------------------------------------------ *)
(* serialization *)

let ser_ctx = lazy (Ckks.Context.make ~n:256 ~levels:3 ())

let ser_keys = lazy (Ckks.Keys.keygen ~rotations:[ 2 ] (Lazy.force ser_ctx))

let test_serialize_ciphertext () =
  let ctx = Lazy.force ser_ctx in
  let keys = Lazy.force ser_keys in
  let v = Array.init 128 (fun i -> cos (float_of_int i)) in
  let ct = Ckks.Evaluator.encrypt keys ~level:3 ~scale:(2.0 ** 24.0) v in
  let bytes = Ckks.Serialize.ciphertext_to_bytes ct in
  match Ckks.Serialize.ciphertext_of_bytes ctx bytes with
  | Error e -> Alcotest.failf "deserialize failed: %s" e
  | Ok ct' ->
      let dec = Ckks.Evaluator.decrypt keys ct' in
      Array.iteri
        (fun i x ->
          if Float.abs (x -. dec.(i)) > 1e-3 then
            Alcotest.failf "slot %d: %g vs %g" i x dec.(i))
        v

let test_serialize_rejects_garbage () =
  let ctx = Lazy.force ser_ctx in
  (match Ckks.Serialize.ciphertext_of_bytes ctx (Bytes.of_string "nope") with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (* flip the magic *)
  let keys = Lazy.force ser_keys in
  let ct =
    Ckks.Evaluator.encrypt keys ~level:2 ~scale:(2.0 ** 24.0) [| 1.0 |]
  in
  let bytes = Ckks.Serialize.ciphertext_to_bytes ct in
  Bytes.set bytes 0 'X';
  match Ckks.Serialize.ciphertext_of_bytes ctx bytes with
  | Ok _ -> Alcotest.fail "accepted bad magic"
  | Error e -> Alcotest.(check bool) "mentions magic" true (Helpers.contains e "magic")

let test_serialize_keys_roundtrip () =
  let ctx = Lazy.force ser_ctx in
  let keys = Lazy.force ser_keys in
  let blob = Ckks.Serialize.galois_keys_to_bytes keys in
  match Ckks.Serialize.load_evaluation_keys ctx ~secret:keys.Ckks.Keys.s blob with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok keys' ->
      (* the reloaded evaluation keys must evaluate correctly *)
      let v = Array.init 128 (fun i -> sin (float_of_int i) /. 2.0) in
      let ct = Ckks.Evaluator.encrypt keys' ~level:3 ~scale:(2.0 ** 24.0) v in
      let sq =
        Ckks.Evaluator.rescale keys' (Ckks.Evaluator.mul keys' ct ct)
      in
      let rot = Ckks.Evaluator.rotate keys' sq 2 in
      let dec = Ckks.Evaluator.decrypt keys' rot in
      Array.iteri
        (fun i x ->
          let expect = v.((i + 2) mod 128) ** 2.0 in
          if Float.abs (x -. expect) > 0.05 then
            Alcotest.failf "slot %d: %g vs %g" i x expect)
        (Array.sub dec 0 128)

(* ------------------------------------------------------------------ *)
(* tuner *)

let test_tuner_finds_waterline () =
  let p, _ = Helpers.paper_example () in
  let compile ~wbits = Fhe_eva.Eva.compile ~rbits:60 ~wbits p in
  match
    Fhe_sim.Tuner.tune_waterline ~compile ~inputs:Helpers.paper_inputs
      ~target_log2_error:(-10.0) ()
  with
  | None -> Alcotest.fail "no waterline found"
  | Some (w, m) ->
      Alcotest.(check bool) "meets target" true
        (Fhe_sim.Interp.max_log2_error m ~inputs:Helpers.paper_inputs <= -10.0);
      (* minimality: one bit less misses the target *)
      if w > 15 then
        Alcotest.(check bool) "minimal" true
          (Fhe_sim.Interp.max_log2_error
             (compile ~wbits:(w - 1))
             ~inputs:Helpers.paper_inputs
          > -10.0)

let test_tuner_unreachable_target () =
  let p, _ = Helpers.paper_example () in
  let compile ~wbits = Fhe_eva.Eva.compile ~rbits:60 ~wbits p in
  Alcotest.(check bool) "impossible target refused" true
    (Fhe_sim.Tuner.tune_waterline ~compile ~inputs:Helpers.paper_inputs
       ~target_log2_error:(-500.0) ()
    = None)

(* ------------------------------------------------------------------ *)
(* bootstrap planning *)

let deep_program depth =
  let b = Builder.create ~n_slots:8 () in
  let x = Builder.input b "x" in
  let rec go e k =
    if k = 0 then e
    else go (Builder.add b (Builder.square b e) (Builder.const b 0.1)) (k - 1)
  in
  Builder.finish b ~outputs:[ go x depth ]

let test_bootplan_fits_budget () =
  let p = deep_program 12 in
  match Fhe_strategy.Bootplan.plan ~max_level:4 ~rbits:60 ~wbits:30 p with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check bool) "needs several segments" true
        (List.length plan.Fhe_strategy.Bootplan.segments >= 2);
      Alcotest.(check bool) "budget respected" true
        (plan.Fhe_strategy.Bootplan.max_segment_level <= 4);
      Alcotest.(check bool) "bootstraps counted" true
        (plan.Fhe_strategy.Bootplan.bootstraps >= List.length plan.Fhe_strategy.Bootplan.segments - 1);
      Alcotest.(check bool) "many SM invocations, little SM time" true
        (plan.Fhe_strategy.Bootplan.sm_invocations >= 8)

let test_bootplan_single_segment_when_shallow () =
  let p = deep_program 2 in
  match Fhe_strategy.Bootplan.plan ~max_level:10 ~rbits:60 ~wbits:30 p with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check int) "one segment" 1
        (List.length plan.Fhe_strategy.Bootplan.segments);
      Alcotest.(check int) "no bootstraps" 0 plan.Fhe_strategy.Bootplan.bootstraps;
      Alcotest.(check (list int)) "no cuts" [] plan.Fhe_strategy.Bootplan.cuts

let test_bootplan_impossible () =
  let p = deep_program 6 in
  Alcotest.(check bool) "budget of one level cannot fit a square" true
    (Result.is_error (Fhe_strategy.Bootplan.plan ~max_level:1 ~rbits:60 ~wbits:45 p))

let test_bootplan_segments_valid () =
  let p = deep_program 9 in
  match Fhe_strategy.Bootplan.plan ~max_level:3 ~rbits:60 ~wbits:25 p with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      List.iter Helpers.check_valid plan.Fhe_strategy.Bootplan.segments;
      Alcotest.(check bool) "latency includes bootstrap cost" true
        (plan.Fhe_strategy.Bootplan.total_latency_us
        >= float_of_int plan.Fhe_strategy.Bootplan.bootstraps *. 1e6)

let suite =
  [ Alcotest.test_case "parser: basic" `Quick test_parse_basic;
    Alcotest.test_case "parser: all ops" `Quick test_parse_all_ops;
    Alcotest.test_case "parser: print/parse round trip" `Quick
      test_parse_roundtrip;
    Alcotest.test_case "parser: errors" `Quick test_parse_errors;
    Alcotest.test_case "parser: managed annotations" `Quick
      test_parse_managed_annotations_ignored;
    Alcotest.test_case "pp: dot export" `Quick test_dot_export;
    Alcotest.test_case "security: standard table" `Quick test_security_table;
    Alcotest.test_case "security: context check" `Quick test_security_check;
    Alcotest.test_case "security: modulus bits" `Quick
      test_security_total_bits;
    Alcotest.test_case "serialize: ciphertext round trip" `Quick
      test_serialize_ciphertext;
    Alcotest.test_case "serialize: rejects garbage" `Quick
      test_serialize_rejects_garbage;
    Alcotest.test_case "serialize: evaluation keys" `Quick
      test_serialize_keys_roundtrip;
    Alcotest.test_case "tuner: finds minimal waterline" `Quick
      test_tuner_finds_waterline;
    Alcotest.test_case "tuner: unreachable target" `Quick
      test_tuner_unreachable_target;
    Alcotest.test_case "bootplan: fits level budget" `Quick
      test_bootplan_fits_budget;
    Alcotest.test_case "bootplan: shallow programs untouched" `Quick
      test_bootplan_single_segment_when_shallow;
    Alcotest.test_case "bootplan: impossible budgets" `Quick
      test_bootplan_impossible;
    Alcotest.test_case "bootplan: segments legal" `Quick
      test_bootplan_segments_valid ]
