(* The tensor tier (@tensor): the tensor frontend (lib/tensor) locked
   end to end.

   - lowering correctness: for every catalog app and every supported
     packing plan, the lowered circuit's plaintext reference
     (Fhe_sim.Interp.run_reference — rotations, masks, add trees) agrees
     with the DSL interpreter (Fhe_tensor.Lower.reference — direct index
     arithmetic, no circuit structure);
   - digest pins: the DSL-regenerated MLP and LeNets reproduce the
     hand-built op streams byte-for-byte (documented re-pins: the old
     full LeNet-5 stream carried GC-duplicated ops, and the LeNet
     miniatures lower under their exec-scale pin, see below);
   - exec-scale pins: each app's exec pin is the search winner at the
     exec geometry, MLP excepted by name;
   - layout search: the chosen plan is cost-minimal over every
     candidate, the candidate set obeys the packing support rules, and
     the whole search is byte-identical with and without a worker pool;
   - rotation-heavy lowerings through all 5 strategies and portfolio
     mode with zero §5 reserve-invariant violations;
   - the Constfold rotate-composition canonicalization;
   - the Progen/Coverage tensor profile reaches coverage bins the
     default profile never hits. *)

open Fhe_ir
module Reg = Fhe_apps.Registry
module Tn = Fhe_apps.Tensors
module Graph = Fhe_tensor.Graph
module Layout = Fhe_tensor.Layout
module Lower = Fhe_tensor.Lower
module Progen = Fhe_sim.Progen
module Coverage = Fhe_check.Coverage
module Invariants = Fhe_check.Invariants
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry
module Portfolio = Fhe_strategy.Portfolio

let str = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* lowering correctness: circuit reference vs DSL interpreter *)

(* exec-scale graphs keep every plan's lowering cheap; the compile-tier
   circuits are covered op-for-op by the digest pins below *)
let test_lowering_matches_reference () =
  List.iter
    (fun (e : Tn.entry) ->
      let g = e.Tn.exec_graph () in
      let data = e.Tn.exec_data ~seed:42 in
      List.iter
        (fun plan ->
          let what = str "%s/%s" e.Tn.name (Layout.name plan) in
          let p = Lower.lower ~plan g in
          let inputs = Lower.pack_inputs ~plan g ~data in
          let refs = Lower.reference ~plan g ~data in
          let got = Fhe_sim.Interp.run_reference p ~inputs in
          if Array.length got <> Array.length refs then
            Alcotest.failf "%s: %d outputs vs %d expected" what
              (Array.length got) (Array.length refs);
          Array.iteri
            (fun o slots ->
              Array.iteri
                (fun j x ->
                  let d = Float.abs (x -. refs.(o).(j)) in
                  if d > 1e-6 then
                    Alcotest.failf
                      "%s: output %d slot %d: circuit %g vs DSL %g" what o j
                      x refs.(o).(j))
                slots)
            got)
        (Lower.candidates g))
    Tn.all

(* the packed plans must agree with each other on the logical slots *)
let test_plans_agree_on_logical_slots () =
  let e = Tn.find "MLP" in
  let g = e.Tn.exec_graph () in
  let data = e.Tn.exec_data ~seed:7 in
  let out = Graph.dim g (List.hd (Graph.outputs g)) in
  let diag = Lower.reference ~plan:{ Layout.dense = Layout.Diag } g ~data in
  List.iter
    (fun plan ->
      let r = Lower.reference ~plan g ~data in
      let n = Graph.n_slots g in
      let d = Graph.dim g (List.hd (Graph.outputs g)) in
      ignore d;
      for r_i = 0 to out - 1 do
        (* user 0, logical component r_i under each packing *)
        let slot =
          match plan.Layout.dense with
          | Layout.Diag | Layout.Bsgs -> r_i
          | Layout.Interleaved ->
              let dim =
                match Graph.uniform_dim g with Some d -> d | None -> 0
              in
              r_i * (n / dim)
          | Layout.Blocked -> r_i
        in
        let a = diag.(0).(r_i) and b = r.(0).(slot) in
        if Float.abs (a -. b) > 1e-6 then
          Alcotest.failf "MLP %s: logical slot %d: %g vs diag %g"
            (Layout.name plan) r_i b a
      done)
    (Lower.candidates g)

(* ------------------------------------------------------------------ *)
(* digest pins: the regenerated apps vs the hand-built op streams *)

(* Pinned Intern digests of the historical hand-built builders.  The
   tensor lowering reproduces five of the six streams byte-for-byte.
   Lenet-5 (full, 16384 slots) is RE-PINNED: the old hand-built stream
   deterministically contained ~145 duplicated ops (e.g. `rotate %482
   16268` emitted twice) because the builder's dedup table keyed on
   weakly-held intern uids — a major GC mid-build reclaimed the nodes
   and equal kinds re-interned under fresh uids.  The builder now keeps
   interned nodes alive for its own lifetime (lib/ir/builder.ml), so
   the lowering emits the fully-deduplicated stream; the new digest is
   pinned here.  The circuit is semantically identical and strictly
   smaller (14329 vs 14474 ops).

   The two exec-scale miniatures (-small) are pinned under their own
   scale's pin, Lenet.exec_plan = diag, not the compile-scale bsgs. *)
let digest_pins =
  [ ("MLP", "c41fefb2bd4b8cd01298ed2bed825654",
     fun () -> Fhe_apps.Mlp.build ());
    ("MLP-exec", "2867986f2d1162b3203302c42ea676c0",
     fun () -> Fhe_apps.Mlp.build ~n_slots:128 ());
    ("Lenet-5", "2002fc2e84d31144eacbc7ebcfd1ce88",
     fun () -> Fhe_apps.Lenet.build Fhe_apps.Lenet.Mnist);
    ("Lenet-C", "fbc5ee20e587bd3537fb4cebfa6db706",
     fun () -> Fhe_apps.Lenet.build Fhe_apps.Lenet.Cifar);
    ("Lenet-5-small", "0324d642de625619e64d2484bd597f11",
     fun () -> Fhe_apps.Lenet.build_small Fhe_apps.Lenet.Mnist);
    ("Lenet-C-small", "c1836cb865f0a0ecb55716d2590bb58f",
     fun () -> Fhe_apps.Lenet.build_small Fhe_apps.Lenet.Cifar) ]

let test_digest_pins () =
  List.iter
    (fun (name, expect, build) ->
      let got = Intern.digest (build ()) in
      if got <> expect then
        Alcotest.failf
          "%s: regenerated digest %s differs from pinned %s (the DSL \
           lowering no longer reproduces the hand-built stream)"
          name got expect)
    digest_pins

(* the builder's dedup must be a pure function of the call sequence:
   a major GC between two equal emissions must not duplicate the op
   (the weak-intern regression behind the Lenet-5 re-pin above) *)
let test_builder_dedup_survives_gc () =
  let b = Builder.create ~n_slots:64 () in
  let x = Builder.input b "x" in
  let r1 = Builder.rotate b x 3 in
  Gc.full_major ();
  Gc.full_major ();
  let r2 = Builder.rotate b x 3 in
  if r1 <> r2 then
    Alcotest.failf
      "builder re-emitted rotate after GC: id %d then %d (dedup lost)" r1 r2

(* ------------------------------------------------------------------ *)
(* layout search: support rules, optimality, pool determinism *)

let plan_names g = List.map Layout.name (Lower.candidates g)

let test_candidate_support_rules () =
  (* unbatched, image-free, uniform width: every packing applies *)
  Alcotest.(check (list string))
    "MLP admits all four packings"
    [ "diag"; "bsgs"; "interleaved"; "blocked" ]
    (plan_names (Fhe_apps.Mlp.graph ()));
  (* batched: the replicate-trick packings are out *)
  Alcotest.(check (list string))
    "batched MLP admits only the batched packings"
    [ "interleaved"; "blocked" ]
    (plan_names (Fhe_apps.Mlp.graph_batched ()));
  (* images + a non-uniform dense head: only the packed plans *)
  Alcotest.(check (list string))
    "LeNet admits only the packed plans" [ "diag"; "bsgs" ]
    (plan_names (Fhe_apps.Lenet.graph Fhe_apps.Lenet.Mnist))

let test_search_cost_optimal () =
  List.iter
    (fun (e : Tn.entry) ->
      let g = e.Tn.exec_graph () in
      let cands, best = Lower.search g in
      if cands = [] then Alcotest.failf "%s: no candidates" e.Tn.name;
      List.iter
        (fun (c : Lower.candidate) ->
          if best.Lower.est > c.Lower.est then
            Alcotest.failf "%s: chose %s (%g) over cheaper %s (%g)" e.Tn.name
              (Layout.name best.Lower.plan)
              best.Lower.est (Layout.name c.Lower.plan) c.Lower.est;
          (* the estimate must be the recomputable objective *)
          let recomputed = Lower.cost c.Lower.prog in
          if recomputed <> c.Lower.est then
            Alcotest.failf "%s/%s: est %g but cost recomputes to %g" e.Tn.name
              (Layout.name c.Lower.plan) c.Lower.est recomputed)
        cands)
    Tn.all

(* One pin per scale: every exec-scale pin is the search winner at the
   exec tier's geometry (rbits 28, waterline 22), bar MLP's.  At 128
   slots MLP's search picks bsgs, but bsgs has mult depth 9 against
   diag's 6: +3 levels, +84 modulus bits at 28-bit primes.  The
   exception is asserted with its reason, so it goes stale loudly. *)
let test_exec_pins_match_search () =
  List.iter
    (fun (e : Tn.entry) ->
      let cands, best =
        Lower.search ~rbits:Reg.exec_rbits ~wbits:Reg.exec_wbits
          (e.Tn.exec_graph ())
      in
      let pin = Layout.name e.Tn.exec_plan in
      if e.Tn.name = "MLP" then begin
        let depth plan =
          let c = List.find (fun c -> c.Lower.plan = plan) cands in
          Analysis.max_mult_depth c.Lower.prog
        in
        Alcotest.(check string) "MLP exec pin: diag (the exception)" "diag"
          pin;
        Alcotest.(check string) "MLP exec-scale search winner" "bsgs"
          (Layout.name best.Lower.plan);
        Alcotest.(check (pair int int)) "MLP depth: diag vs bsgs" (6, 9)
          (depth e.Tn.exec_plan, depth best.Lower.plan)
      end
      else
        Alcotest.(check string)
          (str "%s exec pin = exec-scale search winner" e.Tn.name)
          (Layout.name best.Lower.plan) pin)
    Tn.all

let test_search_pool_identity () =
  List.iter
    (fun (e : Tn.entry) ->
      let g = e.Tn.exec_graph () in
      let seq_cands, seq_best = Lower.search g in
      let par_cands, par_best =
        Fhe_par.Pool.with_pool ~domains:4 (fun pool ->
            Lower.search ~pool (e.Tn.exec_graph ()))
      in
      Alcotest.(check int)
        (str "%s: same candidate count" e.Tn.name)
        (List.length seq_cands) (List.length par_cands);
      List.iter2
        (fun (a : Lower.candidate) (b : Lower.candidate) ->
          if a.Lower.plan <> b.Lower.plan then
            Alcotest.failf "%s: candidate order differs under pool" e.Tn.name;
          if a.Lower.est <> b.Lower.est then
            Alcotest.failf "%s/%s: estimate differs under pool" e.Tn.name
              (Layout.name a.Lower.plan);
          if Intern.digest a.Lower.prog <> Intern.digest b.Lower.prog then
            Alcotest.failf "%s/%s: lowered program differs under pool"
              e.Tn.name (Layout.name a.Lower.plan))
        seq_cands par_cands;
      if seq_best.Lower.plan <> par_best.Lower.plan then
        Alcotest.failf "%s: winner differs under pool" e.Tn.name)
    Tn.all

(* ------------------------------------------------------------------ *)
(* rotation-heavy lowerings x 5 strategies (+ portfolio): 0 violations *)

let rotation_heavy_programs () =
  let lowered =
    List.concat_map
      (fun (e : Tn.entry) ->
        let g = e.Tn.exec_graph () in
        List.map
          (fun plan ->
            (str "%s/%s" e.Tn.name (Layout.name plan), Lower.lower ~plan g))
          (Lower.candidates g))
      Tn.all
  in
  let generated =
    let profile = List.assoc "tensor" Coverage.profiles in
    List.init 10 (fun seed ->
        (str "progen-tensor-%d" seed, (Progen.make ~profile seed).Progen.prog))
  in
  lowered @ generated

let test_strategies_zero_violations () =
  let cfg = St.config ~iterations:10 ~rbits:60 ~wbits:30 () in
  List.iter
    (fun (what, p) ->
      List.iter
        (fun s ->
          let m = SReg.compile_uncached s cfg p in
          Validator.check_exn m;
          match Invariants.check m with
          | [] -> ()
          | v :: _ ->
              Alcotest.failf "%s under %s: %s at op %d (%s)" what (St.name s)
                v.Invariants.rule v.Invariants.op v.Invariants.detail)
        (SReg.all ()))
    (rotation_heavy_programs ())

let test_portfolio_zero_violations () =
  let cfg = St.config ~iterations:10 ~rbits:60 ~wbits:30 () in
  List.iter
    (fun (what, p) ->
      match Portfolio.run cfg p with
      | Error e -> Alcotest.failf "%s: portfolio failed: %s" what e
      | Ok r -> (
          match r.Portfolio.winner.Portfolio.result with
          | Error e -> Alcotest.failf "%s: winner failed: %s" what e
          | Ok m -> (
              Validator.check_exn m;
              match Invariants.check m with
              | [] -> ()
              | v :: _ ->
                  Alcotest.failf "%s portfolio winner: %s at op %d" what
                    v.Invariants.rule v.Invariants.op)))
    (rotation_heavy_programs ())

(* ------------------------------------------------------------------ *)
(* Constfold: rotate-of-rotate composes and canonicalizes *)

let test_constfold_rotate_composition () =
  let n = 16 in
  (* rotate 5 then rotate 13: 18 mod 16 = 2 — one canonical rotation *)
  let b = Builder.create ~n_slots:n () in
  let x = Builder.input b "x" in
  let r = Builder.rotate b (Builder.rotate b x 5) 13 in
  let p = Builder.finish b ~outputs:[ r ] in
  let folded = (Constfold.run p).Rewrite.prog in
  let rotations =
    Program.count folded ~f:(function Op.Rotate _ -> true | _ -> false)
  in
  Alcotest.(check int) "one rotation left" 1 rotations;
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Rotate (_, amt) ->
          Alcotest.(check int) "canonical amount in [0, slots)" 2 amt
      | _ -> ())
    folded;
  (* a chain that cancels exactly disappears *)
  let b = Builder.create ~n_slots:n () in
  let x = Builder.input b "x" in
  let r = Builder.rotate b (Builder.rotate b x 5) 11 in
  let p = Builder.finish b ~outputs:[ r ] in
  let folded = (Constfold.run p).Rewrite.prog in
  Alcotest.(check int) "cancelling chain folds away" 0
    (Program.count folded ~f:(function Op.Rotate _ -> true | _ -> false));
  (* semantics preserved on a longer mixed chain *)
  let b = Builder.create ~n_slots:n () in
  let x = Builder.input b "x" in
  let y = Builder.rotate b (Builder.rotate b (Builder.rotate b x 7) 12) 15 in
  let out = Builder.add b y x in
  let p = Builder.finish b ~outputs:[ out ] in
  let folded = (Constfold.run p).Rewrite.prog in
  let inputs = [ ("x", Array.init n (fun i -> float_of_int i)) ] in
  Alcotest.(check bool) "folded chain computes the same slots" true
    (Fhe_sim.Interp.run_reference p ~inputs
    = Fhe_sim.Interp.run_reference folded ~inputs)

(* ------------------------------------------------------------------ *)
(* coverage: the tensor profile reaches bins the default never hits *)

let coverage_of ~profile ~seeds =
  let c = Coverage.create () in
  for seed = 0 to seeds - 1 do
    ignore (Coverage.add c (Progen.make ?profile seed).Progen.prog)
  done;
  c

let test_tensor_profile_new_bins () =
  let seeds = 60 in
  let default = coverage_of ~profile:None ~seeds in
  let tensor =
    coverage_of
      ~profile:(Some (List.assoc "tensor" Coverage.profiles))
      ~seeds
  in
  let fresh =
    List.filter
      (fun f -> not (Coverage.mem default f))
      (Coverage.to_list tensor)
  in
  if fresh = [] then
    Alcotest.fail
      "tensor profile hit no coverage bin the default profile missed";
  (* the structural bin the profile exists for: chained rotations *)
  Alcotest.(check bool) "tensor profile reaches rot:chain" true
    (Coverage.mem tensor "rot:chain")

let suite =
  [ Alcotest.test_case "lowering matches the DSL reference (all plans)"
      `Quick test_lowering_matches_reference;
    Alcotest.test_case "packings agree on logical slots" `Quick
      test_plans_agree_on_logical_slots;
    Alcotest.test_case "digest pins: regenerated apps = hand-built streams"
      `Quick test_digest_pins;
    Alcotest.test_case "builder dedup survives a major GC" `Quick
      test_builder_dedup_survives_gc;
    Alcotest.test_case "candidate sets obey the packing support rules"
      `Quick test_candidate_support_rules;
    Alcotest.test_case "search winner is cost-minimal, est recomputable"
      `Quick test_search_cost_optimal;
    Alcotest.test_case "search byte-identical with and without a pool"
      `Quick test_search_pool_identity;
    Alcotest.test_case
      "rotation-heavy lowerings x 5 strategies: 0 invariant violations"
      `Slow test_strategies_zero_violations;
    Alcotest.test_case "portfolio winners: 0 invariant violations" `Slow
      test_portfolio_zero_violations;
    Alcotest.test_case "constfold composes rotate chains canonically"
      `Quick test_constfold_rotate_composition;
    Alcotest.test_case "tensor Progen profile reaches new coverage bins"
      `Quick test_tensor_profile_new_bins;
    Alcotest.test_case "exec pins = exec-scale search winners (MLP excepted)"
      `Quick test_exec_pins_match_search ]

let () = Alcotest.run "fhe-tensor" [ ("tensor", suite) ]
