(* Ordering, allocation, redistribution, placement and the full reserve
   pipeline, checked against the paper's worked example and random
   programs. *)

open Fhe_ir
module R = Reserve.Rtype

let prm = R.params ~rbits:60 ~wbits:20

let test_ordering_paper () =
  (* Fig. 3b: allocation order q, x3, x2, s, y2, x, y *)
  let p, (x, y, x2, x3, y2, s, q) = Helpers.paper_example () in
  let rank = Reserve.Ordering.run prm p in
  Alcotest.(check int) "q first" 0 rank.(q);
  Alcotest.(check int) "x3" 1 rank.(x3);
  Alcotest.(check int) "x2" 2 rank.(x2);
  Alcotest.(check int) "s" 3 rank.(s);
  Alcotest.(check int) "y2" 4 rank.(y2);
  Alcotest.(check int) "x" 5 rank.(x);
  Alcotest.(check int) "y" 6 rank.(y)

let prop_ordering_is_permutation =
  QCheck.Test.make ~name:"ordering ranks are a permutation" ~count:100
    QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      let rank = Reserve.Ordering.run prm g.Gen.prog in
      let n = Array.length rank in
      let seen = Array.make n false in
      Array.iter (fun r -> seen.(r) <- true) rank;
      Array.for_all (fun b -> b) seen)

let test_allocation_paper () =
  (* Fig. 3d/3e: final reserves after redistribution *)
  let p, (x, y, x2, x3, y2, s, q) = Helpers.paper_example () in
  let order = Reserve.Ordering.run prm p in
  let a = Reserve.Allocation.run prm ~order p in
  let rho = a.Reserve.Allocation.rho in
  Alcotest.(check int) "q" 0 rho.(q);
  Alcotest.(check int) "x3 (redistributed 30 -> 20)" 20 rho.(x3);
  Alcotest.(check int) "s (absorbed 30 -> 40)" 40 rho.(s);
  Alcotest.(check int) "x2" 40 rho.(x2);
  Alcotest.(check int) "y2" 40 rho.(y2);
  Alcotest.(check int) "x" 80 rho.(x);
  Alcotest.(check int) "y" 80 rho.(y);
  (* x2 and y2 stay level-mismatched (rescales after them, Fig 2c) *)
  Alcotest.(check bool) "x2 mismatch" true a.Reserve.Allocation.mismatched.(x2);
  Alcotest.(check bool) "y2 mismatch" true a.Reserve.Allocation.mismatched.(y2);
  Alcotest.(check bool) "x3 resolved" false a.Reserve.Allocation.mismatched.(x3);
  Alcotest.(check int) "x2 operand level" 2 a.Reserve.Allocation.mul_level.(x2);
  Alcotest.(check int) "x3 operand level" 1 a.Reserve.Allocation.mul_level.(x3)

let test_allocation_without_redistribution () =
  let p, (_, _, _, x3, _, _, _) = Helpers.paper_example () in
  let order = Reserve.Ordering.run prm p in
  let a = Reserve.Allocation.run prm ~redistribute:false ~order p in
  (* without §6.3, x3 keeps reserve 30 and stays mismatched *)
  Alcotest.(check int) "x3 keeps 30" 30 a.Reserve.Allocation.rho.(x3);
  Alcotest.(check bool) "x3 mismatched" true
    a.Reserve.Allocation.mismatched.(x3)

let alloc_of prog ?(redistribute = true) () =
  let order = Reserve.Ordering.run prm prog in
  Reserve.Allocation.run prm ~redistribute ~order prog

(* Allocation invariants on random programs. *)
let prop_allocation_invariants =
  QCheck.Test.make ~name:"allocation: typing invariants (random)" ~count:80
    QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      let p = g.Gen.prog in
      let a = alloc_of p () in
      let rho = a.Reserve.Allocation.rho in
      let ok = ref true in
      Program.iteri
        (fun v k ->
          if Program.vtype p v = Op.Cipher then begin
            if rho.(v) < 0 then ok := false;
            match k with
            | Op.Mul (x, y)
              when Program.vtype p x = Op.Cipher
                   && Program.vtype p y = Op.Cipher ->
                let l = a.Reserve.Allocation.mul_level.(v) in
                let r0 = a.Reserve.Allocation.rin.(v).(0) in
                let r1 = a.Reserve.Allocation.rin.(v).(1) in
                (* Eq. Mul: rin sum and operand principal levels *)
                if r0 + r1 <> rho.(v) + (l * 60) then ok := false;
                if R.principal_level prm r0 <> l then ok := false;
                if R.principal_level prm r1 <> l then ok := false;
                (* subtyping: demands never exceed the operand reserve *)
                if r0 > rho.(x) || r1 > rho.(y) then ok := false
            | Op.Add (x, y) | Op.Sub (x, y) ->
                List.iter
                  (fun o ->
                    if Program.vtype p o = Op.Cipher && rho.(o) < rho.(v) then
                      ok := false)
                  [ x; y ]
            | _ -> ()
          end)
        p;
      !ok)

(* Redistribution is only per-step locally optimal (Theorem 1 under
   Assumption 1): individual programs can regress slightly, but across a
   population it must be a clear net win.  Measured over 100 seeds. *)
let test_redistribution_net_win () =
  let better = ref 0 and worse = ref 0 and net = ref 0.0 in
  for seed = 0 to 99 do
    let g = Gen.make seed in
    let cost v =
      Fhe_cost.Model.estimate
        (Helpers.compile ~strategy:v ~rbits:60 ~wbits:20 g.Gen.prog)
    in
    let ba = cost "reserve-ba" and ra = cost "reserve-ra" in
    if ra < ba -. 1e-6 then incr better;
    if ra > ba +. 1e-6 then incr worse;
    net := !net +. (ba -. ra)
  done;
  Alcotest.(check bool) "net saving positive" true (!net > 0.0);
  Alcotest.(check bool) "wins dominate losses" true (!better > 3 * !worse)

let test_placement_paper_costs () =
  (* Fig. 2c = 353, Fig. 2d = 335 (units of 100µs) *)
  let p, _ = Helpers.paper_example () in
  let ra = Helpers.compile ~strategy:"reserve-ra" ~rbits:60 ~wbits:20 p in
  Alcotest.(check (float 1.0)) "RA (Fig 2c)" 352.5
    (Fhe_cost.Model.estimate ra /. 100.0);
  let full = Helpers.compile ~rbits:60 ~wbits:20 p in
  Alcotest.(check (float 1.0)) "full (Fig 2d)" 334.4
    (Fhe_cost.Model.estimate full /. 100.0);
  Alcotest.(check int) "hoist merged one rescale"
    (Managed.n_rescale ra - 1)
    (Managed.n_rescale full)

let test_placement_semantics_paper () =
  let p, _ = Helpers.paper_example () in
  List.iter
    (fun variant ->
      let m = Helpers.compile ~strategy:variant ~rbits:60 ~wbits:20 p in
      Helpers.check_valid m;
      Helpers.check_equivalent p m Helpers.paper_inputs)
    [ "reserve-ba"; "reserve-ra"; "reserve-full" ]

let test_hoist_idempotent_on_hoisted () =
  let p, _ = Helpers.paper_example () in
  let m = Helpers.compile ~rbits:60 ~wbits:20 p in
  let m' = Reserve.Placement.hoist m in
  Alcotest.(check int) "no further rewrites" (Program.n_ops m.Managed.prog)
    (Program.n_ops m'.Managed.prog)

let prop_pipeline_valid_and_equivalent =
  QCheck.Test.make
    ~name:"reserve pipeline: legal + semantics preserved (random)" ~count:60
    QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      let m = Helpers.compile ~rbits:60 ~wbits:20 g.Gen.prog in
      Helpers.check_valid m;
      Helpers.check_equivalent g.Gen.prog m g.Gen.inputs;
      true)

let prop_pipeline_waterline_sweep =
  QCheck.Test.make ~name:"reserve pipeline: legal across waterlines"
    ~count:40
    QCheck.(pair small_int (int_range 15 45))
    (fun (seed, w) ->
      let g = Gen.make seed in
      let m = Helpers.compile ~rbits:60 ~wbits:w g.Gen.prog in
      Helpers.check_valid m;
      Helpers.check_equivalent g.Gen.prog m g.Gen.inputs;
      true)

let prop_ablation_ordering =
  QCheck.Test.make ~name:"hoisting never increases estimated latency"
    ~count:40 QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      let cost v =
        Fhe_cost.Model.estimate
          (Helpers.compile ~strategy:v ~rbits:60 ~wbits:20 g.Gen.prog)
      in
      let ra = cost "reserve-ra" and full = cost "reserve-full" in
      (* hoisting only applies positive-benefit rewrites in the very
         cost model used here, so it can never regress *)
      full <= ra +. 1e-6)

(* NOTE: on tiny, nearly-free random programs the backward analysis can
   lose to EVA outright — dropping the tail of the program to lower
   levels costs coercion rescales without reducing the input level, a
   blindness the paper acknowledges (§8.2, max 6.5% slowdowns).  The
   performance claim is therefore asserted on the real benchmarks in
   test_apps, not on random circuits. *)

let test_xmax_headroom () =
  let p, _ = Helpers.paper_example () in
  let roomy = Helpers.compile ~xmax_bits:50 ~rbits:60 ~wbits:20 p in
  Helpers.check_valid roomy;
  Program.iteri
    (fun i _ ->
      if Program.vtype roomy.Managed.prog i = Op.Cipher then
        Alcotest.(check bool) "reserve >= xmax" true
          (Managed.reserve roomy i >= 50))
    roomy.Managed.prog

(* the passes run directly: the registry's reserve strategies keep the
   paper's eager input upscale *)
let compile_lazy ~rbits ~wbits p =
  let prm = Reserve.Rtype.params ~rbits ~wbits in
  let order = Reserve.Ordering.run prm p in
  let alloc = Reserve.Allocation.run prm ~order p in
  Reserve.Placement.run ~eager_input_upscale:false p alloc

let test_lazy_input_upscale () =
  (* keeping inputs at the waterline lets coercions ride modswitches:
     on the paper example the plan improves from 335 to ~315 *)
  let p, _ = Helpers.paper_example () in
  let eager = Helpers.compile ~rbits:60 ~wbits:20 p in
  let lazy_m = compile_lazy ~rbits:60 ~wbits:20 p in
  Helpers.check_valid lazy_m;
  Helpers.check_equivalent p lazy_m Helpers.paper_inputs;
  Alcotest.(check bool) "lazy beats eager here" true
    (Fhe_cost.Model.estimate lazy_m < Fhe_cost.Model.estimate eager);
  Alcotest.(check bool) "uses a modswitch" true
    (Managed.n_modswitch lazy_m > Managed.n_modswitch eager)

let prop_lazy_input_upscale_valid =
  QCheck.Test.make ~name:"lazy input upscaling: legal + equivalent (random)"
    ~count:40 QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      let m = compile_lazy ~rbits:60 ~wbits:20 g.Gen.prog in
      Helpers.check_valid m;
      Helpers.check_equivalent g.Gen.prog m g.Gen.inputs;
      true)

let test_stats_reported () =
  let p, _ = Helpers.paper_example () in
  let module St = Fhe_strategy.Strategy in
  let _, ph =
    St.compile_with_phases
      (Fhe_strategy.Registry.get_exn "reserve-full")
      (Helpers.config ~rbits:60 ~wbits:20 ())
      p
  in
  Alcotest.(check bool) "total = sum of phases" true
    (Float.abs
       (ph.St.total_ms
       -. (ph.St.analyze_ms +. ph.St.annotate_ms +. ph.St.place_ms))
    < 1e-9)

let suite =
  [ Alcotest.test_case "ordering: paper example (Fig 3b)" `Quick
      test_ordering_paper;
    QCheck_alcotest.to_alcotest prop_ordering_is_permutation;
    Alcotest.test_case "allocation: paper example (Fig 3d/3e)" `Quick
      test_allocation_paper;
    Alcotest.test_case "allocation: redistribution off" `Quick
      test_allocation_without_redistribution;
    QCheck_alcotest.to_alcotest prop_allocation_invariants;
    Alcotest.test_case "redistribution: net win over population" `Quick
      test_redistribution_net_win;
    Alcotest.test_case "placement: paper costs (Fig 2c/2d)" `Quick
      test_placement_paper_costs;
    Alcotest.test_case "placement: semantics on paper example" `Quick
      test_placement_semantics_paper;
    Alcotest.test_case "hoist: fixpoint reached" `Quick
      test_hoist_idempotent_on_hoisted;
    QCheck_alcotest.to_alcotest prop_pipeline_valid_and_equivalent;
    QCheck_alcotest.to_alcotest prop_pipeline_waterline_sweep;
    QCheck_alcotest.to_alcotest prop_ablation_ordering;
    Alcotest.test_case "pipeline: x_max headroom" `Quick test_xmax_headroom;
    Alcotest.test_case "placement: lazy input upscaling" `Quick
      test_lazy_input_upscale;
    QCheck_alcotest.to_alcotest prop_lazy_input_upscale_valid;
    Alcotest.test_case "pipeline: stats" `Quick test_stats_reported ]
