(* Bootstrap-insertion planning — the optimization the paper's
   conclusion motivates: "a fast and effective scale management scheme
   is crucial" because optimizations like bootstrap insertion invoke it
   repeatedly.

   We build a depth-24 encrypted polynomial iteration (think: many
   rounds of an approximated activation), far beyond what a practical
   modulus chain affords, and let the planner cut it into segments that
   each fit a 6-level budget, compiling every candidate segment with the
   reserve pipeline along the way.

     dune exec examples/bootstrap_planning.exe *)

open Fhe_ir

let () =
  (* x_{k+1} = 0.5·x_k² + 0.25·x_k  iterated 24 times *)
  let b = Builder.create ~n_slots:4096 () in
  let x0 = Builder.input b "x" in
  let half = Builder.const b 0.5 in
  let quarter = Builder.const b 0.25 in
  let rec iterate x k =
    if k = 0 then x
    else
      iterate
        (Builder.add b
           (Builder.mul b (Builder.square b x) half)
           (Builder.mul b x quarter))
        (k - 1)
  in
  let p = Builder.finish b ~outputs:[ iterate x0 24 ] in
  Printf.printf "circuit: %d ops, multiplicative depth %d\n"
    (Program.n_arith p)
    (Analysis.max_mult_depth p);

  let budget = 6 in
  match Fhe_strategy.Bootplan.plan ~max_level:budget ~rbits:60 ~wbits:30 p with
  | Error e ->
      prerr_endline e;
      exit 1
  | Ok plan ->
      Printf.printf "level budget %d -> %d segments, cut after depths [%s]\n"
        budget
        (List.length plan.Fhe_strategy.Bootplan.segments)
        (String.concat "; "
           (List.map string_of_int plan.Fhe_strategy.Bootplan.cuts));
      List.iteri
        (fun i m ->
          Printf.printf "  segment %d: %4d ops, L = %d, est %.3f s\n" i
            (Program.n_ops m.Managed.prog)
            (Managed.input_level m)
            (Fhe_cost.Model.estimate m /. 1e6))
        plan.Fhe_strategy.Bootplan.segments;
      Printf.printf
        "%d bootstraps -> total %.1f s (at 1 s per bootstrap)\n"
        plan.Fhe_strategy.Bootplan.bootstraps
        (plan.Fhe_strategy.Bootplan.total_latency_us /. 1e6);
      Printf.printf
        "the search ran scale management %d times in %.1f ms total —\n\
         at Hecate's exploration cost this planner would be infeasible\n"
        plan.Fhe_strategy.Bootplan.sm_invocations plan.Fhe_strategy.Bootplan.sm_time_ms
