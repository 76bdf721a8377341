(* Quickstart: the paper's running example, x^3 * (y^2 + y).

   Builds the circuit with the embedded DSL, scale-manages it with all
   three compilers, checks legality, prints the plans and their
   estimated latencies, and verifies the managed programs compute the
   same function as the unmanaged circuit.

     dune exec examples/quickstart.exe *)

open Fhe_ir

let () =
  (* 1. Write the program: only arithmetic, no scale management. *)
  let b = Builder.create ~n_slots:4 () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let x3 = Builder.mul b x (Builder.mul b x x) in
  let s = Builder.add b (Builder.mul b y y) y in
  let q = Builder.mul b x3 s in
  let program = Builder.finish b ~outputs:[ q ] in
  print_endline "-- source circuit --";
  print_string (Pp.program_to_string program);

  (* 2. Scale-manage it.  Waterline 2^20, rescaling factor 2^60, as in
     the paper's Figure 2. *)
  let rbits = 60 and wbits = 20 in
  let eva = Fhe_eva.Eva.compile ~rbits ~wbits program in
  let reserve =
    Fhe_strategy.Registry.(
      compile (get_exn "reserve-full")
        (Fhe_strategy.Strategy.config ~rbits ~wbits ()) program)
  in
  let hecate =
    (Fhe_hecate.Hecate.compile ~iterations:300 ~rbits ~wbits program)
      .Fhe_hecate.Hecate.managed
  in

  (* 3. Inspect the reserve compiler's plan: upscaled inputs, early
     rescales, and a rescale hoisted past the addition (Fig. 2d). *)
  print_endline "\n-- reserve-managed program (the paper's Fig. 2d plan) --";
  Format.printf "%a"
    (Pp.pp_managed ~scale:reserve.Managed.scale ~level:reserve.Managed.level)
    reserve.Managed.prog;

  (* 4. Every plan is legal and equivalent; compare estimated latency. *)
  let inputs = [ ("x", [| 0.5; -0.25; 0.75; 1.0 |]);
                 ("y", [| 0.25; 0.5; -0.5; 1.0 |]) ] in
  let reference = (Fhe_sim.Interp.run_reference program ~inputs).(0) in
  List.iter
    (fun (name, m) ->
      Validator.check_exn m;
      let out = (Fhe_sim.Interp.run m ~inputs).(0) in
      Array.iteri
        (fun i v -> assert (Float.abs (v -. reference.(i)) < 1e-9))
        out.Fhe_sim.Interp.data;
      Printf.printf "%-8s cost %6.1f x100us   L=%d   (slot0 = %.6f)\n" name
        (Fhe_cost.Model.estimate m /. 100.0)
        (Managed.input_level m) out.Fhe_sim.Interp.data.(0))
    [ ("EVA", eva); ("Hecate", hecate); ("reserve", reserve) ];
  Printf.printf "expected slot0 = %.6f\n" reference.(0)
