(* Shared fixtures and assertions. *)

open Fhe_ir

(* The paper's running example (Fig. 2a): x^3 * (y^2 + y). *)
let paper_example () =
  let b = Builder.create ~n_slots:4 () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let x2 = Builder.mul b x x in
  let x3 = Builder.mul b x x2 in
  let y2 = Builder.mul b y y in
  let s = Builder.add b y2 y in
  let q = Builder.mul b x3 s in
  (Builder.finish b ~outputs:[ q ], (x, y, x2, x3, y2, s, q))

let paper_inputs =
  [ ("x", [| 0.5; -0.25; 0.75; 1.0 |]); ("y", [| 0.25; 0.5; -0.5; 1.0 |]) ]

let check_valid m =
  match Validator.check m with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "invalid managed program:@ %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Validator.pp_error) es))

(* A managed program must compute the same function as its source, up to
   the propagated noise bound (plus slack for float association). *)
let check_equivalent ?(slack = 1e-9) src m inputs =
  let refs = Fhe_sim.Interp.run_reference src ~inputs in
  let outs = Fhe_sim.Interp.run m ~inputs in
  Array.iteri
    (fun i (v : Fhe_sim.Interp.value) ->
      let r = refs.(i) in
      Array.iteri
        (fun j x ->
          let bound = slack +. (slack *. Float.abs r.(j)) in
          if Float.abs (x -. r.(j)) > bound then
            Alcotest.failf "output %d slot %d: managed %g <> reference %g" i j
              x r.(j))
        v.data)
    outs

let float_approx ?(eps = 1e-9) () = Alcotest.float eps

(* Compiles go through the strategy registry, the one compile entry
   point; [strategy] defaults to reserve-full. *)
let config ?(xmax_bits = 0) ~rbits ~wbits () =
  Fhe_strategy.Strategy.config ~xmax_bits ~rbits ~wbits ()

let compile ?(strategy = "reserve-full") ?xmax_bits ~rbits ~wbits p =
  Fhe_strategy.Registry.compile
    (Fhe_strategy.Registry.get_exn strategy)
    (config ?xmax_bits ~rbits ~wbits ())
    p

let compile_safe ?(strict = false) ?oracle_inputs ~rbits ~wbits p =
  Fhe_strategy.Registry.compile_safe
    (Fhe_strategy.Registry.get_exn "reserve-full")
    (config ~rbits ~wbits ())
    ~strict ~oracle:true ?oracle_inputs p

let estimate = Fhe_cost.Model.estimate

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
