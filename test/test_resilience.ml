(* The resilience layer: structured diagnostics, the compile_safe
   fallback chain, and the fault-injection classes. *)

open Fhe_ir
module R = Fhe_strategy.Registry

(* ------------------------------------------------------------------ *)
(* compile_safe is total: never raises, and a success is validated and
   needed no fallback on well-formed arithmetic programs *)

let prop_compile_safe_total =
  QCheck.Test.make ~name:"compile_safe never raises; result validates"
    ~count:60 QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      match
        Helpers.compile_safe ~oracle_inputs:g.Gen.inputs ~rbits:60 ~wbits:25
          g.Gen.prog
      with
      | Ok o ->
          o.R.fallbacks = []
          && Result.is_ok (Validator.check o.R.managed)
      | Error _ -> false
      | exception _ -> false)

(* the chain is bounded even when every link fails *)
let prop_chain_terminates =
  QCheck.Test.make ~name:"fallback chain terminates (bounded attempts)"
    ~count:30 QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      match
        Helpers.compile_safe ~rbits:60 ~wbits:100 ~oracle_inputs:g.Gen.inputs
          g.Gen.prog
      with
      | Ok o -> List.length o.R.fallbacks <= 5
      | Error attempts ->
          List.length attempts <= 6 && R.attempt_diags attempts <> []
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* fallback semantics on a deliberately impossible primary config:
   waterline 62 > rbits 60 sinks reserve and EVA-at-62; the first
   degraded EVA waterline (62 - 5 = 57) must fire *)

let test_fallback_fires () =
  let g = Gen.make 7 in
  match
    Helpers.compile_safe ~oracle_inputs:g.Gen.inputs ~rbits:60 ~wbits:62
      g.Gen.prog
  with
  | Ok o ->
      Alcotest.(check int) "four failed attempts" 4 (List.length o.R.fallbacks);
      Alcotest.(check string) "eva engine" "eva" o.R.strategy;
      Alcotest.(check int) "degraded waterline" 57 o.R.wbits;
      Alcotest.(check bool) "degradation warning" true (o.R.warnings <> []);
      Helpers.check_valid o.R.managed;
      Helpers.check_equivalent g.Gen.prog o.R.managed g.Gen.inputs
  | Error _ -> Alcotest.fail "expected the degraded EVA fallback to succeed"

let test_strict_no_fallback () =
  let g = Gen.make 7 in
  match
    Helpers.compile_safe ~strict:true ~oracle_inputs:g.Gen.inputs ~rbits:60
      ~wbits:62 g.Gen.prog
  with
  | Ok _ -> Alcotest.fail "strict mode must not degrade"
  | Error attempts ->
      Alcotest.(check int) "exactly one attempt" 1 (List.length attempts);
      Alcotest.(check bool) "carries diagnostics" true
        (R.attempt_diags attempts <> [])

let test_chain_exhausted () =
  let g = Gen.make 3 in
  match
    Helpers.compile_safe ~oracle_inputs:g.Gen.inputs ~rbits:60 ~wbits:100
      g.Gen.prog
  with
  | Ok _ -> Alcotest.fail "waterline 100 > rbits can never compile"
  | Error attempts ->
      (* Full, Ra, Ba, EVA, EVA at 95 and 90 — and nothing more *)
      Alcotest.(check int) "whole chain attempted" 6 (List.length attempts);
      Alcotest.(check (list string))
        "links in chain order"
        (R.chain @ [ "eva"; "eva" ])
        (List.map (fun (a : R.attempt) -> a.R.strategy) attempts);
      List.iter
        (fun (a : R.attempt) ->
          Alcotest.(check bool)
            (Printf.sprintf "diags for %s" a.R.strategy)
            true
            (Reserve.Diag.errors a.R.diags <> []))
        attempts

(* ------------------------------------------------------------------ *)
(* pass-level safe entry points reject bad inputs with diagnostics *)

let test_pass_safe_diagnostics () =
  let prm = Reserve.Rtype.params ~rbits:60 ~wbits:25 in
  let g = Gen.make 11 in
  let managed_prog =
    Parser.parse_exn "%0 = input x : cipher\n%1 = rescale %0\nret %1"
  in
  (match Reserve.Ordering.run_safe prm managed_prog with
  | Ok _ -> Alcotest.fail "ordering must reject managed input"
  | Error ds ->
      let d = List.hd ds in
      Alcotest.(check string) "ordering pass" "ordering"
        (Reserve.Diag.pass_name d.Reserve.Diag.pass);
      Alcotest.(check bool) "op id attached" true (d.Reserve.Diag.op <> None));
  (match
     Reserve.Allocation.run_safe prm ~order:[| 0 |] g.Gen.prog
   with
  | Ok _ -> Alcotest.fail "allocation must reject a mis-sized order"
  | Error ds -> Alcotest.(check bool) "diag list" true (ds <> []));
  match Reserve.Ordering.run_safe prm g.Gen.prog with
  | Error _ -> Alcotest.fail "ordering rejected a well-formed program"
  | Ok order -> (
      match Reserve.Allocation.run_safe prm ~order g.Gen.prog with
      | Error _ -> Alcotest.fail "allocation rejected a well-formed program"
      | Ok alloc -> (
          match Reserve.Placement.run_safe g.Gen.prog alloc with
          | Error _ -> Alcotest.fail "placement rejected a well-formed program"
          | Ok m -> Helpers.check_valid m))

(* ------------------------------------------------------------------ *)
(* every fault-injection class is rejected by the validator, and each
   class finds at least one injection site across the seed set *)

let prop_faults_rejected =
  QCheck.Test.make ~name:"all fault classes rejected by the validator"
    ~count:40 QCheck.small_int (fun seed ->
      let g = Gen.make seed in
      let m = Helpers.compile ~rbits:60 ~wbits:25 g.Gen.prog in
      List.for_all
        (fun cls ->
          match Fhe_sim.Faults.inject cls ~seed m with
          | None -> true
          | Some bad -> Result.is_error (Validator.check bad))
        Fhe_sim.Faults.all)

let test_fault_classes_covered () =
  let hits = Hashtbl.create 4 in
  for seed = 0 to 39 do
    let g = Gen.make seed in
    let m = Helpers.compile ~rbits:60 ~wbits:25 g.Gen.prog in
    List.iter
      (fun cls ->
        match Fhe_sim.Faults.inject cls ~seed m with
        | Some bad when Result.is_error (Validator.check bad) ->
            Hashtbl.replace hits (Fhe_sim.Faults.name cls) ()
        | _ -> ())
      Fhe_sim.Faults.all
  done;
  List.iter
    (fun cls ->
      let n = Fhe_sim.Faults.name cls in
      Alcotest.(check bool) (n ^ " detected at least once") true
        (Hashtbl.mem hits n))
    Fhe_sim.Faults.all

let test_faults_deterministic () =
  let g = Gen.make 5 in
  let m = Helpers.compile ~rbits:60 ~wbits:25 g.Gen.prog in
  List.iter
    (fun cls ->
      let a = Fhe_sim.Faults.inject cls ~seed:9 m in
      let b = Fhe_sim.Faults.inject cls ~seed:9 m in
      match (a, b) with
      | None, None -> ()
      | Some x, Some y ->
          Alcotest.(check bool)
            (Fhe_sim.Faults.name cls ^ " deterministic")
            true
            (x.Managed.scale = y.Managed.scale
            && x.Managed.level = y.Managed.level
            && Program.n_ops x.Managed.prog = Program.n_ops y.Managed.prog)
      | _ -> Alcotest.fail "site discovery must be deterministic")
    Fhe_sim.Faults.all

(* ------------------------------------------------------------------ *)
(* the validator reports every violation in one sweep, each with its op *)

let test_validator_reports_all () =
  let g = Gen.make 13 in
  let m = Helpers.compile ~rbits:60 ~wbits:25 g.Gen.prog in
  let sites = ref [] in
  Program.iteri
    (fun i k ->
      if (not (Op.is_leaf k)) && Program.vtype m.Managed.prog i = Op.Cipher
      then sites := i :: !sites)
    m.Managed.prog;
  match !sites with
  | a :: b :: _ ->
      let scale = Array.copy m.Managed.scale in
      scale.(a) <- scale.(a) + 1;
      scale.(b) <- scale.(b) + 3;
      let bad =
        Managed.make ~prog:m.Managed.prog ~scale ~level:m.Managed.level
          ~rbits:m.Managed.rbits ~wbits:m.Managed.wbits
      in
      (match Validator.check bad with
      | Ok () -> Alcotest.fail "two corruptions must not validate"
      | Error es ->
          Alcotest.(check bool) "at least two violations" true
            (List.length es >= 2);
          let ops = List.map (fun (e : Validator.error) -> e.Validator.op) es in
          Alcotest.(check bool) "both ops named" true
            (List.mem a ops && List.mem b ops))
  | _ -> Alcotest.fail "generated program too small for two sites"

(* parse errors are typed values, renderable as diagnostics *)
let test_parse_error_diag () =
  match Parser.parse "%0 = frobnicate" with
  | Ok _ -> Alcotest.fail "nonsense must not parse"
  | Error e ->
      let d = Reserve.Diag.of_parse_error e in
      let s = Reserve.Diag.to_string d in
      Alcotest.(check bool) "mentions parse" true (Helpers.contains s "parse");
      Alcotest.(check bool) "mentions line" true (Helpers.contains s "line 1")

let suite =
  [ QCheck_alcotest.to_alcotest prop_compile_safe_total;
    QCheck_alcotest.to_alcotest prop_chain_terminates;
    QCheck_alcotest.to_alcotest prop_faults_rejected;
    Alcotest.test_case "fallback fires on impossible waterline" `Quick
      test_fallback_fires;
    Alcotest.test_case "strict mode never degrades" `Quick
      test_strict_no_fallback;
    Alcotest.test_case "exhausted chain returns every attempt" `Quick
      test_chain_exhausted;
    Alcotest.test_case "pass-level safe entry points" `Quick
      test_pass_safe_diagnostics;
    Alcotest.test_case "every fault class covered" `Quick
      test_fault_classes_covered;
    Alcotest.test_case "fault injection deterministic" `Quick
      test_faults_deterministic;
    Alcotest.test_case "validator reports all violations" `Quick
      test_validator_reports_all;
    Alcotest.test_case "parse errors as diagnostics" `Quick
      test_parse_error_diag ]
