(* Tests for the multicore engine (lib/par) and the parallel drivers
   built on it.

   The load-bearing property throughout: a parallel run is
   *byte-identical* to a sequential one.  Pool.map returns results in
   submission order, per-item PRNG streams are split from the seed up
   front, and every driver folds its results sequentially — so the
   tests here compare whole rendered reports across pool widths, not
   just summary counters. *)

module Pool = Fhe_par.Pool
module Chunk = Fhe_par.Chunk
module Prng = Fhe_util.Prng
module Timer = Fhe_util.Timer
module Conformance = Fhe_check.Conformance
module Differential = Fhe_check.Differential
module Fuzzdriver = Fhe_check.Fuzzdriver
module Progen = Fhe_sim.Progen

let str = Format.asprintf

(* ----------------------------------------------------------------- *)
(* Pool                                                               *)

let test_pool_ordered_results () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let xs = List.init 200 (fun i -> i) in
          let got = Pool.map pool (fun i -> i * i) xs in
          Alcotest.(check (list int))
            (str "squares in submission order at width %d" domains)
            (List.map (fun i -> i * i) xs)
            got))
    [ 1; 2; 4 ]

let test_pool_exception_propagation () =
  Pool.with_pool ~domains:4 (fun pool ->
      let ran = Atomic.make 0 in
      let f i =
        Atomic.incr ran;
        if i = 7 || i = 13 then failwith (Printf.sprintf "boom-%d" i);
        i
      in
      (match Pool.map pool f (List.init 20 (fun i -> i)) with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg ->
          (* two tasks fail; the lowest submission index wins,
             whatever order the domains ran them in *)
          Alcotest.(check string) "lowest-indexed failure" "boom-7" msg);
      Alcotest.(check int) "every task still ran" 20 (Atomic.get ran))

let test_pool_nested_use_rejected () =
  Pool.with_pool ~domains:2 (fun pool ->
      let saw =
        Pool.map pool
          (fun () ->
            match Pool.map pool (fun x -> x) [ 1; 2; 3 ] with
            | _ -> false
            | exception Invalid_argument _ -> true)
          [ (); () ]
      in
      Alcotest.(check (list bool))
        "map inside a task raises Invalid_argument" [ true; true ] saw)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check (list int))
    "pool works before shutdown" [ 2; 4 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.map pool (fun x -> x) [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_pool_iter_runs_everything () =
  Pool.with_pool ~domains:4 (fun pool ->
      let sum = Atomic.make 0 in
      Pool.iter pool (fun i -> ignore (Atomic.fetch_and_add sum i))
        (List.init 100 (fun i -> i));
      Alcotest.(check int) "iter visited every element" 4950 (Atomic.get sum))

let test_pool_width_one_stays_in_caller () =
  Pool.with_pool ~domains:1 (fun pool ->
      let self = Domain.self () in
      let where = Pool.map pool (fun () -> Domain.self ()) [ (); (); () ] in
      Alcotest.(check bool)
        "width 1 spawns no domains: tasks run in the caller" true
        (List.for_all (fun d -> d = self) where))

let test_pool_invalid_width () =
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains:0 should be rejected"
  | exception Invalid_argument _ -> ()

(* ----------------------------------------------------------------- *)
(* Chunk                                                              *)

let test_chunk_ranges_balanced () =
  List.iter
    (fun (chunks, n) ->
      let rs = Chunk.ranges ~chunks n in
      let total = List.fold_left (fun acc (_, len) -> acc + len) 0 rs in
      Alcotest.(check int) (str "ranges cover %d/%d" chunks n) n total;
      Alcotest.(check bool)
        "at most [chunks] ranges" true
        (List.length rs <= chunks);
      List.iter
        (fun (_, len) ->
          Alcotest.(check bool) "no empty range" true (len > 0))
        rs;
      (match rs with
      | [] -> Alcotest.(check int) "empty only when n = 0" 0 n
      | (s0, _) :: _ ->
          Alcotest.(check int) "starts at zero" 0 s0;
          ignore
            (List.fold_left
               (fun expected (s, len) ->
                 Alcotest.(check int) "contiguous" expected s;
                 s + len)
               0 rs));
      let lens = List.map snd rs in
      match (lens, List.rev lens) with
      | hi :: _, lo :: _ ->
          Alcotest.(check bool) "balanced within one" true (hi - lo <= 1)
      | _ -> ())
    [ (1, 10); (3, 10); (4, 13); (7, 5); (20, 3); (4, 0); (2, 1) ]

let test_chunk_split_identity () =
  List.iter
    (fun (chunks, n) ->
      let xs = List.init n (fun i -> i * 3) in
      Alcotest.(check (list int))
        (str "concat (split %d) = id over %d" chunks n)
        xs
        (List.concat (Chunk.split ~chunks xs)))
    [ (1, 10); (4, 13); (16, 5); (3, 0) ]

let test_chunk_invalid () =
  match Chunk.ranges ~chunks:0 5 with
  | _ -> Alcotest.fail "chunks:0 should be rejected"
  | exception Invalid_argument _ -> ()

(* ----------------------------------------------------------------- *)
(* Prng.split_n                                                       *)

let draws rng n = List.init n (fun _ -> Prng.next_int64 rng)

let test_split_n_deterministic () =
  let a = Prng.split_n (Prng.create 42) 8 in
  let b = Prng.split_n (Prng.create 42) 8 in
  Array.iteri
    (fun i sa ->
      Alcotest.(check bool)
        (str "stream %d reproducible from the seed" i)
        true
        (draws sa 16 = draws b.(i) 16))
    a

let test_split_n_streams_independent () =
  let streams = Prng.split_n (Prng.create 7) 6 in
  let firsts = Array.map (fun s -> Prng.next_int64 s) streams in
  let distinct =
    List.sort_uniq compare (Array.to_list firsts) |> List.length
  in
  Alcotest.(check int) "streams start differently" 6 distinct

let test_split_n_matches_sequential_splits () =
  (* split_n is by definition n sequential splits, taken before any
     work runs — the property that makes parallel generation
     scheduling-independent *)
  let root1 = Prng.create 99 and root2 = Prng.create 99 in
  let batch = Prng.split_n root1 4 in
  let seq = Array.init 4 (fun _ -> Prng.split root2) in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) (str "stream %d" i) true
        (draws s 8 = draws seq.(i) 8))
    batch;
  Alcotest.(check bool) "parent state advanced identically" true
    (draws root1 4 = draws root2 4)

(* ----------------------------------------------------------------- *)
(* Timer (monotonic clock)                                            *)

let test_timer_elapsed_non_negative () =
  for _ = 1 to 1000 do
    let ms = Timer.time_ms (fun () -> ()) in
    if ms < 0.0 then
      Alcotest.failf "monotonic elapsed time went negative: %f ms" ms
  done

let test_timer_now_monotone () =
  let prev = ref (Timer.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Timer.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "now_ns stepped backwards: %Ld -> %Ld" !prev t;
    prev := t
  done

let test_timer_measures_work () =
  let r, ms = Timer.time (fun () -> Array.init 100_000 float_of_int) in
  Alcotest.(check int) "result threaded through" 100_000 (Array.length r);
  Alcotest.(check bool) "elapsed is finite and non-negative" true
    (Float.is_finite ms && ms >= 0.0)

(* ----------------------------------------------------------------- *)
(* Registry.compile over a pool                                       *)

let fingerprint (m : Fhe_ir.Managed.t) =
  ( Fhe_ir.Program.ops m.Fhe_ir.Managed.prog,
    Fhe_ir.Program.outputs m.Fhe_ir.Managed.prog,
    m.Fhe_ir.Managed.scale,
    m.Fhe_ir.Managed.level )

let compile_batch ?pool progs =
  let reserve = Fhe_strategy.Registry.get_exn "reserve-full" in
  let cfg = Fhe_strategy.Strategy.config ~rbits:60 ~wbits:30 () in
  let one p =
    match Fhe_strategy.Registry.compile reserve cfg p with
    | m -> Ok m
    | exception e -> Error (Printexc.to_string e)
  in
  match pool with
  | None -> List.map one progs
  | Some pool -> Pool.map pool one progs

let test_compile_batch_matches_sequential () =
  let progs =
    List.init 6 (fun i -> (Progen.make ~size:20 (100 + i)).Progen.prog)
  in
  let seq = compile_batch progs in
  let par = Pool.with_pool ~domains:4 (fun pool -> compile_batch ~pool progs) in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      match (a, b) with
      | Ok ma, Ok mb ->
          Alcotest.(check bool) "same managed program" true
            (fingerprint ma = fingerprint mb)
      | Error ea, Error eb -> Alcotest.(check string) "same error" ea eb
      | _ -> Alcotest.fail "sequential and parallel disagree on success")
    seq par;
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "batch compilation failed: %s" e)
    seq

(* ----------------------------------------------------------------- *)
(* Determinism: the conformance sweep across pool widths              *)

let render_summary (s : Conformance.summary) progress_lines =
  str "%a@\n--@\n%s" Conformance.pp s (String.concat "\n" progress_lines)

let conformance_report ?pool ~seed () =
  let lines = ref [] in
  let s =
    Conformance.run ?pool ~apps:false ~gen:50 ~seed
      ~progress:(fun l -> lines := l :: !lines)
      ()
  in
  render_summary s (List.rev !lines)

let test_conformance_byte_identical_across_widths () =
  List.iter
    (fun seed ->
      let sequential = conformance_report ~seed () in
      let parallel =
        Pool.with_pool ~domains:4 (fun pool ->
            conformance_report ~pool ~seed ())
      in
      Alcotest.(check string)
        (str "seed %d: report and progress identical at widths 1 and 4" seed)
        sequential parallel)
    [ 1; 2; 3 ]

(* ----------------------------------------------------------------- *)
(* Determinism: the differential driver on a pool                     *)

let entry_shape (e : Differential.entry) =
  ( Differential.compiler_name e.Differential.compiler,
    e.Differential.input_level,
    e.Differential.modulus_bits,
    e.Differential.est_latency_us,
    e.Differential.validator_errors,
    List.length e.Differential.lemma_violations,
    (match e.Differential.oracle with
    | Some o -> Some (Fhe_sim.Oracle.ok o)
    | None -> None),
    e.Differential.crash )

let fst8 (x, _, _, _, _, _, _, _) = x

let test_differential_pool_matches_sequential () =
  let g = Progen.make ~size:30 5 in
  let seq =
    Differential.run ~label:"par-test" g.Progen.prog ~inputs:g.Progen.inputs
  in
  let par =
    Pool.with_pool ~domains:4 (fun pool ->
        Differential.run ~pool ~label:"par-test" g.Progen.prog
          ~inputs:g.Progen.inputs)
  in
  Alcotest.(check bool) "sequential run is clean" true (Differential.ok seq);
  Alcotest.(check bool) "parallel run is clean" true (Differential.ok par);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (str "entry %s identical" (fst8 (entry_shape a)))
        true
        (entry_shape a = entry_shape b))
    seq.Differential.entries par.Differential.entries

(* ----------------------------------------------------------------- *)
(* Stress: parallel fuzz under fault injection                        *)

let fuzz_shape (s : Fuzzdriver.stats) =
  ( s.Fuzzdriver.ok, s.Fuzzdriver.fellback, s.Fuzzdriver.failed,
    s.Fuzzdriver.crashed,
    Array.to_list s.Fuzzdriver.injected,
    Array.to_list s.Fuzzdriver.detected,
    Array.to_list s.Fuzzdriver.missed,
    Array.to_list s.Fuzzdriver.nosite,
    s.Fuzzdriver.crash_msgs )

let test_fuzz_parallel_matches_sequential () =
  let seq = Fuzzdriver.run ~seeds:80 () in
  let par =
    Pool.with_pool ~domains:4 (fun pool ->
        Fuzzdriver.run ~pool ~seeds:80 ())
  in
  (* no injected fault may escape the pool as a crash… *)
  Alcotest.(check int) "sequential: no crashes" 0 seq.Fuzzdriver.crashed;
  Alcotest.(check int) "parallel: no crashes" 0 par.Fuzzdriver.crashed;
  (match Fuzzdriver.verdict par with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* …and the diagnostic set must equal the sequential run's *)
  Alcotest.(check bool) "identical stats" true (fuzz_shape seq = fuzz_shape par);
  Alcotest.(check string) "identical rendered report"
    (str "%a" Fuzzdriver.pp seq)
    (str "%a" Fuzzdriver.pp par)

let test_fuzz_report_is_byte_stable_across_widths () =
  let reports =
    List.map
      (fun domains ->
        if domains = 1 then str "%a" Fuzzdriver.pp (Fuzzdriver.run ~seeds:40 ())
        else
          Pool.with_pool ~domains (fun pool ->
              str "%a" Fuzzdriver.pp (Fuzzdriver.run ~pool ~seeds:40 ())))
      [ 1; 2; 4 ]
  in
  match reports with
  | r1 :: rest ->
      List.iter
        (fun r -> Alcotest.(check string) "width-independent report" r1 r)
        rest
  | [] -> assert false

(* ----------------------------------------------------------------- *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "par"
    [
      ( "pool",
        [
          t "ordered results at widths 1/2/4" test_pool_ordered_results;
          t "exception propagation" test_pool_exception_propagation;
          t "nested use rejected" test_pool_nested_use_rejected;
          t "shutdown idempotent" test_pool_shutdown_idempotent;
          t "iter runs everything" test_pool_iter_runs_everything;
          t "width 1 stays in caller" test_pool_width_one_stays_in_caller;
          t "invalid width rejected" test_pool_invalid_width;
        ] );
      ( "chunk",
        [
          t "ranges balanced" test_chunk_ranges_balanced;
          t "split/concat identity" test_chunk_split_identity;
          t "invalid chunks rejected" test_chunk_invalid;
        ] );
      ( "prng",
        [
          t "split_n deterministic" test_split_n_deterministic;
          t "streams independent" test_split_n_streams_independent;
          t "matches sequential splits" test_split_n_matches_sequential_splits;
        ] );
      ( "timer",
        [
          t "elapsed non-negative" test_timer_elapsed_non_negative;
          t "now_ns monotone" test_timer_now_monotone;
          t "measures work" test_timer_measures_work;
        ] );
      ( "compile-batch",
        [ t "parallel = sequential" test_compile_batch_matches_sequential ] );
      ( "determinism",
        [
          t "conformance byte-identical (3 seeds)"
            test_conformance_byte_identical_across_widths;
          t "differential pool = sequential"
            test_differential_pool_matches_sequential;
        ] );
      ( "stress",
        [
          t "fuzz+faults parallel = sequential"
            test_fuzz_parallel_matches_sequential;
          t "fuzz report byte-stable at widths 1/2/4"
            test_fuzz_report_is_byte_stable_across_widths;
        ] );
    ]
