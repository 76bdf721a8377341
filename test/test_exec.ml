(* The execution tier (@exec): pins on *real* encrypted runtime
   behaviour, locking down the optimized CKKS hot paths.

   - the optimized NTT kernels are bit-exact against the retained
     scalar Reference for every chain prime (and the special prime)
     across n = 2^4 .. 2^12, roundtrip to the identity, and implement
     negacyclic convolution (vs the O(n^2) schoolbook product);
   - the optimized forward transform is measurably faster than the
     Reference at n = 2^12 (the regression guard for its speedup);
   - the call-free Poly row kernels and key switch are bit-exact
     against their retained Reference at every level 1..4, with and
     without the special row, n = 2^4 .. 2^12, at pool widths 1 and 4;
     the NTT-domain automorphism equals the coefficient-domain map for
     every rotation-group element and g = 2n - 1; the optimized key
     switch is at least 1.3x its Reference at n = 2^10, L = 12;
   - all 8 registry apps plus the 2 tensor-frontend apps x all 5
     compilers execute end-to-end on Ckks.Backend within their pinned
     decrypt-precision bounds;
   - runs are byte-identical at pool widths 1 and 4 (deterministic
     parallelism of the RNS limb fan-out);
   - hoisted rotations ([Evaluator.hoist] + [rotate_hoisted]) are
     bit-exact against the Reference automorphism + key switch, the
     backend's hoisting peephole decrypts LeNet-5 and MLP bit for bit
     like a per-op run, and 24 rotations from one hoist are at least
     2x as fast as 24 per-op rotations at n = 2^10, L = 12;
   - the special prime is never a chain prime, and plaintext rotation
     by a negative amount works in Interp and Backend;
   - the bytes of an encrypt_det ciphertext are pinned by MD5, and so
     are the decrypted float bits of all 8 registry apps under
     reserve-full;
   - the lazily reduced key-switch multiply-accumulate is bit-exact
     where it folds in mid-sum (L = 17, 33, 65, worst-case products
     included), and splat plaintexts give the encoder path's bits. *)

open Fhe_ir
module Reg = Fhe_apps.Registry

let rbits = 28

let wbits = 22

(* ------------------------------------------------------------------ *)
(* NTT: optimized kernels vs the scalar Reference *)

(* primes ≡ 1 (mod 2·4096) serve every n ≤ 4096 *)
let chain_primes = Ckks.Primes.ntt_prime_chain ~n:4096 ~bits:28 ~count:6

let special_prime =
  let ctx = Ckks.Context.make ~n:4096 ~levels:2 () in
  ctx.Ckks.Context.special

let all_primes = chain_primes @ [ special_prime ]

let test_ntt_bit_exact () =
  List.iter
    (fun p ->
      List.iter
        (fun logn ->
          let n = 1 lsl logn in
          let plan = Ckks.Ntt.make_plan ~n ~p in
          let g = Fhe_util.Prng.create ((logn * 7919) + (p land 0xFFFF)) in
          let a = Array.init n (fun _ -> Fhe_util.Prng.int g p) in
          let r = Array.copy a in
          let v = Ckks.Rvec.of_array a in
          Ckks.Ntt.Reference.forward plan r;
          Ckks.Ntt.forward plan v;
          if Ckks.Rvec.to_array v <> r then
            Alcotest.failf "forward differs from Reference: p=%d n=%d" p n;
          Ckks.Ntt.Reference.inverse plan r;
          Ckks.Ntt.inverse plan v;
          if Ckks.Rvec.to_array v <> r then
            Alcotest.failf "inverse differs from Reference: p=%d n=%d" p n;
          if r <> a then
            Alcotest.failf "roundtrip is not the identity: p=%d n=%d" p n)
        [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    all_primes

(* schoolbook negacyclic product, the O(n^2) oracle *)
let negacyclic_mul a b ~n ~p =
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let v = Ckks.Modarith.mul a.(i) b.(j) ~m:p in
      if k < n then out.(k) <- Ckks.Modarith.add out.(k) v ~m:p
      else out.(k - n) <- Ckks.Modarith.sub out.(k - n) v ~m:p
    done
  done;
  out

let test_ntt_negacyclic () =
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          let plan = Ckks.Ntt.make_plan ~n ~p in
          let br = Ckks.Ntt.barrett plan in
          let g = Fhe_util.Prng.create (n + (p land 0xFFFF)) in
          let a = Array.init n (fun _ -> Fhe_util.Prng.int g p) in
          let b = Array.init n (fun _ -> Fhe_util.Prng.int g p) in
          let expect = negacyclic_mul a b ~n ~p in
          let fa = Ckks.Rvec.of_array a and fb = Ckks.Rvec.of_array b in
          Ckks.Ntt.forward plan fa;
          Ckks.Ntt.forward plan fb;
          let fc =
            Ckks.Rvec.of_array
              (Array.init n (fun i ->
                   Ckks.Modarith.Barrett.mul br (Ckks.Rvec.get fa i)
                     (Ckks.Rvec.get fb i)))
          in
          Ckks.Ntt.inverse plan fc;
          if Ckks.Rvec.to_array fc <> expect then
            Alcotest.failf "negacyclic product differs: p=%d n=%d" p n)
        [ 16; 32 ])
    [ List.hd chain_primes; special_prime ]

let test_ntt_speedup () =
  let n = 4096 in
  let p = List.hd chain_primes in
  let plan = Ckks.Ntt.make_plan ~n ~p in
  let g = Fhe_util.Prng.create 5 in
  let a = Array.init n (fun _ -> Fhe_util.Prng.int g p) in
  let reps = 100 in
  let time f =
    ignore (f ());
    let _, ms =
      Fhe_util.Timer.time (fun () ->
          for _ = 1 to reps do
            f ()
          done)
    in
    ms /. float_of_int reps
  in
  (* both kernels map canonical residues to canonical residues *)
  let scratch = Array.copy a in
  let t_ref = time (fun () -> Ckks.Ntt.Reference.forward plan scratch) in
  let v = Ckks.Rvec.of_array a in
  let t_opt = time (fun () -> Ckks.Ntt.forward plan v) in
  let speedup = t_ref /. t_opt in
  if speedup < 3.0 then
    Alcotest.failf
      "optimized NTT only %.2fx over Reference at n=%d (want >= 3x): \
       %.3f ms vs %.3f ms"
      speedup n t_opt t_ref

(* ------------------------------------------------------------------ *)
(* Ring kernels: the call-free Poly kernels and key switch vs the
   retained Reference code *)

module P = Ckks.Poly

let same_poly what (got : P.t) (want : P.t) =
  if
    got.P.level <> want.P.level || got.P.special <> want.P.special
    || got.P.ntt <> want.P.ntt
    || Array.length got.P.data <> Array.length want.P.data
  then Alcotest.failf "%s: basis or form differs from Reference" what;
  Array.iteri
    (fun r v ->
      if Ckks.Rvec.to_array v <> Ckks.Rvec.to_array want.P.data.(r) then
        Alcotest.failf "%s: row %d differs from Reference" what r)
    got.P.data

(* uniform canonical residues on every row of the basis *)
let random_poly g (ctx : Ckks.Context.t) ~level ~special ~ntt =
  let p = P.zero ctx ~level ~special ~ntt in
  Array.iteri
    (fun r row ->
      let q = Ckks.Context.prime ctx (P.prime_index ctx p r) in
      for j = 0 to ctx.Ckks.Context.n - 1 do
        Ckks.Rvec.set row j (Fhe_util.Prng.int g q)
      done)
    p.P.data;
  p

(* run [f] sequentially, then again with a 4-domain pool attached *)
let at_widths ctx f =
  f 1;
  Fhe_par.Pool.with_pool ~domains:4 (fun pool ->
      Ckks.Context.set_pool ctx (Some pool);
      Fun.protect
        ~finally:(fun () -> Ckks.Context.set_pool ctx None)
        (fun () -> f 4))

let kernel_levels = 4

let kernel_logns = [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let test_poly_kernels_bit_exact () =
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      let ctx = Ckks.Context.make ~n ~levels:kernel_levels () in
      let g = Fhe_util.Prng.create (logn * 31) in
      at_widths ctx (fun width ->
          for level = 1 to kernel_levels do
            List.iter
              (fun special ->
                let tag s =
                  Printf.sprintf "%s n=%d level=%d special=%b -j%d" s n level
                    special width
                in
                List.iter
                  (fun ntt ->
                    let tag s = tag (if ntt then s ^ " (ntt)" else s) in
                    let a = random_poly g ctx ~level ~special ~ntt in
                    let b = random_poly g ctx ~level ~special ~ntt in
                    same_poly (tag "add") (P.add ctx a b)
                      (Ckks.Reference.Poly.add ctx a b);
                    same_poly (tag "sub") (P.sub ctx a b)
                      (Ckks.Reference.Poly.sub ctx a b);
                    same_poly (tag "neg") (P.neg ctx a)
                      (Ckks.Reference.Poly.neg ctx a);
                    (* any integer scalar, negative and beyond q included *)
                    let scalar pi = ((pi * 7919) - 3) * 1_000_003 in
                    same_poly (tag "mul_scalar_fn")
                      (P.mul_scalar_fn ctx a scalar)
                      (Ckks.Reference.Poly.mul_scalar_fn ctx a scalar);
                    let gal = Ckks.Keys.galois_element ctx 1 in
                    same_poly (tag "automorphism")
                      (P.automorphism ctx a ~g:gal)
                      (Ckks.Reference.Poly.automorphism ctx a ~g:gal);
                    if ntt then begin
                      same_poly (tag "mul") (P.mul ctx a b)
                        (Ckks.Reference.Poly.mul ctx a b);
                      let full = if special then level else level - 1 in
                      if full >= 1 then begin
                        same_poly (tag "drop_last") (P.drop_last ctx a)
                          (Ckks.Reference.Poly.drop_last ctx a);
                        for keep = 1 to full do
                          same_poly
                            (tag (Printf.sprintf "drop_last ~keep:%d" keep))
                            (P.drop_last ~keep ctx a)
                            (Ckks.Reference.Poly.drop_last ~keep ctx a)
                        done
                      end
                    end)
                  [ false; true ];
                (* signed coefficients: sampled ones, then wide ones and
                   exact multiples of the primes *)
                let q0 = Ckks.Context.prime ctx 0 in
                let coeffs =
                  Array.init n (fun j ->
                      match j mod 4 with
                      | 0 -> Fhe_util.Prng.int g 17 - 8
                      | 1 -> Fhe_util.Prng.int g (1 lsl 40) - (1 lsl 39)
                      | 2 -> (j - (n / 2)) * q0
                      | _ -> ((j - (n / 2)) * q0) + (j land 1) - 1)
                in
                same_poly (tag "of_coeff_array")
                  (P.of_coeff_array ctx ~level ~special coeffs)
                  (Ckks.Reference.Poly.of_coeff_array ctx ~level ~special coeffs))
              [ false; true ];
            (* integer-valued floats: random ones up to 2^53, values one
               off a multiple of each prime (where a float quotient
               rounds across an integer), the 2^53 boundary and
               magnitudes only the exact Float.rem path handles *)
            let fc =
              Array.init n (fun j ->
                  let q = Ckks.Context.prime ctx (j mod level) in
                  let k = Fhe_util.Prng.int g (1 lsl 53 / q) in
                  let sign = if j land 2 = 0 then 1.0 else -1.0 in
                  match j mod 8 with
                  | 0 -> sign *. Float.of_int (Fhe_util.Prng.int g (1 lsl 53))
                  | 1 -> sign *. Float.of_int ((k * q) - 1)
                  | 2 -> sign *. Float.of_int (k * q)
                  | 3 -> sign *. Float.of_int ((k * q) + 1)
                  | 4 -> sign *. (0x1p53 -. 1.0)
                  | 5 -> sign *. 0x1p53
                  | 6 -> sign *. Float.ldexp 1.0 (53 + (j mod 200))
                  | _ -> if j land 2 = 0 then -0.0 else sign *. 1e9)
            in
            same_poly
              (Printf.sprintf "of_float_coeffs n=%d level=%d -j%d" n level
                 width)
              (P.of_float_coeffs ctx ~level fc)
              (Ckks.Reference.Poly.of_float_coeffs ctx ~level fc)
          done))
    kernel_logns

let test_keyswitch_bit_exact () =
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      let ctx = Ckks.Context.make ~n ~levels:kernel_levels () in
      let keys = Ckks.Keys.keygen ~rotations:[ 1 ] ctx in
      let g = Fhe_util.Prng.create (logn + 17) in
      at_widths ctx (fun width ->
          for level = 1 to kernel_levels do
            let x = random_poly g ctx ~level ~special:false ~ntt:true in
            List.iter
              (fun (name, sk) ->
                let b, a = Ckks.Evaluator.key_switch keys x sk in
                let b', a' = Ckks.Reference.Evaluator.key_switch keys x sk in
                let tag c =
                  Printf.sprintf "key_switch %s %s n=%d level=%d -j%d" name c n
                    level width
                in
                same_poly (tag "b") b b';
                same_poly (tag "a") a a')
              [ ("relin", Ckks.Keys.relin_key keys);
                ("galois", Ckks.Keys.galois_key keys 1) ]
          done))
    kernel_logns

(* Narrow primes at a large ring degree spread over several bit widths
   (the chain walks away from 2^level_bits to find enough primes), so
   centered lifts can exceed the target prime and take the divide: the
   key-switch lift on a 17-bit chain at n = 2^10, and the rescale lift
   on a 16-bit chain at n = 2^12 (whose special prime collides with a
   chain prime, so it is used for rescaling only). *)
let test_wide_chain_bit_exact () =
  let levels = 12 in
  let g = Fhe_util.Prng.create 77 in
  let ctx = Ckks.Context.make ~n:1024 ~levels ~level_bits:17 () in
  let keys = Ckks.Keys.keygen ~rotations:[ 1 ] ctx in
  List.iter
    (fun level ->
      let x = random_poly g ctx ~level ~special:false ~ntt:true in
      List.iter
        (fun (name, sk) ->
          let b, a = Ckks.Evaluator.key_switch keys x sk in
          let b', a' = Ckks.Reference.Evaluator.key_switch keys x sk in
          let tag c =
            Printf.sprintf "wide key_switch %s %s level=%d" name c level
          in
          same_poly (tag "b") b b';
          same_poly (tag "a") a a')
        [ ("relin", Ckks.Keys.relin_key keys);
          ("galois", Ckks.Keys.galois_key keys 1) ])
    [ 1; 2; 6; levels ];
  let ctx = Ckks.Context.make ~n:4096 ~levels ~level_bits:16 () in
  List.iter
    (fun level ->
      let p = random_poly g ctx ~level ~special:false ~ntt:true in
      same_poly
        (Printf.sprintf "wide drop_last level=%d" level)
        (P.drop_last ctx p) (Ckks.Reference.Poly.drop_last ctx p))
    [ 2; 7; levels ]

(* the NTT-domain gather against the coefficient-domain map, for every
   element of the rotation group and for conjugation (g = 2n - 1) *)
let test_automorphism_ntt_domain () =
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      let ctx = Ckks.Context.make ~n ~levels:2 () in
      let g = Fhe_util.Prng.create (logn + 101) in
      let c = random_poly g ctx ~level:2 ~special:true ~ntt:false in
      let e = P.to_ntt ctx c in
      let check gal =
        same_poly
          (Printf.sprintf "automorphism n=%d g=%d vs coefficient domain" n gal)
          (P.automorphism ctx e ~g:gal)
          (P.to_ntt ctx (P.automorphism ctx c ~g:gal))
      in
      Array.iter check (Ckks.Fftc.rot_group ctx.Ckks.Context.fft);
      check ((2 * n) - 1))
    kernel_logns

(* In the bounds-checked debug mode (CI runs this tier once with
   FHE_CKKS_CHECKED=1) every unchecked kernel rejects a row of the
   wrong length before touching it; otherwise there is nothing to do. *)
let test_kernel_guards () =
  if Ckks.Rvec.checked then begin
    let ctx = Ckks.Context.make ~n:16 ~levels:2 () in
    let keys = Ckks.Keys.keygen ctx in
    let g = Fhe_util.Prng.create 3 in
    let a = random_poly g ctx ~level:2 ~special:true ~ntt:true in
    let short (p : P.t) =
      let first_short r v = if r = 0 then Ckks.Rvec.create 8 else v in
      { p with P.data = Array.mapi first_short p.P.data }
    in
    let bad = short a in
    let rejects what f =
      match f () with
      | _ -> Alcotest.failf "%s accepted a short row" what
      | exception Invalid_argument _ -> ()
    in
    rejects "add" (fun () -> P.add ctx a bad);
    rejects "sub" (fun () -> P.sub ctx bad a);
    rejects "mul" (fun () -> P.mul ctx a bad);
    rejects "neg" (fun () -> P.neg ctx bad);
    rejects "mul_scalar_fn" (fun () -> P.mul_scalar_fn ctx bad (fun _ -> 3));
    rejects "automorphism" (fun () -> P.automorphism ctx bad ~g:3);
    rejects "drop_last" (fun () -> P.drop_last ctx bad);
    let x = random_poly g ctx ~level:2 ~special:false ~ntt:true in
    let sk = Ckks.Keys.relin_key keys in
    rejects "key_switch"
      (fun () ->
        Ckks.Evaluator.key_switch keys x
          { sk with Ckks.Keys.kb = Array.map short sk.Ckks.Keys.kb })
  end

(* median-of-runs ms of [f], interleaved with [g]'s so host drift hits
   both alike *)
let paired_medians ~runs f g =
  ignore (f ());
  ignore (g ());
  let tf = Array.make runs 0.0 and tg = Array.make runs 0.0 in
  for i = 0 to runs - 1 do
    tf.(i) <- snd (Fhe_util.Timer.time f);
    tg.(i) <- snd (Fhe_util.Timer.time g)
  done;
  Array.sort compare tf;
  Array.sort compare tg;
  (tf.(runs / 2), tg.(runs / 2))

let test_keyswitch_speedup () =
  let n = 1024 and levels = 12 in
  let ctx = Ckks.Context.make ~n ~levels () in
  let keys = Ckks.Keys.keygen ctx in
  let sk = Ckks.Keys.relin_key keys in
  let x =
    random_poly (Fhe_util.Prng.create 9) ctx ~level:levels ~special:false
      ~ntt:true
  in
  let t_ref, t_opt =
    paired_medians ~runs:9
      (fun () -> Ckks.Reference.Evaluator.key_switch keys x sk)
      (fun () -> Ckks.Evaluator.key_switch keys x sk)
  in
  let speedup = t_ref /. t_opt in
  if speedup < 1.3 then
    Alcotest.failf
      "optimized key_switch only %.2fx over Reference at n=%d, L=%d (want \
       >= 1.3x): %.3f ms vs %.3f ms"
      speedup n levels t_opt t_ref

(* ------------------------------------------------------------------ *)
(* 8 apps x 5 compilers: decrypt-precision pins on the real backend *)

let compilers = Fhe_strategy.Registry.names ()

let compile_with name p ~xmax_bits =
  Fhe_strategy.Registry.compile
    (Fhe_strategy.Registry.get_exn name)
    (Fhe_strategy.Strategy.config ~xmax_bits ~iterations:60 ~rbits ~wbits ())
    p

let max_err refs got =
  let worst = ref 0.0 in
  Array.iteri
    (fun o e ->
      Array.iteri
        (fun j x ->
          let d = Float.abs (x -. got.(o).(j)) in
          if d > !worst then worst := d)
        e)
    refs;
  !worst

(* a budget tight enough to force ciphertext spilling on every exec
   app (a level-6 ct at n=512 is ~49 KiB) while the generous key bound
   keeps switch keys resident — key thrash is @mem's subject, not this
   tier's *)
let tight_ct_budget = 262_144

let roomy_key_budget = 64 * 1024 * 1024

let test_precision_pins () =
  List.iter
    (fun (a : Reg.app) ->
      let p = a.Reg.exec_build () in
      let inputs = a.Reg.exec_inputs ~seed:42 in
      let xmax_bits = Fhe_sim.Interp.max_magnitude_bits p ~inputs in
      let refs = Fhe_sim.Interp.run_reference p ~inputs in
      List.iter
        (fun label ->
          let m = compile_with label p ~xmax_bits in
          Validator.check_exn m;
          let got, st = Ckks.Backend.run_timed m ~inputs in
          let err = max_err refs got in
          if err > a.Reg.exec_tol then
            Alcotest.failf "%s/%s: max|err| %g exceeds pinned tolerance %g"
              a.Reg.name label err a.Reg.exec_tol;
          (* the same run under a constrained memory budget: identical
             levels and bit-identical decrypts, so every pin above
             transfers verbatim *)
          let got_b, st_b =
            Ckks.Backend.run_timed ~mem_budget:tight_ct_budget
              ~key_budget:roomy_key_budget m ~inputs
          in
          if st_b.Ckks.Backend.output_levels <> st.Ckks.Backend.output_levels
          then
            Alcotest.failf "%s/%s: output levels changed under mem budget"
              a.Reg.name label;
          Array.iteri
            (fun o s ->
              Array.iteri
                (fun j x ->
                  if
                    not
                      (Int64.equal (Int64.bits_of_float x)
                         (Int64.bits_of_float got_b.(o).(j)))
                  then
                    Alcotest.failf
                      "%s/%s output %d slot %d: unlimited %h vs budgeted %h"
                      a.Reg.name label o j x got_b.(o).(j))
                s)
            got)
        compilers)
    (* the paper's eight plus the tensor-frontend additions: the wide
       (polynomial-activation) and batched (interleaved-packing) MLPs
       carry their own measured-error pins *)
    (Reg.all @ Reg.tensor)

(* ------------------------------------------------------------------ *)
(* deterministic parallelism: -j 1 and -j 4 decrypt bit-identically *)

let test_pool_byte_identity () =
  List.iter
    (fun name ->
      let a = Reg.find name in
      let p = a.Reg.exec_build () in
      let inputs = a.Reg.exec_inputs ~seed:42 in
      let xmax_bits = Fhe_sim.Interp.max_magnitude_bits p ~inputs in
      let m = compile_with "reserve-full" p ~xmax_bits in
      let seq = Ckks.Backend.run m ~inputs in
      let par =
        Fhe_par.Pool.with_pool ~domains:4 (fun pool ->
            Ckks.Backend.run ~pool m ~inputs)
      in
      Array.iteri
        (fun o s ->
          Array.iteri
            (fun j x ->
              (* bit equality, not within-epsilon: the parallel fan-out
                 must not reorder a single arithmetic operation *)
              if not (Int64.equal (Int64.bits_of_float x)
                        (Int64.bits_of_float par.(o).(j))) then
                Alcotest.failf "%s output %d slot %d: -j1 %h vs -j4 %h" name o
                  j x par.(o).(j))
            s)
        seq)
    [ "MLP"; "HCD" ]

(* ------------------------------------------------------------------ *)
(* Hoisted rotations: one decomposition, many rotations, the bits of
   the retained Reference key switch after the Reference automorphism *)

module E = Ckks.Evaluator

let same_ct what (got : E.ct) (want : E.ct) =
  if got.E.level <> want.E.level || got.E.scale <> want.E.scale then
    Alcotest.failf "%s: level or scale differs" what;
  same_poly (what ^ " c0") got.E.c0 want.E.c0;
  same_poly (what ^ " c1") got.E.c1 want.E.c1

let reference_rotate keys (a : E.ct) steps =
  let ctx = keys.Ckks.Keys.ctx in
  let g = Ckks.Keys.galois_element ctx steps in
  let module R = Ckks.Reference in
  let b, ka =
    R.Evaluator.key_switch keys
      (R.Poly.automorphism ctx a.E.c1 ~g)
      (Ckks.Keys.galois_key keys steps)
  in
  { a with E.c0 = R.Poly.add ctx (R.Poly.automorphism ctx a.E.c0 ~g) b;
    c1 = ka }

let random_ct g ctx ~level =
  { E.c0 = random_poly g ctx ~level ~special:false ~ntt:true;
    c1 = random_poly g ctx ~level ~special:false ~ntt:true;
    level;
    scale = 1.0 }

(* every rotation-group element while the slot count is small, a spread
   of steps (negative and past the slot count included) beyond that *)
let hoist_steps nh =
  if nh <= 16 then List.init (nh - 1) (fun s -> s + 1)
  else [ 1; 2; 5; nh / 2; nh - 1; -3; nh + 7 ]

let test_rotate_hoisted_bit_exact () =
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      let nh = n / 2 in
      let ctx = Ckks.Context.make ~n ~levels:kernel_levels () in
      (* recycled rows arrive dirty, so a cell a kernel failed to write
         would show *)
      Ckks.Context.set_arena ctx (Some (Ckks.Arena.create ~n));
      let keys = Ckks.Keys.keygen ctx in
      let g = Fhe_util.Prng.create (logn + 211) in
      at_widths ctx (fun width ->
          for level = 1 to kernel_levels do
            let a = random_ct g ctx ~level in
            let h = E.hoist keys a in
            List.iter
              (fun s ->
                let tag what =
                  Printf.sprintf "%s n=%d level=%d step=%d -j%d" what n level
                    s width
                in
                let want = reference_rotate keys a s in
                same_ct (tag "rotate_hoisted") (E.rotate_hoisted keys h a s)
                  want;
                same_ct (tag "rotate") (E.rotate keys a s) want)
              (hoist_steps nh);
            E.release_hoisted keys h
          done))
    kernel_logns;
  (* the deep chain LeNet runs at *)
  let levels = 12 in
  let ctx = Ckks.Context.make ~n:1024 ~levels () in
  let keys = Ckks.Keys.keygen ctx in
  let g = Fhe_util.Prng.create 5 in
  List.iter
    (fun level ->
      let a = random_ct g ctx ~level in
      let h = E.hoist keys a in
      List.iter
        (fun s ->
          same_ct
            (Printf.sprintf "rotate_hoisted n=1024 level=%d step=%d" level s)
            (E.rotate_hoisted keys h a s) (reference_rotate keys a s))
        [ 1; 3; 511 ])
    [ 1; 7; levels ];
  (* a decomposition from another level is refused *)
  let a = random_ct g ctx ~level:3 in
  let h = E.hoist keys (random_ct g ctx ~level:2) in
  match E.rotate_hoisted keys h a 1 with
  | _ -> Alcotest.fail "rotate_hoisted accepted a decomposition at level 2"
  | exception Invalid_argument _ -> ()

(* every cell of every row [q - 1], the largest canonical residue *)
let top_poly ctx ~level ~special =
  let p = P.zero ctx ~level ~special ~ntt:true in
  Array.iteri
    (fun r row ->
      Ckks.Rvec.fill row (Ckks.Context.prime ctx (P.prime_index ctx p r) - 1))
    p.P.data;
  p

(* Deep chains, where the lazily reduced multiply-accumulate folds in
   mid-sum: the 29-bit special row folds every 16 digits (at L = 17
   once, at L = 33 twice, at L = 65 four times) and the 28-bit chain
   rows every 64 (at L = 65 once).  Key switch and hoisted rotation
   against the Reference, at pool widths 1 and 4.  Random residues
   leave the sums far from max_int, so a worst case goes first: [x] of
   all [q - 1] in NTT form is the constant -1, whose every lifted digit
   is [q_r - 1] in every cell, against a key of all [q_r - 1] — every
   product is (q - 1)^2, and one product past the fold bound would
   overflow. *)
let test_deep_keyswitch_bit_exact () =
  let n = 32 in
  List.iter
    (fun levels ->
      let ctx = Ckks.Context.make ~n ~levels () in
      Ckks.Context.set_arena ctx (Some (Ckks.Arena.create ~n));
      let keys = Ckks.Keys.keygen ~rotations:[ 1 ] ctx in
      let top = top_poly ctx ~level:levels ~special:true in
      let worst =
        { Ckks.Keys.kb = Array.make levels top; ka = Array.make levels top }
      in
      let x = top_poly ctx ~level:levels ~special:false in
      let b, a = Ckks.Evaluator.key_switch keys x worst in
      let b', a' = Ckks.Reference.Evaluator.key_switch keys x worst in
      same_poly (Printf.sprintf "worst-case key_switch b L=%d" levels) b b';
      same_poly (Printf.sprintf "worst-case key_switch a L=%d" levels) a a';
      let g = Fhe_util.Prng.create (levels + 401) in
      at_widths ctx (fun width ->
          List.iter
            (fun level ->
              let tag what =
                Printf.sprintf "%s L=%d level=%d -j%d" what levels level width
              in
              let x = random_poly g ctx ~level ~special:false ~ntt:true in
              List.iter
                (fun (name, sk) ->
                  let b, a = Ckks.Evaluator.key_switch keys x sk in
                  let b', a' = Ckks.Reference.Evaluator.key_switch keys x sk in
                  same_poly (tag ("key_switch " ^ name ^ " b")) b b';
                  same_poly (tag ("key_switch " ^ name ^ " a")) a a')
                [ ("relin", Ckks.Keys.relin_key keys);
                  ("galois", Ckks.Keys.galois_key keys 1) ];
              let ct = random_ct g ctx ~level in
              let h = E.hoist keys ct in
              List.iter
                (fun s ->
                  same_ct
                    (tag (Printf.sprintf "rotate_hoisted step=%d" s))
                    (E.rotate_hoisted keys h ct s) (reference_rotate keys ct s))
                [ 1; 3; -1 ];
              E.release_hoisted keys h)
            (List.sort_uniq compare [ 16; 17; levels ])))
    [ 17; 33; 65 ]

(* Splat plaintexts: a float array holding one value in every slot (a
   short array: +0.0 after the encoder's padding) reaches add_plain,
   sub_plain and mul_plain as a per-row scalar, without the encoder.
   Every result must be the encoder path's, bit for bit: at each level,
   for zeros of both signs, tiny constants, products c·scale on a .5
   rounding boundary, around 2^52, and at or beyond 2^53 (the exact
   Float.rem rule), at both plaintext scales mul_plain knows.  Arrays
   that are not splats — non-uniform, short non-zero, a lone -0.0 — and
   the non-finite ones must take the encoder and still match it. *)
let test_splat_plaintexts () =
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      let nh = n / 2 in
      let levels = 4 in
      let ctx = Ckks.Context.make ~n ~levels () in
      Ckks.Context.set_arena ctx (Some (Ckks.Arena.create ~n));
      let keys = Ckks.Keys.keygen ctx in
      let g = Fhe_util.Prng.create (logn + 907) in
      let scale = Fhe_util.Bits.pow2f 22 in
      (* the constant whose product with [scale] is [x], exactly *)
      let at x = x /. scale in
      let constants =
        [ 0.0; -0.0; 1e-9; -1e-9; 1.0; -0.75; at 2.5; at (-2.5);
          at 12345.5; at (-0.5); at (0x1p52 -. 0.5); at (-.(0x1p52 -. 1.5));
          at 0x1p52; at (0x1p52 +. 1.0); at 0x1p53; at (-.0x1p53);
          at 0x1p60; at (-3.0 *. 0x1p70); 1e30 ]
      in
      let arrays =
        List.map (Array.make nh) constants
        @ [ [||]; [| 0.0; 0.0 |]; [| -0.0 |]; [| 1.0; 1.0 |];
            Array.init nh (fun i -> if i = nh - 1 then 2.0 else 1.0);
            Array.make nh Float.nan; Array.make nh Float.infinity ]
      in
      for level = 1 to levels do
        let a = { (random_ct g ctx ~level) with E.scale } in
        List.iteri
          (fun k v ->
            let tag what =
              Printf.sprintf "%s n=%d level=%d array %d" what n level k
            in
            let m = Ckks.Encoder.encode ctx ~level ~scale v in
            same_ct (tag "add_plain") (E.add_plain keys a v)
              { a with E.c0 = P.add ctx a.E.c0 m };
            same_ct (tag "sub_plain") (E.sub_plain keys a v)
              { a with E.c0 = P.sub ctx a.E.c0 m };
            List.iter
              (fun pscale ->
                let m = Ckks.Encoder.encode ctx ~level ~scale:pscale v in
                let want =
                  { a with
                    E.c0 = P.mul ctx a.E.c0 m;
                    c1 = P.mul ctx a.E.c1 m;
                    scale = a.E.scale *. pscale }
                in
                same_ct
                  (tag (Printf.sprintf "mul_plain scale=%g" pscale))
                  (if pscale = scale then E.mul_plain keys a ~scale v
                   else E.mul_plain keys a v)
                  want)
              [ scale; Fhe_util.Bits.pow2f 14 ])
          arrays
      done)
    [ 4; 10 ]

(* A program-order, per-op evaluation calling Evaluator.rotate for every
   rotation: what Backend computes without the hoisting peephole (or the
   scheduler, the arena and the fused rescale) *)
let per_op_run keys (m : Managed.t) ~inputs =
  let p = m.Managed.prog in
  let nh = Ckks.Context.slot_count keys.Ckks.Keys.ctx in
  let n = Program.n_ops p in
  let is_c o = Program.vtype p o = Op.Cipher in
  let cts = Array.make n None and pls = Array.make n [||] in
  let c o = Option.get cts.(o) and pl o = pls.(o) in
  let scale o = Fhe_util.Bits.pow2f m.Managed.scale.(o) in
  let input name = Slots.pad nh (List.assoc name inputs) in
  Program.iteri
    (fun i k ->
      if not (is_c i) then
        pls.(i) <-
          (match k with
          | Op.Input { name; _ } -> input name
          | Op.Const x -> Array.make nh x
          | Op.Vconst { values; _ } -> Slots.pad nh values
          | Op.Add (a, b) -> Array.map2 ( +. ) (pl a) (pl b)
          | Op.Sub (a, b) -> Array.map2 ( -. ) (pl a) (pl b)
          | Op.Mul (a, b) -> Array.map2 ( *. ) (pl a) (pl b)
          | Op.Neg a -> Array.map Float.neg (pl a)
          | Op.Rotate (a, s) -> Slots.rotl (pl a) s
          | Op.Rescale a | Op.Modswitch a | Op.Upscale (a, _) -> pl a)
      else
        cts.(i) <-
          Some
            (match k with
            | Op.Input { name; _ } ->
                E.encrypt_det keys ~tag:i ~level:m.Managed.level.(i)
                  ~scale:(scale i) (input name)
            | Op.Add (a, b) when is_c a && is_c b -> E.add keys (c a) (c b)
            | Op.Add (a, b) when is_c a -> E.add_plain keys (c a) (pl b)
            | Op.Add (a, b) -> E.add_plain keys (c b) (pl a)
            | Op.Sub (a, b) when is_c a && is_c b -> E.sub keys (c a) (c b)
            | Op.Sub (a, b) when is_c a -> E.sub_plain keys (c a) (pl b)
            | Op.Sub (a, b) -> E.neg keys (E.sub_plain keys (c b) (pl a))
            | Op.Mul (a, b) when is_c a && is_c b -> E.mul keys (c a) (c b)
            | Op.Mul (a, b) when is_c a ->
                E.mul_plain keys (c a) ~scale:(scale b) (pl b)
            | Op.Mul (a, b) -> E.mul_plain keys (c b) ~scale:(scale a) (pl a)
            | Op.Neg a -> E.neg keys (c a)
            | Op.Rotate (a, s) -> E.rotate keys (c a) s
            | Op.Rescale a -> E.rescale keys (c a)
            | Op.Modswitch a -> E.modswitch keys (c a)
            | Op.Upscale (a, bits) -> E.upscale keys (c a) bits
            | Op.Const _ | Op.Vconst _ -> assert false))
    p;
  Array.map
    (fun o -> if is_c o then E.decrypt keys (c o) else pl o)
    (Program.outputs p)

let bitwise_equal what want got =
  Array.iteri
    (fun o s ->
      Array.iteri
        (fun j x ->
          if
            not
              (Int64.equal (Int64.bits_of_float x)
                 (Int64.bits_of_float got.(o).(j)))
          then
            Alcotest.failf "%s output %d slot %d: per-op %h vs backend %h"
              what o j x got.(o).(j))
        s)
    want

(* Lenet-5's conv taps and MLP's rotate-and-sum groups run hoisted in the
   backend; decrypts must equal the per-op run bit for bit, with and
   without a spill budget whose lost entries force recomputed rotations
   after their group's entry is gone.  [exec] asserts that no entry
   outlives it, so every run returning is that check. *)
let test_backend_hoisting_bit_identical () =
  List.iter
    (fun (name, hoisted) ->
      let a = Reg.find name in
      let p = a.Reg.exec_build () in
      let inputs = a.Reg.exec_inputs ~seed:42 in
      let xmax_bits = Fhe_sim.Interp.max_magnitude_bits p ~inputs in
      let m = compile_with "reserve-full" p ~xmax_bits in
      let ctx =
        Ckks.Context.make
          ~n:(2 * Program.n_slots m.Managed.prog)
          ~levels:(Managed.max_level m) ~level_bits:rbits ()
      in
      let keys = Ckks.Keys.keygen ctx in
      let want = per_op_run keys m ~inputs in
      bitwise_equal name want (Ckks.Backend.run_with_keys keys m ~inputs);
      (* recomputing lost spills is exponential in depth at LeNet's 10
         levels under this budget: MLP takes that part alone *)
      if name = "MLP" then
        bitwise_equal (name ^ " all spills lost") want
          (Ckks.Backend.run_with_keys ~mem_budget:tight_ct_budget
             ~key_budget:roomy_key_budget
             ~spill_fault:(fun _ -> true)
             keys m ~inputs);
      let _, st = Ckks.Backend.run_timed m ~inputs in
      Alcotest.(check int)
        (name ^ " rotations served from a shared decomposition")
        hoisted st.Ckks.Backend.mem.Ckks.Backend.hoisted_rotations)
    (* Lenet-5 (diag dense head): three conv-tap groups of 24, four
       pooling groups of 3 and two 7-way diagonal groups, while its 9
       flatten rotations each have their own root; MLP: three 63-way
       rotate-and-sum groups *)
    [ ("Lenet-5", 98); ("MLP", 189) ];
  (* a one-byte budget spills every value as soon as it is made and the
     fault loses every spill: both rotations of %0 are recomputed after
     their group's entry is gone, through per-op Evaluator.rotate *)
  let p =
    Parser.parse_exn ~n_slots:16
      "%0 = input x : cipher\n\
       %1 = rotate %0 1\n\
       %2 = rotate %0 2\n\
       %3 = mul %2 %2\n\
       %4 = mul %1 %1\n\
       %5 = add %3 %4\n\
       ret %5\n"
  in
  let inputs = [ ("x", Array.init 16 (fun i -> 0.05 *. float_of_int i)) ] in
  let m = compile_with "reserve-full" p ~xmax_bits:2 in
  let ctx =
    Ckks.Context.make ~n:32 ~levels:(Managed.max_level m) ~level_bits:rbits ()
  in
  let keys = Ckks.Keys.keygen ctx in
  bitwise_equal "recomputed rotations" (per_op_run keys m ~inputs)
    (Ckks.Backend.run_with_keys ~mem_budget:1 ~spill_fault:(fun _ -> true)
       keys m ~inputs);
  let _, st =
    Ckks.Backend.run_timed ~mem_budget:1 ~spill_fault:(fun _ -> true) m
      ~inputs
  in
  let mem = st.Ckks.Backend.mem in
  (* a rotation recomputed while its group is live reuses the entry *)
  Alcotest.(check bool) "both rotations hoisted" true
    (mem.Ckks.Backend.hoisted_rotations >= 2);
  Alcotest.(check bool) "lost rotations were recomputed" true
    (mem.Ckks.Backend.ct_recomputes > 0)

let test_hoisting_speedup () =
  let n = 1024 and levels = 12 and k = 24 in
  let steps = List.init k (fun s -> s + 1) in
  let ctx = Ckks.Context.make ~n ~levels () in
  Ckks.Context.set_arena ctx (Some (Ckks.Arena.create ~n));
  let keys = Ckks.Keys.keygen ~rotations:steps ctx in
  let a = random_ct (Fhe_util.Prng.create 13) ctx ~level:levels in
  let drop (r : E.ct) =
    Ckks.Poly.release ctx r.E.c0;
    Ckks.Poly.release ctx r.E.c1
  in
  let t_op, t_hoisted =
    paired_medians ~runs:7
      (fun () -> List.iter (fun s -> drop (E.rotate keys a s)) steps)
      (fun () ->
        let h = E.hoist keys a in
        List.iter (fun s -> drop (E.rotate_hoisted keys h a s)) steps;
        E.release_hoisted keys h)
  in
  let speedup = t_op /. t_hoisted in
  if speedup < 2.0 then
    Alcotest.failf
      "%d rotations from one hoist only %.2fx over per-op rotate at n=%d, \
       L=%d (want >= 2x): %.3f ms vs %.3f ms"
      k speedup n levels t_hoisted t_op

(* ------------------------------------------------------------------ *)
(* Context: the special prime never collides with a chain prime *)

let test_special_prime_outside_chain () =
  List.iter
    (fun logn ->
      for level_bits = 16 to 28 do
        for levels = 1 to 12 do
          let ctx = Ckks.Context.make ~n:(1 lsl logn) ~levels ~level_bits () in
          if Array.mem ctx.Ckks.Context.special ctx.Ckks.Context.primes then
            Alcotest.failf "n=2^%d level_bits=%d levels=%d: special prime %d \
                            is in the chain"
              logn level_bits levels ctx.Ckks.Context.special
        done
      done)
    kernel_logns;
  (* the context that used to pick chain prime 3 as its special prime:
     a mul (relinearization) and a rotation now switch keys *)
  let ctx = Ckks.Context.make ~n:4096 ~levels:3 ~level_bits:16 () in
  let keys = Ckks.Keys.keygen ctx in
  let nh = Ckks.Context.slot_count ctx in
  let v = Array.init nh (fun i -> sin (float_of_int i)) in
  (* 2^22 keeps the product below the 48-bit modulus; the error is
     dominated by fresh-encryption noise at n = 2^12 (0.019 measured) *)
  let ct = E.encrypt keys ~level:3 ~scale:(Fhe_util.Bits.pow2f 22) v in
  let got =
    E.decrypt keys (E.rotate keys (E.rescale keys (E.mul keys ct ct)) 1)
  in
  Array.iteri
    (fun i x ->
      let want = v.((i + 1) mod nh) *. v.((i + 1) mod nh) in
      if Float.abs (x -. want) > 0.05 then
        Alcotest.failf "slot %d: %g, want %g" i x want)
    got

(* ------------------------------------------------------------------ *)
(* plaintext rotation by a negative amount (the text format and the
   wire accept one; Builder would have normalized it) *)

let test_plain_rotate_negative () =
  let n_slots = 8 in
  let p =
    Parser.parse_exn ~n_slots
      "%0 = input x : cipher\n\
       %1 = input w : plain\n\
       %2 = rotate %1 -1\n\
       %3 = mul %0 %2\n\
       ret %3, %2\n"
  in
  let x = Array.init n_slots (fun i -> 0.1 *. float_of_int (i + 1)) in
  let w = Array.init n_slots (fun i -> float_of_int (i + 1)) in
  let inputs = [ ("x", x); ("w", w) ] in
  let rotated =
    Array.init n_slots (fun i -> w.((i + n_slots - 1) mod n_slots))
  in
  let refs = Fhe_sim.Interp.run_reference p ~inputs in
  if refs.(1) <> rotated then Alcotest.fail "Interp: rotate by -1 is not right";
  let m = compile_with "reserve-full" p ~xmax_bits:4 in
  let negative = ref false in
  Program.iteri
    (fun _ k ->
      match k with Op.Rotate (_, s) when s < 0 -> negative := true | _ -> ())
    m.Managed.prog;
  if not !negative then Alcotest.fail "the compiled plan lost the -1 rotation";
  let got = Ckks.Backend.run m ~inputs in
  if got.(1) <> rotated then Alcotest.fail "Backend: rotate by -1 is not right";
  Array.iteri
    (fun i y ->
      if Float.abs (y -. refs.(0).(i)) > 1e-2 then
        Alcotest.failf "slot %d: backend %g vs Interp %g" i y refs.(0).(i))
    got.(0)

(* ------------------------------------------------------------------ *)
(* Switch-key generation: row fills, the fused generator against the
   retained per-draw generator, trimmed keys, pinned key bytes *)

module Prng = Fhe_util.Prng

(* the next raw draw tells whether two generators are in one state *)
let same_state what a b =
  if Prng.next_int64 a <> Prng.next_int64 b then
    Alcotest.failf "%s: generator left in another state" what

let test_prng_fills_per_draw () =
  List.iter
    (fun (seed, len) ->
      List.iter
        (fun bound ->
          let g = Prng.create seed and g' = Prng.create seed in
          let row = Ckks.Rvec.create len in
          Prng.fill_int g row bound;
          let want = Array.init len (fun _ -> Prng.int g' bound) in
          if Ckks.Rvec.to_array row <> want then
            Alcotest.failf "fill_int seed=%d len=%d bound=%d differs" seed len
              bound;
          same_state (Printf.sprintf "fill_int seed=%d len=%d" seed len) g g')
        [ 1; 3; 12289; special_prime; max_int ];
      List.iter
        (fun sigma ->
          let g = Prng.create seed and g' = Prng.create seed in
          let a = Array.make len 0 in
          Prng.fill_gaussian g ~sigma a;
          let want =
            Array.init len (fun _ ->
                int_of_float (Float.round (sigma *. Prng.gaussian g')))
          in
          if a <> want then
            Alcotest.failf "fill_gaussian seed=%d len=%d sigma=%g differs" seed
              len sigma;
          same_state (Printf.sprintf "fill_gaussian seed=%d len=%d" seed len) g
            g')
        [ 3.2; 1e6 ];
      List.iter
        (fun k ->
          let g = Prng.create seed and g' = Prng.create seed in
          Prng.skip g k;
          for _ = 1 to k do
            ignore (Prng.next_int64 g')
          done;
          same_state (Printf.sprintf "skip seed=%d k=%d" seed k) g g')
        [ 0; 1; len; 3 * len ])
    [ (0, 0); (1, 1); (7, 16); (0xC0FFEE, 257); (-5, 4096) ];
  (* the samplers built on them, against the per-draw originals *)
  let ctx = Ckks.Context.make ~n:64 ~levels:3 () in
  List.iter
    (fun (level, special) ->
      let g = Ckks.Sampler.create ~seed:level
      and g' = Ckks.Sampler.create ~seed:level in
      same_poly "Sampler.uniform_ntt"
        (Ckks.Sampler.uniform_ntt g ctx ~level ~special)
        (Ckks.Reference.Sampler.uniform_ntt g' ctx ~level ~special);
      if Ckks.Sampler.gaussian g ~n:64 () <> Ckks.Reference.Sampler.gaussian g' ~n:64 ()
      then Alcotest.fail "Sampler.gaussian differs from Reference";
      same_state "Sampler" g g')
    [ (1, false); (3, false); (2, true); (3, true) ]

(* an arena whose parked rows hold garbage, so a cell the generator
   failed to write would show *)
let dirty_arena ctx ~rows =
  let n = ctx.Ckks.Context.n in
  let a = Ckks.Arena.create ~n in
  let g = Prng.create rows in
  for _ = 1 to rows do
    let r = Ckks.Rvec.create n in
    Prng.fill_int g r (1 lsl 40);
    Ckks.Arena.release a r
  done;
  Ckks.Context.set_arena ctx (Some a)

let same_key what (got : Ckks.Keys.switch_key) (want : Ckks.Keys.switch_key) =
  if Array.length got.Ckks.Keys.kb <> Array.length want.Ckks.Keys.kb then
    Alcotest.failf "%s: digit count differs" what;
  Array.iteri
    (fun j p ->
      same_poly (Printf.sprintf "%s kb.(%d)" what j) p want.Ckks.Keys.kb.(j);
      same_poly
        (Printf.sprintf "%s ka.(%d)" what j)
        got.Ckks.Keys.ka.(j) want.Ckks.Keys.ka.(j))
    got.Ckks.Keys.kb

(* s and its two switch-key targets: s² (relinearization) and s under
   the rotation-by-1 automorphism, full basis, NTT form *)
let key_targets g ctx =
  let s = random_poly g ctx ~level:ctx.Ckks.Context.levels ~special:true ~ntt:true in
  ( s,
    [ ("relin", P.mul ctx s s);
      ("galois", P.automorphism ctx s ~g:(Ckks.Keys.galois_element ctx 1)) ] )

let test_switch_key_bit_exact () =
  List.iter
    (fun logn ->
      let n = 1 lsl logn in
      for levels = 1 to 12 do
        let ctx = Ckks.Context.make ~n ~levels () in
        dirty_arena ctx ~rows:(4 * levels * (levels + 1));
        let g = Prng.create ((logn * 131) + levels) in
        let s, targets = key_targets g ctx in
        let check width =
          List.iter
            (fun (name, target) ->
              let seed = (levels * 977) + logn in
              same_key
                (Printf.sprintf "%s key n=%d L=%d -j%d" name n levels width)
                (Ckks.Keys.make_switch_key ctx (Ckks.Sampler.create ~seed) ~s
                   ~target ~level:levels)
                (Ckks.Reference.Keys.make_switch_key ctx
                   (Ckks.Sampler.create ~seed) ~s ~target))
            targets
        in
        (* the row fan-out at width 4 where it is cheap *)
        if logn <= 8 && levels mod 4 = 0 then at_widths ctx check else check 1
      done)
    kernel_logns

(* a key trimmed to l holds the full key's digits < l, rows < l and
   special row; a deeper resident key serves a shallower request, a
   shallower one is replaced, and the budget counts real bytes *)
let test_trimmed_keys () =
  List.iter
    (fun (n, levels) ->
      let ctx = Ckks.Context.make ~n ~levels () in
      let full = Ckks.Keys.keygen ~seed:11 ctx in
      let ctx' = Ckks.Context.make ~n ~levels () in
      let budgeted = Ckks.Keys.keygen ~seed:11 ~key_budget:max_int ctx' in
      let trimmed_of (sk : Ckks.Keys.switch_key) l =
        let rows (p : P.t) =
          { p with
            P.level = l;
            data =
              Array.init (l + 1) (fun r ->
                  if r < l then p.P.data.(r) else p.P.data.(levels)) }
        in
        { Ckks.Keys.kb = Array.map rows (Array.sub sk.Ckks.Keys.kb 0 l);
          ka = Array.map rows (Array.sub sk.Ckks.Keys.ka 0 l) }
      in
      for l = 1 to levels do
        let tag what = Printf.sprintf "%s n=%d L=%d l=%d" what n levels l in
        let gens0 = (Ckks.Keys.mem budgeted).Ckks.Keys.gens in
        let rot = Ckks.Keys.galois_key ~level:l budgeted 3 in
        let relin = Ckks.Keys.relin_key ~level:l budgeted in
        Alcotest.(check int) (tag "trimmed to l") l (Ckks.Keys.key_level rot);
        same_key (tag "galois")
          rot (trimmed_of (Ckks.Keys.galois_key full 3) l);
        same_key (tag "relin") relin (trimmed_of (Ckks.Keys.relin_key full) l);
        Alcotest.(check int) (tag "shallower keys replaced") (gens0 + 2)
          (Ckks.Keys.mem budgeted).Ckks.Keys.gens;
        Alcotest.(check int) (tag "resident bytes are the keys' own")
          (2 * Ckks.Keys.switch_key_bytes ~level:l ctx)
          (Ckks.Keys.mem budgeted).Ckks.Keys.resident_bytes
      done;
      let gens = (Ckks.Keys.mem budgeted).Ckks.Keys.gens in
      let rot = Ckks.Keys.galois_key ~level:1 budgeted 3 in
      Alcotest.(check int) "a deeper resident key is a hit" levels
        (Ckks.Keys.key_level rot);
      Alcotest.(check int) "and generates nothing" gens
        (Ckks.Keys.mem budgeted).Ckks.Keys.gens;
      (* without a budget a level changes nothing: keys are full-chain *)
      Alcotest.(check int) "unbudgeted keys stay full-chain" levels
        (Ckks.Keys.key_level (Ckks.Keys.galois_key ~level:1 full 7)))
    [ (16, 1); (64, 6); (256, 12) ]

let test_switch_key_speedup () =
  let n = 256 and levels = 6 in
  let ctx = Ckks.Context.make ~n ~levels () in
  Ckks.Context.set_arena ctx (Some (Ckks.Arena.create ~n));
  let s, targets = key_targets (Prng.create 21) ctx in
  let target = List.assoc "relin" targets in
  let release (sk : Ckks.Keys.switch_key) =
    Array.iter (P.release ctx) sk.Ckks.Keys.kb;
    Array.iter (P.release ctx) sk.Ckks.Keys.ka
  in
  let t_ref, t_opt =
    paired_medians ~runs:7
      (fun () ->
        ignore
          (Ckks.Reference.Keys.make_switch_key ctx (Ckks.Sampler.create ~seed:1)
             ~s ~target))
      (fun () ->
        release
          (Ckks.Keys.make_switch_key ctx (Ckks.Sampler.create ~seed:1) ~s
             ~target ~level:levels))
  in
  let speedup = t_ref /. t_opt in
  if speedup < 1.3 then
    Alcotest.failf
      "fused switch-key generator only %.2fx over Reference at n=%d, L=%d \
       (want >= 1.3x): %.3f ms vs %.3f ms"
      speedup n levels t_opt t_ref;
  (* and, in the bounds-checked mode, it refuses a short row up front *)
  if Ckks.Rvec.checked then
    let short = { s with P.data = Array.map (fun _ -> Ckks.Rvec.create 8) s.P.data } in
    match
      Ckks.Keys.make_switch_key ctx (Ckks.Sampler.create ~seed:1) ~s:short
        ~target ~level:levels
    with
    | _ -> Alcotest.fail "make_switch_key accepted a short row"
    | exception Invalid_argument _ -> ()

(* The MD5 of the serialized key set (public key, relin key, rotations
   1, 5, -3), pinned from the per-draw generator before the fused one
   replaced it: every key byte, at two chain depths. *)
let test_key_bytes_golden () =
  List.iter
    (fun (n, levels, digest) ->
      let ctx = Ckks.Context.make ~n ~levels () in
      let keys = Ckks.Keys.keygen ~seed:0x5EED ~rotations:[ 1; 5; -3 ] ctx in
      Alcotest.(check string)
        (Printf.sprintf "key bytes n=%d L=%d" n levels)
        digest
        (Digest.to_hex (Digest.bytes (Ckks.Serialize.galois_keys_to_bytes keys))))
    [ (64, 3, "6de35d28f2f22b2d2e3c0e0e00fbc55c");
      (1024, 12, "b611e4f7adf46a1d84cf3502a7f212b5") ]

(* a budgeted key set holds trimmed keys: it serializes at their levels,
   loads back with its real byte count, and still evaluates *)
let test_serialize_trimmed_keys () =
  let ctx = Ckks.Context.make ~n:256 ~levels:4 () in
  let keys = Ckks.Keys.keygen ~seed:9 ~key_budget:max_int ctx in
  let nh = Ckks.Context.slot_count ctx in
  let v = Array.init nh (fun i -> sin (float_of_int i) /. 2.0) in
  let scale = Fhe_util.Bits.pow2f 22 in
  let ct = E.encrypt keys ~level:2 ~scale v in
  let eval k = E.decrypt k (E.rotate k (E.rescale k (E.mul k ct ct)) 2) in
  let want = eval keys in
  Alcotest.(check (list int)) "keys trimmed to the ciphertext levels" [ 2; 1 ]
    (List.map Ckks.Keys.key_level
       [ Ckks.Keys.relin_key ~level:2 keys; Ckks.Keys.galois_key ~level:1 keys 2 ]);
  let blob = Ckks.Serialize.galois_keys_to_bytes keys in
  match Ckks.Serialize.load_evaluation_keys ctx ~secret:keys.Ckks.Keys.s blob with
  | Error e -> Alcotest.failf "a budgeted key set does not load back: %s" e
  | Ok keys' ->
      Alcotest.(check int) "loaded bytes are the keys' own"
        (Ckks.Keys.mem keys).Ckks.Keys.resident_bytes
        (Ckks.Keys.mem keys').Ckks.Keys.resident_bytes;
      if Ckks.Serialize.galois_keys_to_bytes keys' <> blob then
        Alcotest.fail "reloaded key set serializes differently";
      let got = eval keys' in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float want.(i)))
          then Alcotest.failf "slot %d: reloaded %h vs original %h" i x want.(i))
        got;
      Array.iteri
        (fun i x ->
          let expect = v.((i + 2) mod nh) ** 2.0 in
          if Float.abs (x -. expect) > 0.05 then
            Alcotest.failf "slot %d: %g vs %g" i x expect)
        got

(* The MD5 of a serialized encrypt_det ciphertext, pinned before
   encryption stopped copying its fresh samples and the public key:
   every ciphertext byte, at the top level and below it. *)
let test_ciphertext_bytes_golden () =
  List.iter
    (fun (n, levels, level, digest) ->
      let ctx = Ckks.Context.make ~n ~levels () in
      let keys = Ckks.Keys.keygen ~seed:0x5EED ctx in
      let nh = Ckks.Context.slot_count ctx in
      let v = Array.init nh (fun i -> sin (float_of_int i) /. 2.0) in
      let ct =
        E.encrypt_det keys ~tag:7 ~level ~scale:(Fhe_util.Bits.pow2f 22) v
      in
      Alcotest.(check string)
        (Printf.sprintf "ciphertext bytes n=%d L=%d level %d" n levels level)
        digest
        (Digest.to_hex (Digest.bytes (Ckks.Serialize.ciphertext_to_bytes ct))))
    [ (64, 3, 3, "256fc4f2783b9a34ff5d85c36a1a2eba");
      (64, 3, 1, "5c1e437b2fdc7ce3ab5fe464c208099b");
      (1024, 12, 12, "f883a933bfb6899bc337a77c628c5f95");
      (1024, 12, 5, "f520e710743048a8d50fc01943b57996") ]

(* The MD5 of every decrypted slot's float bits, all 8 registry apps
   under reserve-full (inputs and keygen seeded 1), pinned before the
   lazily reduced key-switch MAC and the splat-constant plaintext path
   replaced the per-digit Barrett and the encoder for constants: the
   whole pipeline, bit for bit.  The two LeNet digests are of their
   miniatures' exec-scale lowering (diag). *)
let decrypt_digest outs =
  let b = Buffer.create 4096 in
  Array.iter
    (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)))
    outs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pipeline_digests () =
  List.iter
    (fun (name, digest) ->
      let a = Reg.find name in
      let p = a.Reg.exec_build () in
      let inputs = a.Reg.exec_inputs ~seed:1 in
      let xmax_bits = Fhe_sim.Interp.max_magnitude_bits p ~inputs in
      let m = compile_with "reserve-full" p ~xmax_bits in
      let got = decrypt_digest (Ckks.Backend.run ~seed:1 m ~inputs) in
      Alcotest.(check string) (name ^ " decrypted bits") digest got)
    [ ("SF", "e7a4b6c0900343305bd58174d0382f6c");
      ("HCD", "012c047040811b80b3ac72c627939937");
      ("LR", "156786fd619e8c539f423642837c6d55");
      ("MR", "63e65ae4321443c4040a7856d7e36056");
      ("PR", "5ccdfbe9a4f25d155480e5760601105a");
      ("MLP", "b87cc30a1e25624fa21aa89bf0c0d057");
      ("Lenet-5", "049ee6d83e30b7f1afac1ab245fbbb45");
      ("Lenet-C", "9cc7056bab43428f0623cad078c5190b") ]

let suite =
  [ Alcotest.test_case "NTT bit-exact vs Reference (all primes, 2^4..2^12)"
      `Slow test_ntt_bit_exact;
    Alcotest.test_case "NTT negacyclic vs schoolbook" `Slow
      test_ntt_negacyclic;
    Alcotest.test_case "NTT optimized >= 3x Reference at 2^12" `Slow
      test_ntt_speedup;
    Alcotest.test_case
      "10 apps x 5 compilers precision pins (unlimited + tight mem budget)"
      `Slow test_precision_pins;
    Alcotest.test_case "pool width 1 vs 4 bit-identical" `Slow
      test_pool_byte_identity;
    Alcotest.test_case
      "Poly kernels bit-exact vs Reference (levels 1..4, +/-special, \
       2^4..2^12, -j1/-j4)"
      `Slow test_poly_kernels_bit_exact;
    Alcotest.test_case
      "key_switch bit-exact vs Reference (levels 1..4, 2^4..2^12, -j1/-j4)"
      `Slow test_keyswitch_bit_exact;
    Alcotest.test_case
      "key_switch and drop_last bit-exact on wide 16/17-bit chains" `Slow
      test_wide_chain_bit_exact;
    Alcotest.test_case
      "NTT-domain automorphism = coefficient domain (rotation group, 2n-1)"
      `Slow test_automorphism_ntt_domain;
    Alcotest.test_case "key_switch optimized >= 1.3x Reference at 2^10, L=12"
      `Slow test_keyswitch_speedup;
    Alcotest.test_case "kernel guards reject short rows (FHE_CKKS_CHECKED=1)"
      `Quick test_kernel_guards;
    Alcotest.test_case
      "rotate_hoisted bit-exact vs Reference (rotation group, levels 1..4 \
       and 12, 2^4..2^12, -j1/-j4)"
      `Slow test_rotate_hoisted_bit_exact;
    Alcotest.test_case
      "Lenet-5 and MLP hoisted backend = per-op rotate run, bit for bit"
      `Slow test_backend_hoisting_bit_identical;
    Alcotest.test_case "24 rotations from one hoist >= 2x per-op at 2^10, L=12"
      `Slow test_hoisting_speedup;
    Alcotest.test_case
      "special prime outside the chain (2^4..2^12, 16..28 bits, 1..12 levels)"
      `Slow test_special_prime_outside_chain;
    Alcotest.test_case "plaintext rotate by -1 (Interp and Backend)" `Quick
      test_plain_rotate_negative;
    Alcotest.test_case "Prng row fills and skip = the per-draw stream" `Quick
      test_prng_fills_per_draw;
    Alcotest.test_case
      "switch-key generator bit-exact vs Reference (2^4..2^12, L 1..12, \
       dirty arena)"
      `Slow test_switch_key_bit_exact;
    Alcotest.test_case "trimmed keys = the full key's rows at every level"
      `Slow test_trimmed_keys;
    Alcotest.test_case "switch-key generator >= 1.3x Reference at 2^8, L=6"
      `Slow test_switch_key_speedup;
    Alcotest.test_case "key bytes pinned (MD5, n=2^6/L=3 and 2^10/L=12)"
      `Quick test_key_bytes_golden;
    Alcotest.test_case "budgeted (trimmed) key set round-trips and evaluates"
      `Quick test_serialize_trimmed_keys;
    Alcotest.test_case "ciphertext bytes pinned (MD5, encrypt_det)" `Quick
      test_ciphertext_bytes_golden;
    Alcotest.test_case
      "decrypted bits pinned (MD5, 8 apps under reserve-full, seed 1)" `Slow
      test_pipeline_digests;
    Alcotest.test_case
      "key_switch and rotate_hoisted bit-exact vs Reference at L = 17, 33, \
       65 (mid-sum folds, -j1/-j4)"
      `Slow test_deep_keyswitch_bit_exact;
    Alcotest.test_case
      "splat add/sub/mul_plain = the encoder path, bit for bit (levels 1..4)"
      `Quick test_splat_plaintexts ]

let () = Alcotest.run "fhe-exec" [ ("exec", suite) ]
