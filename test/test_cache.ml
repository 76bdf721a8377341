(* The cache-correctness tier (dune build @cache).

   Two subsystems under test, and the seam between them:
   - lib/ir/Intern: hash-consed op nodes and the content digest the
     cache keys on — structural equality must mean physical identity,
     float payloads must compare bit-exactly (0.0 vs -0.0) except for
     NaN, whose payloads unify;
   - lib/cache: the LRU, the checksummed disk store, and the global
     Store — a warm compile must be byte-identical to a cold one, a
     poisoned entry must be detected and recomputed (never trusted),
     and a shared cache must not perturb parallel determinism. *)

open Fhe_ir
module Store = Fhe_cache.Store
module Reg = Fhe_apps.Registry
module St = Fhe_strategy.Strategy
module SReg = Fhe_strategy.Registry

let str = Printf.sprintf

(* every test starts from a known cache configuration; the store is
   process-global and alcotest runs these sequentially *)
let fresh_cache ?dir () =
  Store.set_enabled true;
  Store.set_dir dir;
  Store.set_capacity 256;
  Store.reset ()

let print_managed (m : Managed.t) =
  Format.asprintf "%a"
    (Pp.pp_managed ~scale:m.Managed.scale ~level:m.Managed.level)
    m.Managed.prog

(* ----------------------------------------------------------------- *)
(* interning *)

let test_intern_physical_identity () =
  (* structurally equal kinds intern to the same physical node *)
  for seed = 0 to 49 do
    let p = (Fhe_sim.Progen.make seed).Fhe_sim.Progen.prog in
    Program.iteri
      (fun _ k ->
        let a = Intern.kind k in
        (* a structurally equal copy, rebuilt so it is a fresh value *)
        let copy = Op.map_operands (fun i -> i) k in
        let b = Intern.kind copy in
        Alcotest.(check bool) "same node" true (a == b);
        Alcotest.(check int) "same uid" a.Intern.uid b.Intern.uid;
        Alcotest.(check bool) "equal_kind agrees" true
          (Intern.equal_kind a.Intern.kind b.Intern.kind))
      p
  done

let test_intern_hash_consistent () =
  for seed = 0 to 49 do
    let p = (Fhe_sim.Progen.make seed).Fhe_sim.Progen.prog in
    Program.iteri
      (fun _ k ->
        let copy = Op.map_operands (fun i -> i) k in
        Alcotest.(check int) "equal kinds hash equal" (Intern.hash_kind k)
          (Intern.hash_kind copy))
      p
  done

let structurally_equal a b =
  Program.n_ops a = Program.n_ops b
  && Program.n_slots a = Program.n_slots b
  && Program.outputs a = Program.outputs b
  && (let same = ref true in
      Program.iteri
        (fun i k ->
          if not (Intern.equal_kind k (Program.kind b i)) then same := false)
        a;
      !same)

let test_digest_no_collisions_500 () =
  (* 500 generated programs: equal digest must mean equal structure
     (the key property the whole cache rests on) *)
  let tbl : (string, Program.t) Hashtbl.t = Hashtbl.create 512 in
  let distinct = ref 0 in
  for seed = 0 to 499 do
    let p = (Fhe_sim.Progen.make seed).Fhe_sim.Progen.prog in
    let d = Intern.digest p in
    Alcotest.(check int) "hex md5" 32 (String.length d);
    (match Hashtbl.find_opt tbl d with
    | None ->
        incr distinct;
        Hashtbl.add tbl d p
    | Some q ->
        Alcotest.(check bool)
          (str "digest collision at seed %d is structural" seed)
          true (structurally_equal p q));
    (* and the digest is a function of structure: recomputing agrees *)
    Alcotest.(check string) "digest stable" d (Intern.digest p)
  done;
  Alcotest.(check bool)
    (str "generator diversity (%d distinct)" !distinct)
    true (!distinct > 400)

let quiet_nan_1 = Int64.float_of_bits 0x7FF8000000000001L

let quiet_nan_2 = Int64.float_of_bits 0x7FF800000000BEEFL

let one_const_prog c =
  Program.make
    ~ops:[| Op.Input { name = "x"; vt = Op.Cipher }; Op.Const c;
            Op.Mul (0, 1) |]
    ~outputs:[| 2 |] ~n_slots:16

let test_digest_float_bit_patterns () =
  (* 0.0 and -0.0 are different constants (polymorphic compare says
     equal — the latent Builder aliasing bug); NaN payloads are the
     same constant (polymorphic compare says unequal) *)
  Alcotest.(check bool) "0.0 vs -0.0 digests differ" false
    (Intern.digest (one_const_prog 0.0) = Intern.digest (one_const_prog (-0.0)));
  Alcotest.(check string) "NaN payloads unify"
    (Intern.digest (one_const_prog quiet_nan_1))
    (Intern.digest (one_const_prog quiet_nan_2));
  Alcotest.(check bool) "equal_kind: 0.0 vs -0.0" false
    (Intern.equal_kind (Op.Const 0.0) (Op.Const (-0.0)));
  Alcotest.(check bool) "equal_kind: NaN vs NaN" true
    (Intern.equal_kind (Op.Const quiet_nan_1) (Op.Const quiet_nan_2));
  Alcotest.(check int) "NaN hashes agree"
    (Intern.hash_kind (Op.Const quiet_nan_1))
    (Intern.hash_kind (Op.Const quiet_nan_2))

let test_builder_dedup_float_bits () =
  (* the regression for the raw-Op.kind keying gap: the builder must
     not merge 0.0 with -0.0, and must merge NaNs regardless of
     payload *)
  let b = Builder.create ~n_slots:16 () in
  let z = Builder.const b 0.0 in
  let nz = Builder.const b (-0.0) in
  Alcotest.(check bool) "-0.0 not aliased to 0.0" false (z = nz);
  let n1 = Builder.const b quiet_nan_1 in
  let n2 = Builder.const b quiet_nan_2 in
  Alcotest.(check int) "NaN payloads dedup" n1 n2;
  let c1 = Builder.const b 1.5 in
  let c2 = Builder.const b 1.5 in
  Alcotest.(check int) "ordinary consts dedup" c1 c2;
  (* compound ops over them stay distinct where operands are distinct *)
  let x = Builder.input b "x" in
  let a1 = Builder.add b x z in
  let a2 = Builder.add b x nz in
  Alcotest.(check bool) "sums over distinct zeros distinct" false (a1 = a2);
  let a3 = Builder.add b x z in
  Alcotest.(check int) "identical sums dedup" a1 a3

(* ----------------------------------------------------------------- *)
(* lru *)

let test_lru_basics () =
  let l : int Fhe_cache.Lru.t = Fhe_cache.Lru.create ~cap:4 () in
  Alcotest.(check (option int)) "empty" None (Fhe_cache.Lru.find l "a");
  Fhe_cache.Lru.add l "a" 1;
  Fhe_cache.Lru.add l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Fhe_cache.Lru.find l "a");
  Alcotest.(check (option int)) "find b" (Some 2) (Fhe_cache.Lru.find l "b");
  Fhe_cache.Lru.clear l;
  Alcotest.(check (option int)) "cleared" None (Fhe_cache.Lru.find l "a");
  Alcotest.(check int) "length 0" 0 (Fhe_cache.Lru.length l)

let test_lru_bounded () =
  let cap = 8 in
  let l : int Fhe_cache.Lru.t = Fhe_cache.Lru.create ~cap () in
  for i = 0 to 999 do
    Fhe_cache.Lru.add l (str "k%d" i) i
  done;
  Alcotest.(check bool)
    (str "length %d <= 2*cap" (Fhe_cache.Lru.length l))
    true
    (Fhe_cache.Lru.length l <= 2 * cap);
  (* the most recent insert always survives *)
  Alcotest.(check (option int)) "newest survives" (Some 999)
    (Fhe_cache.Lru.find l "k999")

let test_lru_zero_cap_disables () =
  let l : int Fhe_cache.Lru.t = Fhe_cache.Lru.create ~cap:0 () in
  Fhe_cache.Lru.add l "a" 1;
  Alcotest.(check (option int)) "nothing retained" None
    (Fhe_cache.Lru.find l "a")

(* ----------------------------------------------------------------- *)
(* keys *)

let test_key_distinguishes_config () =
  let digest = String.make 32 'a' in
  let base = Fhe_cache.Key.make ~digest ~compiler:"eva" ~rbits:60 ~wbits:30 () in
  let distinct =
    [ Fhe_cache.Key.make ~digest:(String.make 32 'b') ~compiler:"eva"
        ~rbits:60 ~wbits:30 ();
      Fhe_cache.Key.make ~digest ~compiler:"hecate" ~rbits:60 ~wbits:30 ();
      Fhe_cache.Key.make ~digest ~compiler:"eva" ~rbits:50 ~wbits:30 ();
      Fhe_cache.Key.make ~digest ~compiler:"eva" ~rbits:60 ~wbits:25 ();
      Fhe_cache.Key.make ~digest ~compiler:"eva" ~rbits:60 ~wbits:30
        ~xmax_bits:4 ();
      Fhe_cache.Key.make ~digest ~compiler:"eva" ~rbits:60 ~wbits:30
        ~extra:[ "true" ] () ]
  in
  List.iteri
    (fun i k ->
      Alcotest.(check bool) (str "variant %d differs" i) false (k = base))
    distinct;
  Alcotest.(check string) "deterministic" base
    (Fhe_cache.Key.make ~digest ~compiler:"eva" ~rbits:60 ~wbits:30 ())

(* ----------------------------------------------------------------- *)
(* disk *)

let disk_dir name = str "_fhecache_test_%s" name

let test_disk_round_trip () =
  let dir = disk_dir "rt" in
  let key = String.make 32 '5' in
  Alcotest.(check bool) "miss before put" true
    (Fhe_cache.Disk.get ~dir ~key = `Miss);
  Fhe_cache.Disk.put ~dir ~key "some payload \x00\x01 with binary";
  (match Fhe_cache.Disk.get ~dir ~key with
  | `Hit p ->
      Alcotest.(check string) "payload survives"
        "some payload \x00\x01 with binary" p
  | `Miss | `Poisoned -> Alcotest.fail "expected a hit");
  Fhe_cache.Disk.remove ~dir ~key;
  Alcotest.(check bool) "miss after remove" true
    (Fhe_cache.Disk.get ~dir ~key = `Miss)

let corrupt_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string text in
  (* flip a byte near the end — inside the payload, after the header *)
  let i = Bytes.length b - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_disk_detects_corruption () =
  let dir = disk_dir "poison" in
  let key = String.make 32 '7' in
  Fhe_cache.Disk.put ~dir ~key "payload to be corrupted";
  corrupt_file (Filename.concat dir (key ^ ".entry"));
  Alcotest.(check bool) "corrupt entry is Poisoned" true
    (Fhe_cache.Disk.get ~dir ~key = `Poisoned);
  (* truncation is also poison, not a crash *)
  let oc = open_out_bin (Filename.concat dir (key ^ ".entry")) in
  output_string oc "fhe-cache-entry/1 ";
  close_out oc;
  Alcotest.(check bool) "truncated entry is Poisoned" true
    (Fhe_cache.Disk.get ~dir ~key = `Poisoned)

let test_disk_rejects_bad_keys () =
  List.iter
    (fun key ->
      match Fhe_cache.Disk.path ~dir:"d" ~key with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (str "key %S accepted" key))
    [ ""; "../escape"; "ABC"; "abc/def"; "a b" ]

(* ----------------------------------------------------------------- *)
(* store *)

let small_prog seed = (Fhe_sim.Progen.make ~size:12 seed).Fhe_sim.Progen.prog

let reserve = SReg.get_exn "reserve-full"
let cfg ?(wbits = 30) () = St.config ~rbits:60 ~wbits ()
let key_full p = St.cache_key reserve (cfg ()) p
let compile_full ?wbits p = SReg.compile reserve (cfg ?wbits ()) p

let test_store_memory_hit () =
  fresh_cache ();
  let p = small_prog 3 in
  let key = key_full p in
  let computes = ref 0 in
  let compute () =
    incr computes;
    Store.bypass (fun () -> compile_full p)
  in
  let m1, hit1 = Store.with_managed_hit ~key compute in
  let m2, hit2 = Store.with_managed_hit ~key compute in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check bool) "served physically" true (m1 == m2);
  let s = Store.stats () in
  Alcotest.(check int) "one hit" 1 s.Store.hits;
  Alcotest.(check int) "one miss" 1 s.Store.misses;
  Alcotest.(check int) "one store" 1 s.Store.stores

let test_store_bypass () =
  fresh_cache ();
  let p = small_prog 4 in
  let key = key_full p in
  let m = Store.bypass (fun () -> compile_full p) in
  Store.bypass (fun () -> Store.add key m);
  Alcotest.(check bool) "bypassed add dropped" true (Store.find key = None);
  Store.add key m;
  Store.bypass (fun () ->
      Alcotest.(check bool) "bypassed find misses" true (Store.find key = None));
  Alcotest.(check bool) "visible outside bypass" true (Store.find key <> None)

let test_store_disabled () =
  fresh_cache ();
  Store.set_enabled false;
  let p = small_prog 5 in
  let key = key_full p in
  let m = compile_full p in
  Store.add key m;
  Alcotest.(check bool) "disabled store holds nothing" true
    (Store.find key = None);
  Store.set_enabled true

(* the end-to-end poisoned-cache property: a corrupt on-disk entry is
   detected, discarded, and the program recompiled — the answer is the
   fresh one, never the corrupt bytes *)
let test_store_poisoned_recompute () =
  let dir = disk_dir "store" in
  fresh_cache ~dir ();
  let p = small_prog 6 in
  let reference =
    print_managed
      (Store.bypass (fun () -> compile_full p))
  in
  (* populate memory + disk *)
  let _ = compile_full p in
  (* corrupt every entry on disk, then drop the in-memory layer so the
     next lookup must go to disk *)
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".entry")
  in
  Alcotest.(check bool) "disk populated" true (entries <> []);
  List.iter (fun f -> corrupt_file (Filename.concat dir f)) entries;
  Store.reset ();
  let m = compile_full p in
  Alcotest.(check string) "recompute equals reference" reference
    (print_managed m);
  let s = Store.stats () in
  Alcotest.(check bool)
    (str "poison detected (%d)" s.Store.poisoned)
    true (s.Store.poisoned > 0);
  (* the poisoned file was deleted and replaced by the recompute; a
     fresh lookup now hits clean *)
  Store.reset ();
  let m' = compile_full p in
  Alcotest.(check string) "disk self-healed" reference (print_managed m');
  Alcotest.(check int) "no new poison" 0 (Store.stats ()).Store.poisoned;
  Store.set_dir None

(* a marshalled-but-wrong entry (valid container, illegal program) must
   be rejected by the validator re-check, not served *)
let test_store_rejects_invalid_payload () =
  let dir = disk_dir "invalid" in
  fresh_cache ~dir ();
  let p = small_prog 7 in
  let key = key_full p in
  let m = Store.bypass (fun () -> compile_full p) in
  (* break the scale bookkeeping, then write the corpse with a *valid*
     checksum, as a hostile/buggy producer would *)
  let bad = { m with Managed.scale = Array.map (fun s -> s + 7) m.Managed.scale } in
  Fhe_cache.Disk.put ~dir ~key (Marshal.to_string bad []);
  Store.reset ();
  Alcotest.(check bool) "invalid payload not served" true (Store.find key = None);
  Alcotest.(check bool) "counted as poison" true
    ((Store.stats ()).Store.poisoned > 0);
  Store.set_dir None

(* ----------------------------------------------------------------- *)
(* cache-consistency lemma *)

let test_cache_consistency_clean () =
  let p = small_prog 8 in
  let m = Store.bypass (fun () -> compile_full p) in
  Alcotest.(check int) "no violations against itself" 0
    (List.length
       (Fhe_check.Invariants.check_cache_consistency ~cached:m ~fresh:m))

let test_cache_consistency_flags_drift () =
  let p = small_prog 9 in
  let fresh = Store.bypass (fun () -> compile_full p) in
  let cached =
    { fresh with Managed.scale = Array.map (fun s -> s + 1) fresh.Managed.scale }
  in
  let vs = Fhe_check.Invariants.check_cache_consistency ~cached ~fresh in
  Alcotest.(check bool) "drift detected" true (vs <> []);
  List.iter
    (fun v ->
      Alcotest.(check string) "rule name" "cache-consistency"
        v.Fhe_check.Invariants.rule)
    vs

let test_differential_flags_poisoned_hit () =
  (* seed the store with a plan compiled under the *wrong* waterline;
     the differential driver's verify-on-hit must surface it as a
     cache-consistency lemma violation *)
  fresh_cache ();
  let g = Fhe_sim.Progen.make ~size:12 11 in
  let p = g.Fhe_sim.Progen.prog in
  let wrong =
    Store.bypass (fun () ->
        compile_full ~wbits:25 p)
  in
  Store.add (key_full p) { wrong with Managed.wbits = 30 };
  let r =
    Fhe_check.Differential.run
      ~compilers:[ Option.get (Fhe_check.Differential.of_name "reserve-full") ]
      ~label:"poisoned" p ~inputs:g.Fhe_sim.Progen.inputs
  in
  let entry = List.hd r.Fhe_check.Differential.entries in
  Alcotest.(check bool) "cache-consistency violation reported" true
    (List.exists
       (fun v -> v.Fhe_check.Invariants.rule = "cache-consistency")
       entry.Fhe_check.Differential.lemma_violations);
  (* and with a clean cache the same run is violation-free *)
  fresh_cache ();
  let r' =
    Fhe_check.Differential.run
      ~compilers:[ Option.get (Fhe_check.Differential.of_name "reserve-full") ]
      ~label:"clean" p ~inputs:g.Fhe_sim.Progen.inputs
  in
  Alcotest.(check bool) "clean run ok" true (Fhe_check.Differential.ok r')

(* ----------------------------------------------------------------- *)
(* metamorphic: warm byte-identical to cold, 8 apps x 5 compilers *)

let hecate_iters = 10

let app_cfg = St.config ~iterations:hecate_iters ~rbits:60 ~wbits:30 ()

let compile_app p compiler =
  SReg.compile_uncached (SReg.get_exn compiler) app_cfg p

let app_key p compiler = St.cache_key (SReg.get_exn compiler) app_cfg p

(* The keys the store has always used, captured before the registry
   became the only compile entry point: on-disk stores keep hitting. *)
let test_store_keys_pinned () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string) (str "reserve-full key, program %d" seed) want
        (key_full (small_prog seed)))
    [ (3, "da522b87582c228ac918fda2a2982721");
      (4, "576ab7755f8622325ca7923d2e6eec61");
      (5, "b193175481065b2253be547df4f75a0b");
      (7, "ea5427bc25389586401ac1a01d83a84e");
      (11, "49271802e4547bae7b52ef9ecf805bc1") ];
  let keys =
    List.concat_map
      (fun (a : Reg.app) ->
        let p = a.Reg.build () in
        List.map (fun c -> app_key p c ^ "\n") (SReg.names ()))
      Reg.all
  in
  Alcotest.(check string) "MD5 of the 8 apps x 5 strategies keys"
    "26cc5db85e0854ddf8269800c1c0d89f"
    (Digest.to_hex (Digest.string (String.concat "" keys)))

let test_warm_equals_cold_all_apps () =
  let dir = disk_dir "apps" in
  let compilers =
    [ "eva"; "hecate"; "reserve-ba"; "reserve-ra"; "reserve-full" ]
  in
  List.iter
    (fun (a : Reg.app) ->
      let p = a.Reg.build () in
      List.iter
        (fun c ->
          fresh_cache ~dir ();
          let key = app_key p c in
          let cold =
            print_managed (Store.bypass (fun () -> compile_app p c))
          in
          (* populate: a miss computes and writes memory + disk *)
          let first =
            Store.with_managed ~key (fun () ->
                Store.bypass (fun () -> compile_app p c))
          in
          Alcotest.(check string)
            (str "%s/%s: compiler deterministic" a.Reg.name c)
            cold (print_managed first);
          (* warm from memory *)
          let warm_mem =
            Store.with_managed ~key (fun () ->
                Alcotest.fail
                  (str "%s/%s: expected a memory hit" a.Reg.name c))
          in
          Alcotest.(check string)
            (str "%s/%s: memory-warm byte-identical" a.Reg.name c)
            cold (print_managed warm_mem);
          (* warm from disk: drop the memory layer, forcing the
             marshal/checksum/validator path *)
          Store.reset ();
          let warm_disk =
            Store.with_managed ~key (fun () ->
                Alcotest.fail (str "%s/%s: expected a disk hit" a.Reg.name c))
          in
          Alcotest.(check string)
            (str "%s/%s: disk-warm byte-identical" a.Reg.name c)
            cold (print_managed warm_disk);
          Alcotest.(check bool)
            (str "%s/%s: served from disk" a.Reg.name c)
            true
            ((Store.stats ()).Store.disk_hits > 0))
        compilers)
    Reg.all;
  Store.set_dir None

(* ----------------------------------------------------------------- *)
(* parallel: a shared cache must not perturb pool determinism *)

let test_parallel_shared_cache_deterministic () =
  (* 15 distinct programs, each listed 4 times: the pooled run races
     4 domains on a shared store with guaranteed cross-domain hits *)
  let progs =
    List.concat_map
      (fun seed -> List.init 4 (fun _ -> small_prog (100 + seed)))
      (List.init 15 (fun i -> i))
  in
  Store.set_enabled false;
  let one p =
    match compile_full p with
    | m -> Ok (print_managed m)
    | exception e -> Error (Printexc.to_string e)
  in
  let baseline = List.map one progs in
  fresh_cache ();
  let pooled =
    Fhe_par.Pool.with_pool ~domains:4 (fun pool ->
        Fhe_par.Pool.map pool one progs)
  in
  List.iteri
    (fun i (b, c) ->
      match (b, c) with
      | Ok b, Ok c ->
          Alcotest.(check string) (str "program %d identical" i) b c
      | Error _, Error _ -> ()
      | _ -> Alcotest.fail (str "program %d: ok/error disagree" i))
    (List.combine baseline pooled);
  let s = Store.stats () in
  Alcotest.(check bool)
    (str "shared store hit across the pool (%d hits)" s.Store.hits)
    true (s.Store.hits > 0)

let test_parallel_fuzz_matches_sequential () =
  (* the fuzz tier's aggregate must be identical with and without the
     cache, sequentially and on a pool *)
  Store.set_enabled false;
  let plain = Fhe_check.Fuzzdriver.run ~size:12 ~seeds:20 () in
  fresh_cache ();
  let cached = Fhe_check.Fuzzdriver.run ~size:12 ~seeds:20 () in
  let pooled =
    Fhe_par.Pool.with_pool ~domains:4 (fun pool ->
        Fhe_check.Fuzzdriver.run ~pool ~size:12 ~seeds:20 ())
  in
  Alcotest.(check bool) "cache does not change the fuzz report" true
    (plain = cached);
  Alcotest.(check bool) "pool + shared cache does not change it" true
    (plain = pooled)

(* ----------------------------------------------------------------- *)

let () =
  (* tests share one process-global store; leave it enabled/in-memory
     for whichever test runs first *)
  fresh_cache ();
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cache"
    [
      ( "intern",
        [
          t "structural equality is physical identity"
            test_intern_physical_identity;
          t "hash respects equality" test_intern_hash_consistent;
          t "500 programs: no digest collisions" test_digest_no_collisions_500;
          t "float bit patterns in the digest" test_digest_float_bit_patterns;
          t "builder dedup on float bits" test_builder_dedup_float_bits;
        ] );
      ( "lru",
        [
          t "add/find/clear" test_lru_basics;
          t "bounded at 2x capacity" test_lru_bounded;
          t "zero capacity disables" test_lru_zero_cap_disables;
        ] );
      ( "key", [ t "distinguishes every config knob" test_key_distinguishes_config ] );
      ( "disk",
        [
          t "round trip" test_disk_round_trip;
          t "detects corruption" test_disk_detects_corruption;
          t "rejects unsafe keys" test_disk_rejects_bad_keys;
        ] );
      ( "store",
        [
          t "memory hit serves the same plan" test_store_memory_hit;
          t "keys pinned to the stored recipes" test_store_keys_pinned;
          t "bypass hides the store" test_store_bypass;
          t "disabled store holds nothing" test_store_disabled;
          t "poisoned disk entry recomputed" test_store_poisoned_recompute;
          t "invalid payload rejected by validator"
            test_store_rejects_invalid_payload;
        ] );
      ( "consistency",
        [
          t "clean on identical plans" test_cache_consistency_clean;
          t "flags drifted plans" test_cache_consistency_flags_drift;
          t "differential verifies hits" test_differential_flags_poisoned_hit;
        ] );
      ( "metamorphic",
        [ t "warm = cold, 8 apps x 5 compilers" test_warm_equals_cold_all_apps ] );
      ( "parallel",
        [
          t "-j 4 with shared cache = sequential"
            test_parallel_shared_cache_deterministic;
          t "fuzz report invariant to cache and pool"
            test_parallel_fuzz_matches_sequential;
        ] );
    ]
