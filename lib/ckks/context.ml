type t = {
  n : int;
  levels : int;
  level_bits : int;
  primes : int array;
  special : int;
  plans : Ntt.plan array;
  special_plan : Ntt.plan;
  fft : Fftc.plan;
  bitrev : int array;
  mutable pool : Fhe_par.Pool.t option;
  mutable arena : Arena.t option;
}

let make ~n ~levels ?(level_bits = 28) () =
  if n < 4 || n land (n - 1) <> 0 then
    invalid_arg "Context.make: n must be a power of two >= 4";
  if levels < 1 then invalid_arg "Context.make: need at least one level";
  if level_bits < 16 || level_bits > 28 then
    invalid_arg "Context.make: level_bits must be in 16..28";
  let primes =
    Array.of_list (Primes.ntt_prime_chain ~n ~bits:level_bits ~count:levels)
  in
  let special =
    (* one extra bit, so the special prime dominates the chain primes —
       but a narrow chain at a large n walks up into that width, so take
       the first candidate the chain does not already hold (a chain
       prime as the special one would leave the key switch dividing by
       zero mod itself) *)
    let rec first_free count =
      match
        List.find_opt
          (fun p -> not (Array.mem p primes))
          (Primes.ntt_prime_chain ~n ~bits:(level_bits + 1) ~count)
      with
      | Some p -> p
      | None -> first_free (count + 1)
    in
    first_free 1
  in
  { n;
    levels;
    level_bits;
    primes;
    special;
    plans = Array.map (fun p -> Ntt.make_plan ~n ~p) primes;
    special_plan = Ntt.make_plan ~n ~p:special;
    fft = Fftc.make_plan ~n;
    bitrev =
      (let rec log2 b k = if k = 1 then b else log2 (b + 1) (k / 2) in
       let bits = log2 0 n in
       Array.init n (fun i -> Ntt.bit_reverse i bits));
    pool = None;
    arena = None }

let plan t i = if i = t.levels then t.special_plan else t.plans.(i)

let prime t i = if i = t.levels then t.special else t.primes.(i)

let slot_count t = t.n / 2

let set_pool t pool = t.pool <- pool

let set_arena t arena = t.arena <- arena

(* Row allocation goes through the arena when one is attached.  Only
   ever called from the driving domain (worker tasks allocate scratch
   rows with Rvec.create directly). *)
let alloc_row t =
  match t.arena with Some a -> Arena.alloc_zero a | None -> Rvec.create t.n

let alloc_row_raw t =
  match t.arena with Some a -> Arena.alloc_raw a | None -> Rvec.create t.n

let release_row t r =
  match t.arena with Some a -> Arena.release a r | None -> ()

(* Fan per-prime row work across the pool when one is attached.  Each
   task writes only its own row, and rows are dense 0..nrows-1, so the
   result is identical to the sequential loop regardless of width. *)
let par_rows t nrows f =
  match t.pool with
  | Some pool when nrows > 1 && Fhe_par.Pool.domains pool > 1 ->
      Fhe_par.Pool.iter pool f (List.init nrows (fun r -> r))
  | _ -> for r = 0 to nrows - 1 do f r done
