type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* the output function of state [z] *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  { state = next_int64 t }

(* Parallel drivers split every per-item stream from the root seed
   before any work is scheduled, so the streams — and everything
   generated from them — depend only on the seed and the item index,
   never on how many domains end up running the items. *)
let split_n t n =
  if n < 0 then invalid_arg "Prng.split_n";
  Array.init n (fun _ -> split t)

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let gaussian t =
  (* Box–Muller; avoid u1 = 0. *)
  let u1 = ref (float t 1.0) in
  while !u1 = 0.0 do u1 := float t 1.0 done;
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

(* Row fills: the per-draw streams of [int] and [gaussian], written
   without a call per cell.  [-opaque] compilation without flambda makes
   every [next_int64] an out-of-line call returning a boxed [int64] and
   every state update an allocation; here the state lives in a local
   that the native compiler keeps unboxed for the whole loop, and goes
   back to [t] once at the end. *)

let fill_int t (row : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t)
    bound =
  assert (bound > 0);
  let st = ref t.state in
  for i = 0 to Bigarray.Array1.dim row - 1 do
    st := Int64.add !st golden;
    let r = Int64.to_int (Int64.shift_right_logical (mix !st) 2) in
    Bigarray.Array1.unsafe_set row i (r mod bound)
  done;
  t.state <- !st

let fill_gaussian t ~sigma (a : int array) =
  let st = ref t.state in
  for i = 0 to Array.length a - 1 do
    (* [float t 1.0] draws: u1 until it is nonzero, then u2.  A 53-bit
       integer converts exactly, so [float_of_int] (one instruction)
       gives [Int64.to_float]'s (a C call) bits, and [1.0 *. x] is [x] *)
    let u1 = ref 0.0 in
    while !u1 = 0.0 do
      st := Int64.add !st golden;
      let r = float_of_int (Int64.to_int (Int64.shift_right_logical (mix !st) 11)) in
      u1 := r /. 9007199254740992.0
    done;
    st := Int64.add !st golden;
    let r = float_of_int (Int64.to_int (Int64.shift_right_logical (mix !st) 11)) in
    let u2 = r /. 9007199254740992.0 in
    let g = sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2) in
    Array.unsafe_set a i (int_of_float (Float.round (sigma *. g)))
  done;
  t.state <- !st

(* SplitMix64's state advances by the same constant on every draw *)
let skip t k = t.state <- Int64.add t.state (Int64.mul (Int64.of_int k) golden)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
