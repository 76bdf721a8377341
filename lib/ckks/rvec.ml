type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* FHE_CKKS_CHECKED=1 turns every access into a bounds-checked one.
   Read once at module load, but tested on every [get]/[set]: nothing
   hoists the branch, and called from another module (dune's default
   profile passes -opaque; there is no flambda) each access is an
   out-of-line closure call besides.  So the hot kernels (Ntt, the Poly
   row loops, Evaluator.key_switch) never call [get]/[set]: they apply
   Bigarray.Array1.unsafe_get/set directly and, when [checked] is set,
   check every row's length once per call instead. *)
let checked =
  match Sys.getenv_opt "FHE_CKKS_CHECKED" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let length (t : t) = Bigarray.Array1.dim t

let create n : t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let[@inline] get (t : t) i =
  if checked then Bigarray.Array1.get t i else Bigarray.Array1.unsafe_get t i

let[@inline] set (t : t) i v =
  if checked then Bigarray.Array1.set t i v
  else Bigarray.Array1.unsafe_set t i v

let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst

let copy t =
  let n = length t in
  let out = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.blit t out;
  out

let of_array a : t =
  let n = Array.length a in
  let out = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set out i (Array.unsafe_get a i)
  done;
  out

let to_array (t : t) = Array.init (length t) (fun i -> get t i)

let fill (t : t) v = Bigarray.Array1.fill t v
