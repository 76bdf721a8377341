(* Little-endian framed binary format.  Each object: 4-byte magic,
   1-byte version, payload.  Residues fit 32 bits (moduli < 2^30). *)

let magic_ct = "FHC1"

let magic_keys = "FHK1"

let version = 1

(* ------------------------------------------------------------------ *)
(* writer *)


let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u32 b v =
  for i = 0 to 3 do
    w_u8 b ((v lsr (8 * i)) land 0xff)
  done

let w_f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    w_u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done

let w_row b row =
  let n = Rvec.length row in
  w_u32 b n;
  for i = 0 to n - 1 do
    w_u32 b (Rvec.get row i)
  done

let w_poly b (p : Poly.t) =
  w_u8 b p.Poly.level;
  w_u8 b (if p.Poly.special then 1 else 0);
  w_u8 b (if p.Poly.ntt then 1 else 0);
  Array.iter (w_row b) p.Poly.data

(* ------------------------------------------------------------------ *)
(* reader *)

exception Bad of string

type reader = { data : bytes; mutable pos : int }

let r_u8 r =
  if r.pos >= Bytes.length r.data then raise (Bad "truncated");
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (r_u8 r lsl (8 * i))
  done;
  !v

let r_f64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (r_u8 r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let r_row r ~n ~q =
  let len = r_u32 r in
  if len <> n then raise (Bad (Printf.sprintf "row length %d, expected %d" len n));
  let row = Rvec.create n in
  for i = 0 to n - 1 do
    let v = r_u32 r in
    if v >= q then raise (Bad "residue out of range");
    Rvec.set row i v
  done;
  row

let r_poly r (ctx : Context.t) =
  let level = r_u8 r in
  if level < 1 || level > ctx.Context.levels then raise (Bad "bad poly level");
  let special = r_u8 r = 1 in
  let ntt = r_u8 r = 1 in
  let nrows = level + if special then 1 else 0 in
  let data =
    Array.init nrows (fun row ->
        let q =
          Context.prime ctx (if row < level then row else ctx.Context.levels)
        in
        r_row r ~n:ctx.Context.n ~q)
  in
  { Poly.level; special; ntt; data }

let r_magic r expect =
  let got = String.init 4 (fun _ -> Char.chr (r_u8 r)) in
  if got <> expect then raise (Bad (Printf.sprintf "bad magic %S" got));
  let v = r_u8 r in
  if v <> version then raise (Bad (Printf.sprintf "unsupported version %d" v))

(* ------------------------------------------------------------------ *)
(* public api *)

let ciphertext_to_bytes (ct : Evaluator.ct) =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic_ct;
  w_u8 b version;
  w_u8 b ct.Evaluator.level;
  w_f64 b ct.Evaluator.scale;
  w_poly b ct.Evaluator.c0;
  w_poly b ct.Evaluator.c1;
  Buffer.to_bytes b

let ciphertext_of_bytes ctx data =
  let r = { data; pos = 0 } in
  match
    r_magic r magic_ct;
    let level = r_u8 r in
    let scale = r_f64 r in
    let c0 = r_poly r ctx in
    let c1 = r_poly r ctx in
    if c0.Poly.level <> level || c1.Poly.level <> level then
      raise (Bad "component level mismatch");
    if not (scale > 0.0) then raise (Bad "non-positive scale");
    { Evaluator.c0; c1; level; scale }
  with
  | ct -> Ok ct
  | exception Bad msg -> Error msg

let w_switch_key b (sk : Keys.switch_key) =
  w_u32 b (Array.length sk.Keys.kb);
  Array.iter (w_poly b) sk.Keys.kb;
  Array.iter (w_poly b) sk.Keys.ka

(* A key at level l (budgeted key sets hold trimmed ones) has l digits,
   each over the (l, special) basis in NTT form. *)
let r_switch_key r ctx =
  let digits = r_u32 r in
  if digits < 1 || digits > ctx.Context.levels then
    raise (Bad "switch key digit count");
  let digit _ =
    let p = r_poly r ctx in
    if p.Poly.level <> digits || not p.Poly.special || not p.Poly.ntt then
      raise (Bad "switch key digit basis");
    p
  in
  let kb = Array.init digits digit in
  let ka = Array.init digits digit in
  { Keys.kb; ka }

let galois_keys_to_bytes (k : Keys.t) =
  let b = Buffer.create 65536 in
  Buffer.add_string b magic_keys;
  w_u8 b version;
  w_poly b k.Keys.pb;
  w_poly b k.Keys.pa;
  (* the resident relin key at whatever level it has; generation only
     when it is lazy or evicted *)
  w_switch_key b
    (match k.Keys.relin with Some sk -> sk | None -> Keys.relin_key k);
  let rotations =
    List.sort compare
      (Hashtbl.fold (fun step _ acc -> step :: acc) k.Keys.galois [])
  in
  w_u32 b (List.length rotations);
  List.iter
    (fun step ->
      w_u32 b step;
      w_switch_key b (Hashtbl.find k.Keys.galois step))
    rotations;
  Buffer.to_bytes b

let load_evaluation_keys ctx ~secret data =
  let r = { data; pos = 0 } in
  match
    r_magic r magic_keys;
    let pb = r_poly r ctx in
    let pa = r_poly r ctx in
    let relin = r_switch_key r ctx in
    let nrot = r_u32 r in
    let galois = Hashtbl.create (max 4 nrot) in
    for _ = 1 to nrot do
      let step = r_u32 r in
      Hashtbl.replace galois step (r_switch_key r ctx)
    done;
    let last_use = Hashtbl.create (max 4 (nrot + 1)) in
    (* loaded keys are resident from tick 0; relin is LRU tag 0 *)
    Hashtbl.replace last_use 0 0;
    Hashtbl.iter (fun step _ -> Hashtbl.replace last_use step 0) galois;
    let resident =
      Hashtbl.fold
        (fun _ sk acc -> acc + Keys.switch_key_bytes ~level:(Keys.key_level sk) ctx)
        galois
        (Keys.switch_key_bytes ~level:(Keys.key_level relin) ctx)
    in
    { Keys.ctx; seed = 0; s = secret; pb; pa; relin = Some relin; galois;
      last_use; tick = 0; budget = None;
      resident_bytes = resident; peak_bytes = resident;
      gens = 0; evictions = 0;
      enc_sampler = Sampler.create ~seed:(0 lxor 0x5EED5) }
  with
  | keys -> Ok keys
  | exception Bad msg -> Error msg
