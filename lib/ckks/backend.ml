open Fhe_ir

type mem_stats = {
  peak_ct_bytes : int;
  sched_ct_bytes : int;
  order_ct_bytes : int;
  resident_ct_bytes : int;
  peak_key_bytes : int;
  key_gens : int;
  key_evictions : int;
  ct_spills : int;
  ct_reloads : int;
  ct_recomputes : int;
  arena_reuses : int;
  hoisted_rotations : int;
  reordered : bool;
}

type stats = {
  keygen_ms : float;
  encrypt_ms : float;
  eval_ms : float;
  decrypt_ms : float;
  output_levels : int array;
  mem : mem_stats;
}

(* Fusion plan for the Modswitch∘Rescale peephole: a Rescale consumed
   exactly once, by a Modswitch, and not itself an output, is deferred —
   its consumer executes the fused [Evaluator.rescale_modswitch] on the
   pre-rescale ciphertext and the intermediate basis never exists. *)
let deferred_rescales (p : Program.t) =
  let n = Program.n_ops p in
  let uses = Array.make n 0 in
  let bump o = uses.(o) <- uses.(o) + 1 in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Add (a, b) | Op.Sub (a, b) | Op.Mul (a, b) -> bump a; bump b
      | Op.Neg a | Op.Rotate (a, _) | Op.Rescale a | Op.Modswitch a
      | Op.Upscale (a, _) -> bump a
      | Op.Input _ | Op.Const _ | Op.Vconst _ -> ())
    p;
  Array.iter bump (Program.outputs p);
  let is_rescale = Array.make n false in
  Program.iteri
    (fun i k -> match k with Op.Rescale _ -> is_rescale.(i) <- true | _ -> ())
    p;
  let deferred = Array.make n false in
  Program.iteri
    (fun _ k ->
      match k with
      | Op.Modswitch a when is_rescale.(a) && uses.(a) = 1 ->
          deferred.(a) <- true
      | _ -> ())
    p;
  deferred

(* Storage roots: an op whose result physically IS its operand's value
   (deferred rescale, plaintext scale bookkeeping, rotation by zero)
   maps to the operand's root.  Liveness, freeing, spilling, and slot
   storage all happen on roots. *)
let storage_roots (p : Program.t) deferred =
  let n = Program.n_ops p in
  let nh = Program.n_slots p in
  let root = Array.init n (fun i -> i) in
  Program.iteri
    (fun i k ->
      let alias a = root.(i) <- root.(a) in
      let is_c o = Program.vtype p o = Op.Cipher in
      match k with
      | Op.Rescale a -> if (not (is_c a)) || deferred.(i) then alias a
      | Op.Modswitch a | Op.Upscale (a, _) -> if not (is_c a) then alias a
      | Op.Rotate (a, s) ->
          if is_c a && Fhe_util.Bits.pos_rem s nh = 0 then alias a
      | _ -> ())
    p;
  root

(* Hoisting plan: the storage root a nonzero cipher rotation reads, or
   -1 for every other op.  Rotations of one root share the key-switch
   decomposition of its c1 (see [exec]). *)
let rotation_sources (p : Program.t) root =
  let nh = Program.n_slots p in
  Array.init (Program.n_ops p) (fun i ->
      match Program.kind p i with
      | Op.Rotate (a, s)
        when Program.vtype p a = Op.Cipher && Fhe_util.Bits.pos_rem s nh <> 0
        ->
          root.(a)
      | _ -> -1)

(* Unique token for this process, used to key spill entries so runs
   sharing a spill directory (even across processes) cannot read each
   other's ciphertexts.  The marker file is removed when the run ends. *)
let fresh_nonce () =
  let marker = Filename.temp_file "fhe-spill" ".nonce" in
  (marker, Filename.basename marker)

let run_counter = ref 0

(* Per-value storage state.  Only storage roots (and plains) occupy a
   slot; alias ids read through their root. *)
type slot =
  | Unset
  | Ct of Evaluator.ct
  | Pl of float array
  | SpilledSlot  (** released from memory, verified copy on disk *)
  | FreedSlot  (** dead (or lost spill) — recompute on demand *)

let exec ?(sched = true) ?mem_budget ?key_budget ?spill_dir ?spill_fault
    (keys : Keys.t) (m : Managed.t) ~inputs =
  let ctx = keys.Keys.ctx in
  let p = m.Managed.prog in
  let nh = Context.slot_count ctx in
  if Program.n_slots p <> nh then
    invalid_arg "Backend.run: program slot count must equal n/2";
  if m.Managed.rbits <> ctx.Context.level_bits then
    invalid_arg "Backend.run: program rbits must match context level_bits";
  let n = Program.n_ops p in
  let nbytes = 8 * ctx.Context.n in
  let deferred = deferred_rescales p in
  let root = storage_roots p deferred in
  (match key_budget, mem_budget with
  | Some b, _ | None, Some b -> Keys.set_budget keys (Some b)
  | None, None -> ());
  (if sched then
     match ctx.Context.arena with
     | None -> Context.set_arena ctx (Some (Arena.create ~n:ctx.Context.n))
     | Some _ -> ());
  let arena_reuses0 =
    match ctx.Context.arena with Some a -> Arena.reuses a | None -> 0
  in
  let keys_mem0 = Keys.mem keys in

  (* ---- schedule ---- *)
  let weight i =
    if root.(i) = i && Program.vtype p i = Op.Cipher then
      2 * m.Managed.level.(i) * nbytes
    else 0
  in
  let plan =
    Fhe_sched.Schedule.plan ~reorder:sched ~n
      ~deps:(fun i -> Op.operands (Program.kind p i))
      ~root:(fun i -> root.(i))
      ~weight ~outputs:(Program.outputs p) ()
  in

  (* ---- spill environment (only with a budget, under scheduling) ---- *)
  let spilling = sched && mem_budget <> None in
  let marker, nonce = if spilling then fresh_nonce () else ("", "") in
  incr run_counter;
  let dir =
    match spill_dir with
    | Some d -> d
    | None -> marker ^ Printf.sprintf ".%d.d" !run_counter
  in
  let own_dir = spill_dir = None in

  (* ---- slots and byte accounting ---- *)
  let slots : slot array = Array.make n Unset in
  let live_list = ref [] in
  let live_bytes = ref 0 and peak_live = ref 0 in
  let spills = ref 0 and reloads = ref 0 and recomputes = ref 0 in
  let spilled_ever = ref [] in
  let no_spill = Hashtbl.create 8 in
  let poly_bytes (pl : Poly.t) = Poly.rows pl * nbytes in
  (* Whether [pl] is also referenced by another live ciphertext
     (add_plain/sub_plain share the untouched c1 record), in which case
     it must be neither double-counted nor released. *)
  let shares_poly pl exclude =
    List.exists
      (fun r ->
        r <> exclude
        &&
        match slots.(r) with
        | Ct c -> c.Evaluator.c0 == pl || c.Evaluator.c1 == pl
        | _ -> false)
      !live_list
  in
  let install r ct =
    slots.(r) <- Ct ct;
    live_list := r :: !live_list;
    let add pl =
      if not (shares_poly pl r) then live_bytes := !live_bytes + poly_bytes pl
    in
    add ct.Evaluator.c0;
    if ct.Evaluator.c1 != ct.Evaluator.c0 then add ct.Evaluator.c1;
    if !live_bytes > !peak_live then peak_live := !live_bytes
  in
  let release_ct r =
    match slots.(r) with
    | Ct ct ->
        live_list := List.filter (fun x -> x <> r) !live_list;
        let drop pl =
          if not (shares_poly pl r) then begin
            live_bytes := !live_bytes - poly_bytes pl;
            if sched then Poly.release ctx pl
          end
        in
        drop ct.Evaluator.c0;
        if ct.Evaluator.c1 != ct.Evaluator.c0 then drop ct.Evaluator.c1
    | _ -> ()
  in

  (* ---- next scheduled use (for spill victim choice) ---- *)
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos i -> pos_of.(i) <- pos) plan.Fhe_sched.Schedule.order;
  let use_pos : int list array = Array.make n [] in
  (if spilling then begin
     Program.iteri
       (fun j k ->
         List.iter
           (fun o -> use_pos.(root.(o)) <- pos_of.(j) :: use_pos.(root.(o)))
           (Op.operands k))
       p;
     Array.iter
       (fun o -> use_pos.(root.(o)) <- max_int :: use_pos.(root.(o)))
       (Program.outputs p);
     Array.iteri (fun r l -> use_pos.(r) <- List.sort compare l) use_pos
   end);
  let next_use r pos =
    let rec drop = function
      | u :: tl when u <= pos ->
          use_pos.(r) <- tl;
          drop tl
      | l -> ( match l with [] -> max_int | u :: _ -> u)
    in
    drop use_pos.(r)
  in

  (* ---- hoisted rotations ----
     A root rotated at least twice is decomposed once: its first
     rotation builds the entry, later ones reuse it, and the last one
     returns its rows to the arena.  The entry owns its rows, so
     spilling or freeing the source cannot corrupt it, and a rotation
     recomputed after the entry is gone takes [Evaluator.rotate] — the
     same kernels with a group of one, hence the same bits.  Entries
     are kernel scratch like the key switch's temporaries: not counted
     in [peak_ct_bytes]. *)
  let rot_src = rotation_sources p root in
  let rot_total = Array.make n 0 in
  Array.iter
    (fun r -> if r >= 0 then rot_total.(r) <- rot_total.(r) + 1)
    rot_src;
  let rots_left = Array.copy rot_total in
  let hoists : (int, Evaluator.hoisted) Hashtbl.t = Hashtbl.create 8 in
  let hoisted_rotations = ref 0 in
  (* after the main loop executes rotation [i]: retire its group entry
     with the root's last rotation *)
  let rotation_done i =
    let r = rot_src.(i) in
    if r >= 0 then begin
      rots_left.(r) <- rots_left.(r) - 1;
      if rots_left.(r) = 0 then
        match Hashtbl.find_opt hoists r with
        | Some h ->
            Evaluator.release_hoisted keys h;
            Hashtbl.remove hoists r
        | None -> ()
    end
  in

  let find name =
    match List.assoc_opt name inputs with
    | Some v -> Slots.pad nh v
    | None -> invalid_arg (Printf.sprintf "Backend: missing input %S" name)
  in
  let pow2 b = Fhe_util.Bits.pow2f b in
  let encrypt_ms = ref 0.0 in

  let plain i =
    match slots.(root.(i)) with
    | Pl v -> v
    | _ -> invalid_arg "Backend: not plain"
  in

  (* ---- op evaluation, with demand-driven reload/recompute ---- *)
  let rec force_ct i : Evaluator.ct =
    let r = root.(i) in
    match slots.(r) with
    | Ct ct -> ct
    | Pl _ | Unset -> invalid_arg "Backend: not cipher"
    | SpilledSlot -> (
        let faulted = match spill_fault with Some f -> f r | None -> false in
        let reloaded = if faulted then None else Ctstore.load ctx ~dir ~nonce ~id:r in
        match reloaded with
        | Some ct ->
            incr reloads;
            install r ct;
            ct
        | None -> recompute r)
    | FreedSlot -> recompute r
  and recompute r =
    incr recomputes;
    let opnds = Op.operands (Program.kind p r) in
    (* Operand roots that are currently dead get transiently
       resurrected by the recursive force; re-free them afterwards so
       recomputation does not change what stays resident. *)
    let dead_before =
      List.sort_uniq compare
        (List.filter_map
           (fun o ->
             match slots.(root.(o)) with
             | FreedSlot -> Some root.(o)
             | _ -> None)
           opnds)
    in
    let ct = compute_ct r (Program.kind p r) in
    install r ct;
    List.iter
      (fun ro ->
        release_ct ro;
        slots.(ro) <- FreedSlot)
      dead_before;
    ct
  and compute_ct i k : Evaluator.ct =
    let is_c o = Program.vtype p o = Op.Cipher in
    match k with
    | Op.Input { name; vt = Op.Cipher } ->
        let ct, ms =
          Fhe_util.Timer.time (fun () ->
              Evaluator.encrypt_det keys ~tag:i ~level:m.Managed.level.(i)
                ~scale:(pow2 m.Managed.scale.(i))
                (find name))
        in
        encrypt_ms := !encrypt_ms +. ms;
        ct
    | Op.Add (a, b) -> (
        match (is_c a, is_c b) with
        | true, true -> Evaluator.add keys (force_ct a) (force_ct b)
        | true, false -> Evaluator.add_plain keys (force_ct a) (plain b)
        | false, true -> Evaluator.add_plain keys (force_ct b) (plain a)
        | false, false -> invalid_arg "Backend: plain op in compute_ct")
    | Op.Sub (a, b) -> (
        match (is_c a, is_c b) with
        | true, true -> Evaluator.sub keys (force_ct a) (force_ct b)
        | true, false -> Evaluator.sub_plain keys (force_ct a) (plain b)
        | false, true ->
            Evaluator.neg keys (Evaluator.sub_plain keys (force_ct b) (plain a))
        | false, false -> invalid_arg "Backend: plain op in compute_ct")
    | Op.Mul (a, b) -> (
        match (is_c a, is_c b) with
        | true, true -> Evaluator.mul keys (force_ct a) (force_ct b)
        | true, false ->
            Evaluator.mul_plain keys (force_ct a)
              ~scale:(pow2 m.Managed.scale.(b))
              (plain b)
        | false, true ->
            Evaluator.mul_plain keys (force_ct b)
              ~scale:(pow2 m.Managed.scale.(a))
              (plain a)
        | false, false -> invalid_arg "Backend: plain op in compute_ct")
    | Op.Neg a -> Evaluator.neg keys (force_ct a)
    | Op.Rotate (a, steps) -> rotate a steps
    | Op.Rescale a -> Evaluator.rescale keys (force_ct a)
    | Op.Modswitch a ->
        if deferred.(a) then begin
          let ct = force_ct a in
          if ct.Evaluator.level > 2 then Evaluator.rescale_modswitch keys ct
          else Evaluator.modswitch keys (Evaluator.rescale keys ct)
        end
        else Evaluator.modswitch keys (force_ct a)
    | Op.Upscale (a, bits) -> Evaluator.upscale keys (force_ct a) bits
    | Op.Input { vt = Op.Plain; _ } | Op.Const _ | Op.Vconst _ ->
        invalid_arg "Backend: plain op in compute_ct"
  and rotate a steps =
    let r = root.(a) in
    let src = force_ct a in
    (* the group's first rotation builds the entry *)
    if rot_total.(r) >= 2 && rots_left.(r) = rot_total.(r)
       && not (Hashtbl.mem hoists r)
    then Hashtbl.replace hoists r (Evaluator.hoist keys src);
    match Hashtbl.find_opt hoists r with
    | Some h ->
        incr hoisted_rotations;
        Evaluator.rotate_hoisted keys h src steps
    | None -> Evaluator.rotate keys src steps
  in
  let compute_plain i k =
    match k with
    | Op.Input { name; _ } -> find name
    | Op.Const c -> Array.make nh c
    | Op.Vconst { values; _ } -> Slots.pad nh values
    | Op.Add (a, b) -> Array.init nh (fun j -> (plain a).(j) +. (plain b).(j))
    | Op.Sub (a, b) -> Array.init nh (fun j -> (plain a).(j) -. (plain b).(j))
    | Op.Mul (a, b) -> Array.init nh (fun j -> (plain a).(j) *. (plain b).(j))
    | Op.Neg a -> Array.map (fun x -> -.x) (plain a)
    | Op.Rotate (a, k) -> Slots.rotl (plain a) k
    | Op.Rescale _ | Op.Modswitch _ | Op.Upscale _ ->
        ignore i;
        invalid_arg "Backend: alias op in compute_plain"
  in

  (* Spill least-urgently-needed live ciphertexts until under budget.
     Victim = live root with the furthest next scheduled use (outputs
     not needed until decrypt make ideal victims).  A failed
     (unverified) spill keeps the value in memory and excludes it from
     future victim picks. *)
  let spill_down budget pos =
    let continue = ref true in
    while !continue && !live_bytes > budget do
      let victim =
        List.fold_left
          (fun acc r ->
            if Hashtbl.mem no_spill r then acc
            else
              let nu = next_use r pos in
              match acc with
              | Some (br, bnu) when (bnu, br) >= (nu, r) -> acc
              | _ -> Some (r, nu))
          None !live_list
      in
      match victim with
      | None -> continue := false
      | Some (r, _) -> (
          match slots.(r) with
          | Ct ct ->
              if Ctstore.spill ~dir ~nonce ~id:r ct then begin
                incr spills;
                spilled_ever := r :: !spilled_ever;
                release_ct r;
                slots.(r) <- SpilledSlot
              end
              else Hashtbl.replace no_spill r ()
          | _ -> Hashtbl.replace no_spill r ())
    done
  in

  (* ---- main loop over the scheduled order ---- *)
  let t_eval0 = Fhe_util.Timer.now_ns () in
  Array.iteri
    (fun pos i ->
      let k = Program.kind p i in
      (if root.(i) <> i then
         (* alias: deferred rescale, plain scale bookkeeping, or
            rotation by zero — the value lives at its root; executing
            it is a no-op *)
         ()
       else if Program.vtype p i = Op.Cipher then begin
         let ct = compute_ct i k in
         install i ct;
         rotation_done i
       end
       else slots.(i) <- Pl (compute_plain i k));
      (if sched then
         List.iter
           (fun r ->
             match slots.(r) with
             | Ct _ ->
                 release_ct r;
                 slots.(r) <- FreedSlot
             | SpilledSlot -> slots.(r) <- FreedSlot
             | _ -> ())
           plan.Fhe_sched.Schedule.free_after.(pos));
      match mem_budget with
      | Some b when spilling -> spill_down b pos
      | _ -> ())
    plan.Fhe_sched.Schedule.order;
  let eval_ms =
    (Int64.to_float (Int64.sub (Fhe_util.Timer.now_ns ()) t_eval0) /. 1e6)
    -. !encrypt_ms
  in
  (* every group retired with its last rotation *)
  assert (Hashtbl.length hoists = 0);

  (* ---- outputs ---- *)
  let outputs = Program.outputs p in
  let output_levels =
    Array.map
      (fun o ->
        if Program.vtype p o = Op.Cipher then (force_ct o).Evaluator.level
        else -1)
      outputs
  in
  let decrypted, decrypt_ms =
    Fhe_util.Timer.time (fun () ->
        Array.map
          (fun o ->
            if Program.vtype p o = Op.Cipher then
              Evaluator.decrypt keys (force_ct o)
            else plain o)
          outputs)
  in

  (* ---- spill cleanup (best-effort) ---- *)
  if spilling then begin
    List.iter
      (fun r -> Ctstore.drop ~dir ~nonce ~id:r)
      (List.sort_uniq compare !spilled_ever);
    (try Sys.remove marker with Sys_error _ -> ());
    if own_dir then
      try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ()
  end;

  let keys_mem = Keys.mem keys in
  let mem =
    { peak_ct_bytes = !peak_live;
      sched_ct_bytes = plan.Fhe_sched.Schedule.peak;
      order_ct_bytes = plan.Fhe_sched.Schedule.order_peak;
      resident_ct_bytes = plan.Fhe_sched.Schedule.resident;
      peak_key_bytes = keys_mem.Keys.peak_bytes;
      key_gens = keys_mem.Keys.gens - keys_mem0.Keys.gens;
      key_evictions = keys_mem.Keys.evictions - keys_mem0.Keys.evictions;
      ct_spills = !spills;
      ct_reloads = !reloads;
      ct_recomputes = !recomputes;
      arena_reuses =
        (match ctx.Context.arena with
        | Some a -> Arena.reuses a - arena_reuses0
        | None -> 0);
      hoisted_rotations = !hoisted_rotations;
      reordered = plan.Fhe_sched.Schedule.reordered }
  in
  (decrypted, !encrypt_ms, eval_ms, decrypt_ms, output_levels, mem)

let run_with_keys ?sched ?mem_budget ?key_budget ?spill_dir ?spill_fault
    (keys : Keys.t) (m : Managed.t) ~inputs =
  let out, _, _, _, _, _ =
    exec ?sched ?mem_budget ?key_budget ?spill_dir ?spill_fault keys m ~inputs
  in
  out

let run_timed ?(seed = 0xC0FFEE) ?pool ?sched ?mem_budget ?key_budget
    ?spill_dir ?spill_fault (m : Managed.t) ~inputs =
  let nh = Program.n_slots m.Managed.prog in
  let levels = max 1 (Managed.max_level m) in
  let ctx = Context.make ~n:(2 * nh) ~levels ~level_bits:m.Managed.rbits () in
  Context.set_pool ctx pool;
  (if sched <> Some false then
     Context.set_arena ctx (Some (Arena.create ~n:ctx.Context.n)));
  let kb =
    match key_budget, mem_budget with
    | Some b, _ | None, Some b -> Some b
    | None, None -> None
  in
  let keys, keygen_ms =
    Fhe_util.Timer.time (fun () -> Keys.keygen ~seed ?key_budget:kb ctx)
  in
  let out, encrypt_ms, eval_ms, decrypt_ms, output_levels, mem =
    exec ?sched ?mem_budget ?key_budget ?spill_dir ?spill_fault keys m ~inputs
  in
  (out, { keygen_ms; encrypt_ms; eval_ms; decrypt_ms; output_levels; mem })

let run ?(seed = 0xC0FFEE) ?pool ?sched ?mem_budget ?key_budget ?spill_dir
    ?spill_fault (m : Managed.t) ~inputs =
  let out, _ =
    run_timed ~seed ?pool ?sched ?mem_budget ?key_budget ?spill_dir
      ?spill_fault m ~inputs
  in
  out
