open Fhe_ir
module Diag = Reserve.Diag
module Oracle = Fhe_sim.Oracle

(* The EVA baseline: a fused forward pass.  Scale tracking and op
   insertion happen in one walk, so analyze/annotate are trivial and
   place does the work.  Results are legal by Eva.compile's contract. *)
module Eva_strategy = struct
  let name = "eva"
  let aliases = []

  let caps =
    {
      Strategy.redistributes = false;
      hoists = false;
      explores = false;
      fallback_chain = false;
    }

  let cache_key_tag = "eva"
  let cache_extra _ _ = []

  type analysis = unit
  type annotation = unit

  let analyze _ _ = ()
  let annotate _ _ () = ()

  let place (cfg : Strategy.config) p () =
    Fhe_eva.Eva.compile ~xmax_bits:cfg.xmax_bits ~rbits:cfg.rbits
      ~wbits:cfg.wbits p
end

(* Hecate: annotate explores the proactive-downscale plan space, place
   extracts the winning managed program. *)
module Hecate_strategy = struct
  let name = "hecate"
  let aliases = []

  let caps =
    {
      Strategy.redistributes = false;
      hoists = false;
      explores = true;
      fallback_chain = false;
    }

  let cache_key_tag = "hecate"

  let iterations_of (cfg : Strategy.config) p =
    match cfg.iterations with
    | Some n -> n
    | None -> Fhe_hecate.Hecate.default_iterations p

  let cache_extra cfg p = [ string_of_int (iterations_of cfg p) ]

  type analysis = unit
  type annotation = Fhe_hecate.Hecate.result

  let analyze _ _ = ()

  let annotate (cfg : Strategy.config) p () =
    Fhe_hecate.Hecate.compile ~iterations:(iterations_of cfg p)
      ~xmax_bits:cfg.xmax_bits ~rbits:cfg.rbits ~wbits:cfg.wbits p

  let place _ _ (r : Fhe_hecate.Hecate.result) = r.Fhe_hecate.Hecate.managed
end

(* The reserve variants map 1:1 onto the interface: analyze is the §6.1
   allocation ordering, annotate the §6.2/§6.3 backward reserve
   analysis, place the §7 insertion (+hoisting for reserve-full).  Each
   phase runs its checked pass and raises the pass's diagnostics as
   Diag.Failed; Placement.run_safe validates the result. *)
module Reserve_strategy (V : sig
  val name : string
  val aliases : string list
  val redistribute : bool
  val hoist : bool
end) =
struct
  include V

  let caps =
    {
      Strategy.redistributes = redistribute;
      hoists = hoist;
      explores = false;
      fallback_chain = true;
    }

  let cache_key_tag = name

  (* the slot of the retired input-upscale knob, kept so stored keys
     still hit *)
  let cache_extra _ _ = [ "-" ]

  type analysis = int array
  type annotation = Reserve.Allocation.t

  let prm (cfg : Strategy.config) =
    Reserve.Rtype.params ~rbits:cfg.rbits ~wbits:cfg.wbits

  let analyze cfg p = Diag.ok_exn (Reserve.Ordering.run_safe (prm cfg) p)

  let annotate (cfg : Strategy.config) p order =
    Diag.ok_exn
      (Reserve.Allocation.run_safe (prm cfg) ~redistribute
         ~output_reserve:cfg.xmax_bits ~order p)

  let place _ p alloc = Diag.ok_exn (Reserve.Placement.run_safe ~hoist p alloc)
end

module Reserve_ba = Reserve_strategy (struct
  let name = "reserve-ba"
  let aliases = [ "ba" ]
  let redistribute = false
  let hoist = false
end)

module Reserve_ra = Reserve_strategy (struct
  let name = "reserve-ra"
  let aliases = [ "ra" ]
  let redistribute = true
  let hoist = false
end)

module Reserve_full = Reserve_strategy (struct
  let name = "reserve-full"
  let aliases = [ "reserve"; "full" ]
  let redistribute = true
  let hoist = true
end)

(* Canonical order: pins the differential report and Benchjson entry
   ordering; do not reorder. *)
let builtin : Strategy.t list =
  [
    (module Eva_strategy);
    (module Hecate_strategy);
    (module Reserve_ba);
    (module Reserve_ra);
    (module Reserve_full);
  ]

let registered = ref builtin
let all () = !registered
let names () = List.map Strategy.name !registered

let spellings s =
  List.map String.lowercase_ascii (Strategy.name s :: Strategy.aliases s)

let of_name n =
  let n = String.lowercase_ascii n in
  List.find_opt (fun s -> List.mem n (spellings s)) !registered

let get_exn n =
  match of_name n with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Registry.get_exn: unknown strategy %S" n)

let register s =
  let fresh = spellings s in
  List.iter
    (fun existing ->
      List.iter
        (fun sp ->
          if List.mem sp (spellings existing) then
            invalid_arg
              (Printf.sprintf "Registry.register: %S already names strategy %S"
                 sp (Strategy.name existing)))
        fresh)
    !registered;
  registered := !registered @ [ s ]

let compile_uncached = Strategy.compile_uncached

let compile_hit s cfg p =
  if not (Fhe_cache.Store.active ()) then (compile_uncached s cfg p, false)
  else
    Fhe_cache.Store.with_managed_hit
      ~key:(Strategy.cache_key s cfg p)
      (fun () -> Fhe_cache.Store.bypass (fun () -> compile_uncached s cfg p))

let compile s cfg p = fst (compile_hit s cfg p)

(* ------------------------------------------------------------------ *)
(* The resilient driver: validate every link, self-check the result
   against the reference execution, and degrade through one list of
   strategy names instead of crashing. *)

type attempt = { strategy : string; wbits : int; diags : Diag.t list }

type outcome = {
  managed : Managed.t;
  strategy : string;
  wbits : int;
  fallbacks : attempt list;
  warnings : Diag.t list;
}

let attempt_diags atts = List.concat_map (fun a -> a.diags) atts

let chain = [ "reserve-full"; "reserve-ra"; "reserve-ba"; "eva" ]

(* bit decrements of the waterline for the final EVA links *)
let waterline_steps = [ 5; 10 ]

let attempt s cfg ~oracle ~inputs p =
  match compile s cfg p with
  | exception Diag.Failed ds -> Error ds
  | exception e -> Error [ Diag.of_exn Diag.Driver e ]
  | m -> (
      match Validator.check m with
      | Error es -> Error (List.map Diag.of_validator_error es)
      | Ok () when oracle -> (
          match Oracle.check p m ~inputs with
          | { Oracle.mismatches = []; _ } -> Ok m
          | { Oracle.mismatches = x :: _; _ } ->
              Error
                [ Diag.errorf Diag.Oracle
                    "output %d slot %d: managed %g differs from reference \
                     %g beyond the noise bound %g"
                    x.Oracle.output x.slot x.got x.expected x.bound ]
          | exception e -> Error [ Diag.of_exn Diag.Oracle e ])
      | Ok () -> Ok m)

let compile_safe s (cfg : Strategy.config) ~strict ~oracle ?oracle_inputs p =
  if not (Strategy.caps s).Strategy.fallback_chain then
    Ok
      {
        managed = compile s cfg p;
        strategy = Strategy.name s;
        wbits = cfg.wbits;
        fallbacks = [];
        warnings = [];
      }
  else
    try
      let inputs =
        match oracle_inputs with
        | Some i -> i
        | None -> if oracle then Oracle.synth_inputs p else []
      in
      let links =
        if strict then [ (s, cfg.wbits) ]
        else
          (* the links after [s], or straight to EVA from a strategy
             registered off the built-in chain *)
          let rec after = function
            | [] -> [ "eva" ]
            | n :: rest -> if n = Strategy.name s then rest else after rest
          in
          let eva = get_exn "eva" in
          ((s, cfg.wbits)
          :: List.map (fun n -> (get_exn n, cfg.wbits)) (after chain))
          @ List.filter_map
              (fun d ->
                let w = cfg.wbits - d in
                if w >= 1 then Some (eva, w) else None)
              waterline_steps
      in
      let rec go failed = function
        | [] -> Error (List.rev failed)
        | (link, w) :: rest -> (
            let name = Strategy.name link in
            match attempt link { cfg with wbits = w } ~oracle ~inputs p with
            | Ok m ->
                let warnings =
                  if failed = [] then []
                  else
                    [ Diag.warnf Diag.Driver
                        "requested configuration failed; degraded to %s at \
                         waterline %d after %d failed attempt(s)"
                        name w (List.length failed) ]
                in
                Ok
                  {
                    managed = m;
                    strategy = name;
                    wbits = w;
                    fallbacks = List.rev failed;
                    warnings;
                  }
            | Error diags ->
                go ({ strategy = name; wbits = w; diags } :: failed) rest)
      in
      go [] links
    with e ->
      Error
        [ { strategy = Strategy.name s;
            wbits = cfg.wbits;
            diags = [ Diag.of_exn Diag.Driver e ] } ]
