open Fhe_ir

type caps = {
  redistributes : bool;
  hoists : bool;
  explores : bool;
  fallback_chain : bool;
}

type config = {
  rbits : int;
  wbits : int;
  xmax_bits : int;
  iterations : int option;
}

let config ?(xmax_bits = 0) ?iterations ~rbits ~wbits () =
  { rbits; wbits; xmax_bits; iterations }

type phases = {
  analyze_ms : float;
  annotate_ms : float;
  place_ms : float;
  total_ms : float;
}

module type SCALE_STRATEGY = sig
  val name : string
  val aliases : string list
  val caps : caps
  val cache_key_tag : string
  val cache_extra : config -> Program.t -> string list

  type analysis
  type annotation

  val analyze : config -> Program.t -> analysis
  val annotate : config -> Program.t -> analysis -> annotation
  val place : config -> Program.t -> annotation -> Managed.t
end

type t = (module SCALE_STRATEGY)

let name (module S : SCALE_STRATEGY) = S.name
let aliases (module S : SCALE_STRATEGY) = S.aliases
let caps (module S : SCALE_STRATEGY) = S.caps

let caps_string c =
  let flags =
    [
      (c.redistributes, "redistributes");
      (c.hoists, "hoists");
      (c.explores, "explores");
      (c.fallback_chain, "fallback");
    ]
  in
  match List.filter_map (fun (b, n) -> if b then Some n else None) flags with
  | [] -> "-"
  | fs -> String.concat "," fs

let cache_key (module S : SCALE_STRATEGY) cfg p =
  Fhe_cache.Key.make ~digest:(Intern.digest p) ~compiler:S.cache_key_tag
    ~rbits:cfg.rbits ~wbits:cfg.wbits ~xmax_bits:cfg.xmax_bits
    ~extra:(S.cache_extra cfg p) ()

let compile_with_phases (module S : SCALE_STRATEGY) cfg p =
  let a, analyze_ms = Fhe_util.Timer.time (fun () -> S.analyze cfg p) in
  let b, annotate_ms = Fhe_util.Timer.time (fun () -> S.annotate cfg p a) in
  let m, place_ms = Fhe_util.Timer.time (fun () -> S.place cfg p b) in
  ( m,
    {
      analyze_ms;
      annotate_ms;
      place_ms;
      total_ms = analyze_ms +. annotate_ms +. place_ms;
    } )

let compile_uncached (module S : SCALE_STRATEGY) cfg p =
  let a = S.analyze cfg p in
  let b = S.annotate cfg p a in
  S.place cfg p b
