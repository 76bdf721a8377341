type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* emit *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let to_string j =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> Buffer.add_string b (number f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          vs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parse *)

exception Bad of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let bad msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else bad (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else bad ("expected " ^ word)
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then bad "short \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub text !pos 4)
                with _ -> bad "bad \\u escape"
              in
              pos := !pos + 4;
              (* BMP only; enough for this schema *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?';
              go ()
          | _ -> bad "bad escape")
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let number_body () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num text.[!pos] do
      advance ()
    done;
    if !pos = start then bad "expected a number";
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> bad "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some '"' -> Str (string_body ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> bad "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> bad "expected ',' or ']'"
          in
          Arr (items [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number_body ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then bad "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) ->
      Error (Printf.sprintf "JSON error at offset %d: %s" p msg)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

(* ------------------------------------------------------------------ *)
(* the bench-compile schema *)

let schema = "fhe-bench-compile/v7"

let schema_v6 = "fhe-bench-compile/v6"

let schema_v5 = "fhe-bench-compile/v5"

let schema_v4 = "fhe-bench-compile/v4"

let schema_v3 = "fhe-bench-compile/v3"

let schema_v2 = "fhe-bench-compile/v2"

let schema_v1 = "fhe-bench-compile/v1"

type exec_stats = {
  exec_ms : float;
  encrypt_ms : float;
  eval_ms : float;
  decrypt_ms : float;
  keygen_ms : float;
  max_err : float;
  (* v7 additions: memory accounting (deterministic byte counts, not
     wall-clock).  0 = not measured (pre-v7 baseline). *)
  peak_ct_bytes : int;
  order_ct_bytes : int;
  resident_ct_bytes : int;
  peak_key_bytes : int;
}

type measurement = {
  app : string;
  compiler : string;
  compile_ms : float;
  warm_compile_ms : float;
  input_level : int;
  modulus_bits : int;
  est_latency_us : float;
  exec : exec_stats option;
}

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
  cache_poisoned : int;
}

let no_cache_stats =
  { cache_hits = 0; cache_misses = 0; cache_stores = 0; cache_poisoned = 0 }

type serve_stats = {
  serve_requests : int;
  serve_qps : float;
  serve_p50_ms : float;
  serve_p99_ms : float;
  serve_shed : int;
  serve_timeouts : int;
  serve_degraded : int;
}

type portfolio_entry = {
  p_app : string;
  p_winner : string;
  p_win_est_latency_us : float;
  p_legs : (string * float) list;
}

type portfolio_stats = {
  p_strategies : string list;
  p_wins : (string * int) list;
  p_entries : portfolio_entry list;
}

type run = {
  rbits : int;
  wbits : int;
  domains : int;
  wall_time_par : float;
  cache : cache_stats;
  serve : serve_stats option;
  portfolio : portfolio_stats option;
  entries : measurement list;
}

let run_to_json r =
  Obj
    [ ("schema", Str schema);
      ("rbits", Num (float_of_int r.rbits));
      ("waterline", Num (float_of_int r.wbits));
      ("domains", Num (float_of_int r.domains));
      ("wall_time_par", Num r.wall_time_par);
      ( "cache",
        Obj
          [ ("hits", Num (float_of_int r.cache.cache_hits));
            ("misses", Num (float_of_int r.cache.cache_misses));
            ("stores", Num (float_of_int r.cache.cache_stores));
            ("poisoned", Num (float_of_int r.cache.cache_poisoned)) ] );
      ( "serve",
        match r.serve with
        | None -> Null
        | Some s ->
            Obj
              [ ("requests", Num (float_of_int s.serve_requests));
                ("qps", Num s.serve_qps);
                ("p50_ms", Num s.serve_p50_ms);
                ("p99_ms", Num s.serve_p99_ms);
                ("shed", Num (float_of_int s.serve_shed));
                ("timeouts", Num (float_of_int s.serve_timeouts));
                ("degraded", Num (float_of_int s.serve_degraded)) ] );
      ( "portfolio",
        match r.portfolio with
        | None -> Null
        | Some p ->
            Obj
              [ ("strategies", Arr (List.map (fun s -> Str s) p.p_strategies));
                ( "wins",
                  Obj
                    (List.map
                       (fun (s, n) -> (s, Num (float_of_int n)))
                       p.p_wins) );
                ( "entries",
                  Arr
                    (List.map
                       (fun e ->
                         Obj
                           [ ("app", Str e.p_app);
                             ("winner", Str e.p_winner);
                             ( "win_est_latency_us",
                               Num e.p_win_est_latency_us );
                             ( "legs",
                               Obj
                                 (List.map
                                    (fun (s, v) -> (s, Num v))
                                    e.p_legs) ) ])
                       p.p_entries) ) ] );
      ( "entries",
        Arr
          (List.map
             (fun m ->
               Obj
                 [ ("app", Str m.app);
                   ("compiler", Str m.compiler);
                   ("compile_ms", Num m.compile_ms);
                   ("warm_compile_ms", Num m.warm_compile_ms);
                   ("input_level", Num (float_of_int m.input_level));
                   ("modulus_bits", Num (float_of_int m.modulus_bits));
                   ("est_latency_us", Num m.est_latency_us);
                   ( "exec",
                     match m.exec with
                     | None -> Null
                     | Some e ->
                         Obj
                           [ ("exec_ms", Num e.exec_ms);
                             ("encrypt_ms", Num e.encrypt_ms);
                             ("eval_ms", Num e.eval_ms);
                             ("decrypt_ms", Num e.decrypt_ms);
                             ("keygen_ms", Num e.keygen_ms);
                             ("max_err", Num e.max_err);
                             ( "peak_ct_bytes",
                               Num (float_of_int e.peak_ct_bytes) );
                             ( "order_ct_bytes",
                               Num (float_of_int e.order_ct_bytes) );
                             ( "resident_ct_bytes",
                               Num (float_of_int e.resident_ct_bytes) );
                             ( "peak_key_bytes",
                               Num (float_of_int e.peak_key_bytes) ) ] ) ])
             r.entries) ) ]

let get_str k j =
  match member k j with Some (Str s) -> Ok s | _ -> Error ("missing " ^ k)

let get_num k j =
  match member k j with Some (Num f) -> Ok f | _ -> Error ("missing " ^ k)

let ( let* ) = Result.bind

let run_of_json j =
  let* s = get_str "schema" j in
  if
    s <> schema && s <> schema_v6 && s <> schema_v5 && s <> schema_v4
    && s <> schema_v3 && s <> schema_v2 && s <> schema_v1
  then
    Error
      (Printf.sprintf
         "unknown schema %S: %S and v1-v6 are read; re-run `bench json` (or \
          `bench exec`) to re-emit the file"
         s schema)
  else
    let* rbits = get_num "rbits" j in
    let* wbits = get_num "waterline" j in
    (* v2 additions; a v1 file is a sequential run with no recorded
       batch wall time *)
    let domains =
      match member "domains" j with Some (Num f) -> int_of_float f | _ -> 1
    in
    let wall_time_par =
      match member "wall_time_par" j with Some (Num f) -> f | _ -> 0.0
    in
    (* v3 additions; in a v1/v2 file there was no cache, and every
       warm_compile_ms reads as 0 ("not measured") *)
    let cache =
      match member "cache" j with
      | Some c ->
          let geti k =
            match member k c with Some (Num f) -> int_of_float f | _ -> 0
          in
          { cache_hits = geti "hits"; cache_misses = geti "misses";
            cache_stores = geti "stores"; cache_poisoned = geti "poisoned" }
      | None -> no_cache_stats
    in
    (* v4 addition: the serve-daemon load snapshot; absent or null in
       older files (and in runs measured without a daemon) *)
    let serve =
      match member "serve" j with
      | Some (Obj _ as s) ->
          let geti k =
            match member k s with Some (Num f) -> int_of_float f | _ -> 0
          in
          let getf k =
            match member k s with Some (Num f) -> f | _ -> 0.0
          in
          Some
            { serve_requests = geti "requests"; serve_qps = getf "qps";
              serve_p50_ms = getf "p50_ms"; serve_p99_ms = getf "p99_ms";
              serve_shed = geti "shed"; serve_timeouts = geti "timeouts";
              serve_degraded = geti "degraded" }
      | _ -> None
    in
    (* v6 addition: the portfolio-mode snapshot; absent or null in older
       files and in runs that never raced the strategies *)
    let portfolio =
      match member "portfolio" j with
      | Some (Obj _ as p) ->
          let strs = function
            | Some (Arr l) ->
                List.filter_map (function Str s -> Some s | _ -> None) l
            | _ -> []
          in
          let num_fields = function
            | Some (Obj kvs) ->
                List.filter_map
                  (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None)
                  kvs
            | _ -> []
          in
          let entries =
            match member "entries" p with
            | Some (Arr es) ->
                List.filter_map
                  (fun e ->
                    match
                      ( get_str "app" e,
                        get_str "winner" e,
                        get_num "win_est_latency_us" e )
                    with
                    | Ok a, Ok w, Ok l ->
                        Some
                          { p_app = a; p_winner = w; p_win_est_latency_us = l;
                            p_legs = num_fields (member "legs" e) }
                    | _ -> None)
                  es
            | _ -> []
          in
          Some
            { p_strategies = strs (member "strategies" p);
              p_wins =
                List.map
                  (fun (k, f) -> (k, int_of_float f))
                  (num_fields (member "wins" p));
              p_entries = entries }
      | _ -> None
    in
    let* entries =
      match member "entries" j with
      | Some (Arr es) ->
          List.fold_left
            (fun acc e ->
              let* acc = acc in
              let* app = get_str "app" e in
              let* compiler = get_str "compiler" e in
              let* compile_ms = get_num "compile_ms" e in
              let warm_compile_ms =
                match member "warm_compile_ms" e with
                | Some (Num f) -> f
                | _ -> 0.0
              in
              let* input_level = get_num "input_level" e in
              let* modulus_bits = get_num "modulus_bits" e in
              let* est_latency_us = get_num "est_latency_us" e in
              (* v5 addition: measured execution stats; absent or null
                 in older files and in compile-only runs *)
              let exec =
                match member "exec" e with
                | Some (Obj _ as x) ->
                    let getf k =
                      match member k x with Some (Num f) -> f | _ -> 0.0
                    in
                    Some
                      { exec_ms = getf "exec_ms";
                        encrypt_ms = getf "encrypt_ms";
                        eval_ms = getf "eval_ms";
                        decrypt_ms = getf "decrypt_ms";
                        keygen_ms = getf "keygen_ms";
                        max_err = getf "max_err";
                        peak_ct_bytes = int_of_float (getf "peak_ct_bytes");
                        order_ct_bytes = int_of_float (getf "order_ct_bytes");
                        resident_ct_bytes =
                          int_of_float (getf "resident_ct_bytes");
                        peak_key_bytes = int_of_float (getf "peak_key_bytes") }
                | _ -> None
              in
              Ok
                ({ app; compiler; compile_ms; warm_compile_ms;
                   input_level = int_of_float input_level;
                   modulus_bits = int_of_float modulus_bits;
                   est_latency_us; exec }
                :: acc))
            (Ok []) es
          |> Result.map List.rev
      | _ -> Error "missing entries"
    in
    Ok
      { rbits = int_of_float rbits; wbits = int_of_float wbits; domains;
        wall_time_par; cache; serve; portfolio; entries }

let compare_runs ?(time_slack = 3.0) ?(latency_slack = 0.10)
    ?(exec_slack = 1.75) ?(err_slack = 4.0) ?(mem_slack = 1.10) ~baseline
    ~current () =
  let find app compiler =
    List.find_opt
      (fun m -> m.app = app && m.compiler = compiler)
      current.entries
  in
  (* the measured-runtime rules (v5): baselines without exec stats gate
     nothing; a baseline with them demands a current measurement that
     is present, no slower than [exec_slack]x, and no less precise than
     [err_slack]x (plus an absolute floor so ~0 baselines don't make
     the gate hair-triggered) *)
  let exec_rule b c =
    match b.exec with
    | None -> None
    | Some be -> (
        match c.exec with
        | None ->
            Some
              (Printf.sprintf "%s/%s: exec stats missing from current run"
                 b.app b.compiler)
        | Some ce ->
            if be.exec_ms > 0.0 && ce.exec_ms > be.exec_ms *. exec_slack then
              Some
                (Printf.sprintf
                   "%s/%s: measured runtime regressed %.2f -> %.2f ms \
                    (slack %.2fx)"
                   b.app b.compiler be.exec_ms ce.exec_ms exec_slack)
            else if ce.max_err > Float.max (be.max_err *. err_slack) 1e-9 then
              Some
                (Printf.sprintf
                   "%s/%s: decrypt precision regressed %g -> %g max |err|"
                   b.app b.compiler be.max_err ce.max_err)
            else if
              (* the v7 memory rules: byte counts are deterministic, so
                 the slack is tight; a pre-v7 baseline (0 bytes) gates
                 nothing *)
              be.peak_ct_bytes > 0
              && float_of_int ce.peak_ct_bytes
                 > float_of_int be.peak_ct_bytes *. mem_slack
            then
              Some
                (Printf.sprintf
                   "%s/%s: peak live ciphertext bytes regressed %d -> %d \
                    (slack %.2fx)"
                   b.app b.compiler be.peak_ct_bytes ce.peak_ct_bytes
                   mem_slack)
            else if
              be.peak_key_bytes > 0
              && float_of_int ce.peak_key_bytes
                 > float_of_int be.peak_key_bytes *. mem_slack
            then
              Some
                (Printf.sprintf
                   "%s/%s: peak switch-key bytes regressed %d -> %d \
                    (slack %.2fx)"
                   b.app b.compiler be.peak_key_bytes ce.peak_key_bytes
                   mem_slack)
            else None)
  in
  List.filter_map
    (fun b ->
      match find b.app b.compiler with
      | None ->
          Some
            (Printf.sprintf "%s/%s: entry missing from current run" b.app
               b.compiler)
      | Some c ->
          if c.modulus_bits > b.modulus_bits then
            Some
              (Printf.sprintf
                 "%s/%s: consumed modulus grew %d -> %d bits (L %d -> %d)"
                 b.app b.compiler b.modulus_bits c.modulus_bits
                 b.input_level c.input_level)
          else if
            c.est_latency_us > b.est_latency_us *. (1.0 +. latency_slack)
          then
            Some
              (Printf.sprintf
                 "%s/%s: estimated latency regressed %.0f -> %.0f us"
                 b.app b.compiler b.est_latency_us c.est_latency_us)
          else if
            b.compile_ms > 0.0 && c.compile_ms > b.compile_ms *. time_slack
          then
            Some
              (Printf.sprintf
                 "%s/%s: compile time regressed %.2f -> %.2f ms (slack %.1fx)"
                 b.app b.compiler b.compile_ms c.compile_ms time_slack)
          else if
            (* a warm (cache-hit) compile must not cost more than
               recompiling cold, up to the same timing slack as the
               cold rule — a hit still pays the digest of the whole
               program, which on a fast compiler (EVA on LeNet) is the
               same order as the compile itself.  0.05 ms of grace
               absorbs timer jitter on apps that compile in
               microseconds.  warm_compile_ms = 0 means "not measured"
               (v1/v2 baseline or cache disabled). *)
            c.warm_compile_ms > 0.0
            && c.warm_compile_ms > Float.max b.compile_ms 0.05 *. time_slack
          then
            Some
              (Printf.sprintf
                 "%s/%s: warm-cache compile %.3f ms exceeds the cold \
                  baseline %.3f ms"
                 b.app b.compiler c.warm_compile_ms b.compile_ms)
          else exec_rule b c)
    baseline.entries
