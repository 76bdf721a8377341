open Fhe_ir

type severity = Error | Warning | Info

type pass =
  | Parse
  | Ordering
  | Allocation
  | Placement
  | Validation
  | Oracle
  | Driver
  | Serve

type t = {
  severity : severity;
  pass : pass;
  op : Op.id option;
  msg : string;
  hint : string option;
}

type 'a pass_result = ('a, t list) result

exception Failed of t list

let ok_exn = function Ok x -> x | Error ds -> raise (Failed ds)

let make ?(severity = Error) ?op ?hint pass msg =
  { severity; pass; op; msg; hint }

let errorf ?op ?hint pass fmt =
  Format.kasprintf (fun msg -> make ~severity:Error ?op ?hint pass msg) fmt

let warnf ?op ?hint pass fmt =
  Format.kasprintf (fun msg -> make ~severity:Warning ?op ?hint pass msg) fmt

let of_validator_error ?(severity = Error) (e : Validator.error) =
  make ~severity ~op:e.Validator.op Validation e.Validator.msg

let of_parse_error (e : Parser.error) =
  make Parse (Format.asprintf "%a" Parser.pp_error e)

let of_exn pass exn =
  let hint = "internal compiler invariant violated; please report this program" in
  let msg =
    match exn with
    | Failure m -> m
    | Invalid_argument m -> m
    | Assert_failure (file, line, _) ->
        Printf.sprintf "assertion failed at %s:%d" file line
    | e -> Printexc.to_string e
  in
  make ~hint pass ("uncaught exception: " ^ msg)

let is_error d = d.severity = Error

let errors ds = List.filter is_error ds

let pass_name = function
  | Parse -> "parse"
  | Ordering -> "ordering"
  | Allocation -> "allocation"
  | Placement -> "placement"
  | Validation -> "validation"
  | Oracle -> "oracle"
  | Driver -> "driver"
  | Serve -> "serve"

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp ppf d =
  Format.fprintf ppf "%s[%s]" (severity_name d.severity) (pass_name d.pass);
  Option.iter (fun i -> Format.fprintf ppf " op %%%d" i) d.op;
  Format.fprintf ppf ": %s" d.msg;
  Option.iter (fun h -> Format.fprintf ppf " (hint: %s)" h) d.hint

let pp_list ppf ds =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf ds

let to_string d = Format.asprintf "%a" pp d

let () =
  Printexc.register_printer (function
    | Failed ds ->
        Some ("Diag.Failed: " ^ String.concat "; " (List.map to_string ds))
    | _ -> None)
