(* Order statistics, rank correlation and process probes. *)

(* Linear interpolation between the two closest ranks; 0 for no data. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Ranks from 1, ties sharing their average rank. *)
let ranks xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare a.(i) a.(j)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && a.(idx.(!j + 1)) = a.(idx.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  Array.to_list r

(* Spearman's rho: Pearson correlation of the ranks; 0 when either side
   is constant or there are fewer than two points. *)
let spearman xs ys =
  let rx = ranks xs and ry = ranks ys in
  let mx = mean rx and my = mean ry in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  List.iter2
    (fun x y ->
      let dx = x -. mx and dy = y -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    rx ry;
  if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed integer loop timed on its own: it does the same work at
   every commit, so a change in its time is the host, not the code. *)
let host_canary_ms () =
  snd
    (Fhe_util.Timer.time (fun () ->
         let x = ref 1 in
         for i = 1 to 30_000_000 do
           x := ((!x * 0x5DEECE66D) + i) land 0xFFFFFFFFFFFF
         done;
         ignore (Sys.opaque_identity !x)))
