(* Clocks, allocation counters, memory readings and the small statistics
   the benchmark reports. Everything here measures the benchmark's own
   process or a child it started; nothing reads engine state. *)

let now = Unix.gettimeofday

(* Heap words allocated so far by this process: minor plus direct major
   allocations, minus the minor words later promoted (counted twice
   otherwise). At jobs=1 the delta over a call repeats exactly. *)
let alloc_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* [timed f] runs [f] and returns its result with its wall seconds and
   the heap words it allocated. *)
let timed f =
  let a0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, alloc_words () -. a0)

(* Peak resident set of a process in MB, from the VmHWM line of its
   /proc status file; [None] when the file or the line is missing. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

let sorted xs = List.sort Float.compare xs

(* Median of a non-empty sample (mean of the middle pair on even
   counts). *)
let median xs =
  match sorted xs with
  | [] -> invalid_arg "Measure.median: empty sample"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a non-empty sample. *)
let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile of a fixed ladder that leaves at least ten
   samples beyond it, with its value; [None] below forty samples, where
   no percentile would be a tail. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  if n < 40. then None
  else
    let ladder = [ 99.9; 99.; 95.; 90.; 75. ] in
    let p = List.find (fun p -> n *. (1. -. (p /. 100.)) >= 10.) ladder in
    Some (p, percentile xs p)

let sum = List.fold_left ( +. ) 0.
